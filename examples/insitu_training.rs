//! In-situ training demo: train a dense network for digit classification
//! entirely on simulated Trident hardware — forward MACs, gradient
//! vectors, and weight-update outer products all executed photonically
//! per Table II of the paper — and compare 8-bit (GST) against 6-bit
//! (thermal) weight resolution.
//!
//! ```sh
//! cargo run --release --example insitu_training [per_class] [epochs]
//! ```


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::nn::data::synthetic_digits;

fn main() {
    let mut args = std::env::args().skip(1);
    let per_class: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let epochs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(15);

    println!("In-situ photonic training on the synthetic digit task");
    println!("({per_class} images/class, {epochs} epochs, 64-16-10 MLP)\n");

    let data = synthetic_digits(per_class, 0.05, 2024);
    let xs: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| v as f64).collect())
        .collect();

    for (label, bits) in [("GST / 8-bit", 8u8), ("thermal / 6-bit", 6u8)] {
        let opts = EngineOptions { seed: 7, weight_bits: bits, ..Default::default() };
        let mut engine = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        println!(
            "{label}: {} PEs allocated across {} layers",
            engine.chip().pe_count(),
            engine.layer_count()
        );
        let outcome = engine.try_train(&xs, &data.labels, 0.1, epochs).unwrap();
        for (e, loss) in outcome.loss_history.iter().enumerate() {
            if e % 3 == 0 || e + 1 == outcome.loss_history.len() {
                println!("  epoch {e:>3}: loss {loss:.4}");
            }
        }
        println!(
            "  final accuracy: {:.1}%",
            outcome.final_accuracy * 100.0
        );
        println!(
            "  optical energy: {:.2} uJ total, {:.2} uJ of GST programming \
             ({:.0}% of total)",
            outcome.total_energy.value() / 1e6,
            outcome.programming_energy.value() / 1e6,
            outcome.programming_energy / outcome.total_energy * 100.0
        );
        println!("  simulated time: {:.2} ms\n", outcome.elapsed.millis());
    }

    println!(
        "The 8-bit (GST) run learns the task; at 6 bits most weight updates\n\
         round away on the coarse level grid — the paper's §II-B claim that\n\
         thermally tuned banks cannot support training."
    );
}
