//! Property-based invariants spanning the device crates.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use proptest::prelude::*;
use trident::arch::bank::WeightBank;
use trident::pcm::gst::GstParameters;
use trident::photonics::units::{EnergyPj, Nanoseconds, PowerMw};

/// A bank read into a fresh vector.
fn read(bank: &mut WeightBank, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; bank.rows()];
    bank.mvm_into(x, &mut y);
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optics is linear: scaling every input power scales every output.
    #[test]
    fn bank_mvm_is_homogeneous(
        w in proptest::collection::vec(-1.0f64..=1.0, 16),
        x in proptest::collection::vec(0.0f64..=0.5, 4),
        alpha in 0.1f64..=2.0,
    ) {
        let mut bank = WeightBank::new(4, 4, GstParameters::default());
        bank.program_flat(&w);
        let y1 = read(&mut bank, &x);
        let scaled: Vec<f64> = x.iter().map(|&v| v * alpha).collect();
        let y2 = read(&mut bank, &scaled);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((b - a * alpha).abs() < 1e-9);
        }
    }

    /// Superposition: MVM of a sum equals the sum of MVMs.
    #[test]
    fn bank_mvm_is_additive(
        w in proptest::collection::vec(-1.0f64..=1.0, 16),
        x1 in proptest::collection::vec(0.0f64..=0.5, 4),
        x2 in proptest::collection::vec(0.0f64..=0.5, 4),
    ) {
        let mut bank = WeightBank::new(4, 4, GstParameters::default());
        bank.program_flat(&w);
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y_sum = read(&mut bank, &sum);
        let y1 = read(&mut bank, &x1);
        let y2 = read(&mut bank, &x2);
        for ((s, a), b) in y_sum.iter().zip(&y1).zip(&y2) {
            prop_assert!((s - (a + b)).abs() < 1e-9);
        }
    }

    /// The photonic dot product tracks exact math within an analog error
    /// bound for every weight/input combination.
    #[test]
    fn bank_mvm_tracks_math(
        w in proptest::collection::vec(-1.0f64..=1.0, 16),
        x in proptest::collection::vec(0.0f64..=1.0, 4),
    ) {
        let mut bank = WeightBank::new(4, 4, GstParameters::default());
        bank.program_flat(&w);
        let y = read(&mut bank, &x);
        for r in 0..4 {
            let exact: f64 = (0..4).map(|c| w[r * 4 + c] * x[c]).sum();
            // Quantization (half an LSB per weight) plus crosstalk that
            // scales with the total optical activity on the row — partial
            // products of opposite signs cancel in `exact` but their
            // crosstalk residues do not.
            let activity: f64 = (0..4).map(|c| (w[r * 4 + c] * x[c]).abs()).sum();
            // A third term floors the bound at the crosstalk residue of
            // the total input power: even a row of zero weights leaks a
            // little of every loud channel into its drop bus.
            let input_power: f64 = x.iter().sum();
            prop_assert!(
                (y[r] - exact).abs() < 0.02 + 0.035 * activity + 0.015 * input_power,
                "row {}: photonic {} vs exact {} (activity {activity}, power {input_power})",
                r, y[r], exact
            );
        }
    }

    /// Reprogramming is idempotent in energy: writing the same matrix
    /// twice charges exactly once.
    #[test]
    fn bank_programming_idempotent(
        w in proptest::collection::vec(-1.0f64..=1.0, 16),
    ) {
        let mut bank = WeightBank::new(4, 4, GstParameters::default());
        let (e1, _) = bank.program_flat(&w);
        let (e2, _) = bank.program_flat(&w);
        prop_assert!(e1.value() >= 0.0);
        prop_assert_eq!(e2, EnergyPj::ZERO);
    }

    /// Unit conversions round-trip.
    #[test]
    fn unit_round_trips(v in 0.0f64..1e9) {
        prop_assert!((PowerMw::from_watts(v * 1e-3).value() - v).abs() < v.abs() * 1e-12 + 1e-12);
        prop_assert!((EnergyPj::from_nj(v * 1e-3).value() - v).abs() < v.abs() * 1e-12 + 1e-12);
        prop_assert!((Nanoseconds::from_us(v * 1e-3).value() - v).abs() < v.abs() * 1e-12 + 1e-9);
    }

    /// Power × time = energy, exactly, in these units.
    #[test]
    fn power_time_energy_identity(p in 0.0f64..1e6, t in 0.0f64..1e6) {
        let e = PowerMw(p).for_duration(Nanoseconds(t));
        prop_assert!((e.value() - p * t).abs() < (p * t).abs() * 1e-12 + 1e-12);
        if t > 0.0 {
            prop_assert!((e.over_duration(Nanoseconds(t)).value() - p).abs() < p * 1e-9 + 1e-12);
        }
    }
}

#[test]
fn ring_readout_consistent_with_row_mvm() {
    // The outer-product demux readout and the row-summed BPD readout view
    // the same physics: the sum of per-ring readouts equals the row MVM
    // with all channels at unit power (within crosstalk).
    let mut bank = WeightBank::new(1, 8, GstParameters::default());
    let w: Vec<f64> = vec![0.6, -0.2, 0.9, -0.8, 0.1, 0.4, -0.5, 0.3];
    bank.program_flat(&w);
    let row_sum = read(&mut bank, &[1.0; 8])[0];
    let mut demux = [0.0; 8];
    bank.row_readouts(0, &mut demux);
    let demux_sum: f64 = demux.iter().sum();
    // Per-ring crosstalk residues (~1% of full scale each) accumulate
    // over the 8 channels, so the bound is wider than a single ring's.
    assert!(
        (row_sum - demux_sum).abs() < 0.12,
        "row BPD {row_sum} vs demux sum {demux_sum}"
    );
}
