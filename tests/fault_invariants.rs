//! Invariants of the fault-injection & graceful-degradation subsystem:
//! the closed-loop program-and-verify write path always converges within
//! its retry bound on healthy cells, wear-leveling never programs a
//! cell past its endurance budget, and the statistical device layer is
//! an exact no-op when its noise and drift are zeroed.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident::arch::bank::WeightBank;
use trident::pcm::gst::{GstParameters, WriteVerifyPolicy};
use trident::pcm::stat::StatParams;
use trident::pcm::weight::{PcmMrr, WeightLut};
use trident::photonics::mrr::{AddDropMrr, MrrGeometry};
use trident::photonics::units::{Hours, Wavelength};

/// A fresh weight unit, its GST constants and its ring's calibration.
fn fresh_mrr() -> (PcmMrr, GstParameters, WeightLut) {
    let params = GstParameters::default();
    let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
    let lut = WeightLut::build(&ring, &params);
    (PcmMrr::new(&params), params, lut)
}

/// Every representable 8-bit level is programmable within the retry
/// bound, from a fresh cell, and the read-back weight lands on the LUT's
/// value for that level. Exhaustive, not sampled: 255 levels is cheap.
#[test]
fn program_and_verify_converges_for_every_level() {
    let policy = WriteVerifyPolicy::default();
    let (_, params, lut) = fresh_mrr();
    for level in 0..lut.levels() {
        let mut mrr = PcmMrr::new(&params);
        let target = lut.weight_at(level);
        let report = mrr
            .set_weight_verified(&params, target, &lut, &policy, u64::from(level))
            .unwrap_or_else(|e| panic!("level {level} failed to verify: {e}"));
        assert!(
            report.pulses <= policy.max_attempts,
            "level {level} took {} pulses (bound {})",
            report.pulses,
            policy.max_attempts
        );
        let achieved = mrr.weight(&lut);
        assert!(
            (achieved - target).abs() <= lut.verify_tolerance(level).max(1.0 / 127.0),
            "level {level}: read back {achieved} for target {target}"
        );
        assert_eq!(mrr.write_failures(), 0, "level {level} tallied a failure");
    }
}

/// Every ring readout of a 4×4 bank, row-major.
fn readouts(bank: &mut WeightBank) -> [f64; 16] {
    let mut all = [0.0; 16];
    for (r, row) in all.chunks_mut(4).enumerate() {
        bank.row_readouts(r, row);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary in-range weights verify within the retry bound from any
    /// prior programmed state (write sequences, not just fresh cells).
    #[test]
    fn verified_writes_converge_from_any_state(
        w1 in -1.0f64..=1.0,
        w2 in -1.0f64..=1.0,
        seed in 0u64..1024,
    ) {
        let policy = WriteVerifyPolicy::default();
        let (mut mrr, params, lut) = fresh_mrr();
        let first = mrr.set_weight_verified(&params, w1, &lut, &policy, seed);
        prop_assert!(first.is_ok(), "first write failed: {:?}", first);
        let second = mrr.set_weight_verified(&params, w2, &lut, &policy, seed);
        prop_assert!(second.is_ok(), "second write failed: {:?}", second);
        let report = second.unwrap();
        prop_assert!(report.pulses <= policy.max_attempts);
        let level = lut.level_for(w2);
        let achieved = mrr.weight(&lut);
        prop_assert!(
            (achieved - lut.weight_at(level)).abs() <= lut.verify_tolerance(level).max(1.0 / 127.0),
            "read back {} for target {}", achieved, w2
        );
    }

    /// A zeroed statistical layer (no programming noise, no read noise,
    /// zero drift exponent) is an exact bitwise passthrough of the
    /// deterministic bank: enabling it must change nothing.
    #[test]
    fn zeroed_stat_layer_is_exact_passthrough(seed in 0u64..512, bank_seed in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut det = WeightBank::new(4, 4, GstParameters::default());
        det.program_flat(&weights);
        let mut stat = WeightBank::new(4, 4, GstParameters::default());
        stat.program_flat(&weights);
        stat.enable_stat(
            StatParams {
                prog_sigma_min_weight: 0.0,
                prog_sigma_max_weight: 0.0,
                read_sigma_weight: 0.0,
                drift_nu_floor: 0.0,
                drift_nu_spread: 0.0,
                ..Default::default()
            },
            bank_seed,
        );
        // A calibration pass at age zero must set a gain of exactly 1.
        stat.calibrate_compensation();

        let x: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
        let (mut y_det, mut y_stat) = ([0.0; 4], [0.0; 4]);
        det.mvm_into(&x, &mut y_det);
        stat.mvm_into(&x, &mut y_stat);
        for (a, b) in y_det.iter().zip(&y_stat) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "mvm diverged: {} vs {}", a, b);
        }
        for r in 0..4 {
            let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
            det.row_readouts(r, &mut a);
            stat.row_readouts(r, &mut b);
            for c in 0..4 {
                prop_assert_eq!(a[c].to_bits(), b[c].to_bits(), "readout diverged at ({}, {})", r, c);
            }
        }
    }

    /// Reference-column compensation never increases any cell's absolute
    /// weight error (and therefore never the bank's mean): the reference
    /// decays at the characterized fleet floor, every live cell at least
    /// that fast, so the gain can only move weights toward their targets.
    #[test]
    fn compensation_never_increases_weight_error(
        seed in 0u64..256,
        bank_seed in 0u64..64,
        age_hours in 0.0f64..20_000.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut bank = WeightBank::new(4, 4, GstParameters::default());
        bank.program_flat(&weights);
        // Drift only — zero noise keeps the readout deterministic so the
        // comparison is exact, and the per-cell exponent spread is live.
        bank.enable_stat(
            StatParams {
                prog_sigma_min_weight: 0.0,
                prog_sigma_max_weight: 0.0,
                read_sigma_weight: 0.0,
                ..Default::default()
            },
            bank_seed,
        );
        // At age zero, with zero noise, the readouts are the programmed
        // targets.
        let targets = readouts(&mut bank);
        bank.advance_hours(Hours(age_hours));

        bank.disengage_compensation();
        let drifted = readouts(&mut bank);
        bank.calibrate_compensation();
        prop_assert!(bank.compensation_gain() >= 1.0);
        let compensated = readouts(&mut bank);

        for ((t, d), k) in targets.iter().zip(&drifted).zip(&compensated) {
            let uncomp = (t - d).abs();
            let comp = (t - k).abs();
            prop_assert!(
                comp <= uncomp + 1e-12,
                "compensation worsened a cell: |{} - {}| -> |{} - {}|",
                t, d, t, k
            );
        }
    }

    /// Wear-leveling invariant: however many reprogram cycles a bank sees,
    /// no individual ring accumulates more write pulses than its endurance
    /// budget — cells near the cliff retire onto spares instead.
    #[test]
    fn wear_leveling_never_exceeds_the_endurance_budget(
        endurance in 50u64..=200,
        cycles in 1usize..=40,
        seed in 0u64..256,
    ) {
        let params = GstParameters { endurance_cycles: endurance, ..Default::default() };
        // The seed is the bank's device identity: it addresses the jitter.
        let mut bank = WeightBank::new_varied(2, 2, params, 0.0, seed);
        let policy = WriteVerifyPolicy::default();
        for i in 0..cycles {
            // Alternate between two far-apart matrices so every cycle
            // genuinely rewrites (and wears) each live cell.
            let w = if i % 2 == 0 {
                [0.9, -0.9, 0.7, -0.7]
            } else {
                [-0.6, 0.6, -0.8, 0.8]
            };
            // Failures (spares exhausted → masked slots) are legitimate
            // late in life; the invariant is about wear accounting.
            let _ = bank.try_program_verified(&w, &policy);
        }
        prop_assert!(
            bank.max_ring_writes() <= endurance,
            "a ring saw {} writes against an endurance budget of {}",
            bank.max_ring_writes(),
            endurance
        );
    }
}
