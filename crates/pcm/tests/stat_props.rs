//! Properties of the statistical device model (`pcm::stat`): counter-seeded
//! noise is bitwise reproducible, drift only ever decays conductance, and
//! the fleet-floor reference column can never overcompensate a cell.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use proptest::prelude::*;
use trident_pcm::stat::StatParams;
use trident_photonics::units::Hours;
use trident_streams::seeded_gaussian;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same (seed, stream, draw) address always yields the same bits —
    /// noise reproducibility is structural, not a schedule accident.
    #[test]
    fn same_address_same_bits(seed in 0u64..u64::MAX, stream in 1u64..8, draw in 0u64..u64::MAX) {
        let a = seeded_gaussian(seed, stream, draw);
        let b = seeded_gaussian(seed, stream, draw);
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert!(a.is_finite());
    }

    /// The decay factor is 1 at age zero, never exceeds 1, and is monotone
    /// non-increasing in age: drift only ever *loses* conductance.
    #[test]
    fn drift_is_monotone_non_increasing(
        nu_g in -3.0f64..3.0,
        age1 in 0.0f64..100_000.0,
        dt in 0.0f64..100_000.0,
    ) {
        let p = StatParams::default();
        let nu = p.nu_slope(nu_g);
        let fresh = p.cell_decay_factor(Hours(0.0), nu);
        prop_assert_eq!(fresh.to_bits(), 1.0f64.to_bits());
        let f1 = p.cell_decay_factor(Hours(age1), nu);
        let f2 = p.cell_decay_factor(Hours(age1 + dt), nu);
        prop_assert!(f1 <= 1.0);
        prop_assert!(f2 <= f1 + 1e-15, "decay must not recover: {} then {}", f1, f2);
        prop_assert!(f2 > 0.0);
    }

    /// Per-cell drift exponents are half-normal *above* the fleet floor,
    /// so the reference column (characterized at the floor) always decays
    /// no faster than any live cell... and therefore compensating by the
    /// reference's reciprocal can only move a cell's weight *toward* its
    /// programmed value, never past it: compensation never increases the
    /// per-cell (hence mean) absolute weight error.
    #[test]
    fn floor_compensation_never_overshoots(
        nu_g in -4.0f64..4.0,
        age in 0.0f64..100_000.0,
        w in -1.0f64..1.0,
    ) {
        let p = StatParams::default();
        let nu = p.nu_slope(nu_g);
        prop_assert!(nu >= p.drift_nu_floor);
        let cell = p.cell_decay_factor(Hours(age), nu);
        let reference = p.cell_decay_factor(Hours(age), p.drift_nu_floor);
        prop_assert!(cell <= reference + 1e-15, "cell must decay at least as fast as the reference");
        let gain = 1.0 / reference;
        let uncompensated_err = (w * (1.0 - cell)).abs();
        let compensated_err = (w * (1.0 - cell * gain)).abs();
        prop_assert!(
            compensated_err <= uncompensated_err + 1e-12,
            "compensation increased weight error: {} -> {} (cell {}, ref {})",
            uncompensated_err, compensated_err, cell, reference
        );
    }

    /// Programming-noise σ interpolates within its configured band and
    /// grows with the target level.
    #[test]
    fn prog_sigma_is_monotone_in_level(l1 in 0u16..255, l2 in 0u16..255) {
        let p = StatParams::default();
        let (lo, hi) = (l1.min(l2), l1.max(l2));
        let s_lo = p.prog_sigma_weight(lo, 255);
        let s_hi = p.prog_sigma_weight(hi, 255);
        prop_assert!(s_lo <= s_hi);
        prop_assert!(s_lo >= p.prog_sigma_min_weight);
        prop_assert!(s_hi <= p.prog_sigma_max_weight);
    }

    /// Different draw indices on the same stream decorrelate: a run of
    /// consecutive draws is never constant (the counter actually feeds
    /// the mixer).
    #[test]
    fn consecutive_draws_vary(seed in 0u64..u64::MAX, start in 0u64..u64::MAX) {
        let first = seeded_gaussian(seed, 2, start);
        let varied = (1..16u64)
            .any(|i| seeded_gaussian(seed, 2, start.wrapping_add(i)).to_bits() != first.to_bits());
        prop_assert!(varied, "16 consecutive draws all identical");
    }
}
