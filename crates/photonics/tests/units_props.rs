//! Property tests for the `photonics::units` newtype arithmetic:
//! summation is bitwise-identical to raw `f64` folds, and cross-unit
//! multiply/divide obeys mW × ns = pJ exactly.

use trident_photonics::units::{EnergyPj, Nanoseconds, PowerMw};
use proptest::prelude::*;

/// Distance in units-in-the-last-place between two finite f64 of the
/// same sign (0 means bitwise equal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    ia.abs_diff(ib)
}

proptest! {
    #[test]
    fn sum_is_bitwise_identical_to_raw_fold(xs in proptest::collection::vec(-1e6f64..1e6, 0..32)) {
        let typed: EnergyPj = xs.iter().map(|&x| EnergyPj(x)).sum();
        let raw = xs.iter().fold(0.0f64, |acc, &x| acc + x);
        prop_assert_eq!(typed.value().to_bits(), raw.to_bits());
    }

    #[test]
    fn power_times_duration_is_exact_product(p in 0.0f64..1e4, t in 0.0f64..1e6) {
        // 1 mW × 1 ns = 1 pJ, so the typed product is the single f64
        // multiply — no hidden scale factor to round through.
        let e = PowerMw(p).for_duration(Nanoseconds(t));
        prop_assert_eq!(e.value().to_bits(), (p * t).to_bits());
    }

    #[test]
    fn energy_over_duration_is_exact_quotient(e in 0.0f64..1e9, t in 1e-3f64..1e6) {
        let p = EnergyPj(e).over_duration(Nanoseconds(t));
        prop_assert_eq!(p.value().to_bits(), (e / t).to_bits());
    }

    #[test]
    fn energy_time_power_cycle_within_one_ulp(p in 1e-6f64..1e4, t in 1e-3f64..1e6) {
        // mW → pJ → mW through the same duration: one multiply and one
        // divide, each correctly rounded.
        let back = PowerMw(p).for_duration(Nanoseconds(t)).over_duration(Nanoseconds(t));
        prop_assert!(
            ulp_distance(back.value(), p) <= 1,
            "p={p} t={t} back={}", back.value()
        );
    }
}
