//! Strongly-typed physical quantities.
//!
//! The performance model mixes quantities spanning twelve orders of
//! magnitude (picojoule write pulses, millisecond inference latencies,
//! milliwatt device powers). Newtypes with explicit conversion methods keep
//! unit errors out of the energy/latency roll-ups; arithmetic is provided
//! only where it is dimensionally meaningful.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! scalar_unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw numeric value in this type's canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// True when the value is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Mul<usize> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: usize) -> Self {
                Self(self.0 * count(rhs))
            }
        }

        impl Mul<u64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: u64) -> Self {
                Self(self.0 * count(rhs))
            }
        }

        impl Div<usize> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: usize) -> Self {
                Self(self.0 / count(rhs))
            }
        }

        impl Div<u64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: u64) -> Self {
                Self(self.0 / count(rhs))
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

scalar_unit!(
    /// Optical or electrical power in milliwatts.
    PowerMw,
    "mW"
);

scalar_unit!(
    /// Energy in picojoules.
    EnergyPj,
    "pJ"
);

scalar_unit!(
    /// Time in nanoseconds.
    Nanoseconds,
    "ns"
);

scalar_unit!(
    /// Silicon area in square micrometres.
    AreaUm2,
    "um^2"
);

scalar_unit!(
    /// Event rate / frequency in hertz.
    Hertz,
    "Hz"
);

scalar_unit!(
    /// Deployment / wall-clock time in hours.
    ///
    /// Distinct from [`Nanoseconds`] on purpose: `Nanoseconds` measures
    /// *simulated circuit* latency, while `Hours` measures *simulated
    /// deployment* time — the scale on which PCM conductance drift and
    /// retention act. Keeping them as separate types means a drift law can
    /// never accidentally be fed a symbol latency.
    Hours,
    "h"
);

/// Device or event counts entering the energy/latency arithmetic.
///
/// The performance model multiplies per-device quantities by integer
/// populations (MRRs per PE, vectors per tile, cache accesses). [`count`]
/// is the single sanctioned integer→`f64` conversion — everywhere else a
/// raw `as` cast is a lint error (`trident-lint` rule `no-cast`), so lossy
/// narrowing can never hide inside the unit roll-ups. All implementors are
/// exact in `f64` up to 2⁵³ events, far beyond any simulated population.
pub trait CountValue: Copy {
    /// The count as an `f64` multiplier.
    fn to_f64(self) -> f64;
}

macro_rules! count_value {
    ($($int:ty),*) => {
        $(impl CountValue for $int {
            // The sanctioned integer→f64 boundary; `From` does not cover
            // u64/usize/i64, so the macro keeps one uniform `as` here.
            #[allow(clippy::cast_lossless)]
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
        })*
    };
}

count_value!(u8, u16, u32, u64, usize, i32, i64);

/// Convert an integer population to the `f64` multiplier the quantity
/// arithmetic uses. See [`CountValue`].
#[inline]
pub fn count<N: CountValue>(n: N) -> f64 {
    n.to_f64()
}

/// Total float→index conversion for grid lookups: rounds, clamps into
/// `0..=max`, and maps NaN to 0 — the one place a float is allowed to
/// become an index without an `as` cast at the call site.
#[inline]
pub fn index_clamped(x: f64, max: usize) -> usize {
    if x.is_nan() {
        return 0;
    }
    x.round().clamp(0.0, count(max)) as usize
}

impl PowerMw {
    /// Construct from watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Self(w * 1e3)
    }

    /// Convert to watts.
    #[inline]
    pub fn watts(self) -> f64 {
        self.0 * 1e-3
    }

    /// Energy dissipated when this power is applied for `t`.
    ///
    /// 1 mW × 1 ns = 1 pJ, so the conversion is exact in these units.
    #[inline]
    pub fn for_duration(self, t: Nanoseconds) -> EnergyPj {
        EnergyPj(self.0 * t.0)
    }
}

impl Hertz {
    /// Convert to gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 * 1e-9
    }
}

impl EnergyPj {
    /// Construct from nanojoules.
    #[inline]
    pub fn from_nj(nj: f64) -> Self {
        Self(nj * 1e3)
    }

    /// Convert to millijoules.
    #[inline]
    pub fn millijoules(self) -> f64 {
        self.0 * 1e-9
    }

    /// Convert to nanojoules.
    #[inline]
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e-3
    }

    /// Convert to joules.
    #[inline]
    pub fn joules(self) -> f64 {
        self.0 * 1e-12
    }

    /// Average power when this energy is spent over `t`.
    #[inline]
    pub fn over_duration(self, t: Nanoseconds) -> PowerMw {
        PowerMw(self.0 / t.0)
    }
}

impl Nanoseconds {
    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self(us * 1e3)
    }

    /// Convert to microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e-3
    }

    /// Convert to milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e-6
    }

    /// Convert to seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0 * 1e-9
    }

    /// Events per second for a per-event duration (`1/t`).
    ///
    /// Returns `f64::INFINITY` for a zero duration.
    #[inline]
    pub fn rate_hz(self) -> f64 {
        1e9 / self.0
    }

    /// Events per second as a typed rate (`1/t`).
    #[inline]
    pub fn rate(self) -> Hertz {
        Hertz(self.rate_hz())
    }
}

impl Hours {
    /// Construct from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self(days * 24.0)
    }

    /// Construct from years (Julian year, 8766 h — matching the
    /// `365.25 × 24` convention the retention model uses).
    #[inline]
    pub fn from_years(years: f64) -> Self {
        Self(years * HOURS_PER_YEAR)
    }

    /// Convert to years (Julian year, 8766 h).
    #[inline]
    pub fn years(self) -> f64 {
        self.0 / HOURS_PER_YEAR
    }
}

/// Hours per Julian year (365.25 days), the retention model's convention.
pub const HOURS_PER_YEAR: f64 = 365.25 * 24.0;

impl AreaUm2 {
    /// Construct from square millimetres.
    #[inline]
    pub fn from_mm2(mm2: f64) -> Self {
        Self(mm2 * 1e6)
    }

    /// Convert to square millimetres.
    #[inline]
    pub fn mm2(self) -> f64 {
        self.0 * 1e-6
    }
}

/// Optical wavelength in nanometres.
///
/// Kept distinct from the scalar units because wavelengths are *labels*
/// (channel identities) as much as quantities: adding two wavelengths is
/// meaningless, but detuning (difference) is used by the resonator physics.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Wavelength(f64);

impl Wavelength {
    /// Construct from nanometres. Panics on non-positive or non-finite input.
    #[inline]
    pub fn from_nm(nm: f64) -> Self {
        assert!(nm.is_finite() && nm > 0.0, "wavelength must be positive and finite, got {nm}");
        Self(nm)
    }

    /// Wavelength in nanometres.
    #[inline]
    pub fn nm(self) -> f64 {
        self.0
    }

    /// Wavelength in metres.
    #[inline]
    pub fn meters(self) -> f64 {
        self.0 * 1e-9
    }

    /// Signed detuning from another wavelength, in nanometres.
    #[inline]
    pub fn detuning_nm(self, other: Wavelength) -> f64 {
        self.0 - other.0
    }

    /// Shift this wavelength by a signed offset in nanometres.
    #[inline]
    pub fn shifted_nm(self, delta_nm: f64) -> Self {
        Self::from_nm(self.0 + delta_nm)
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} nm", prec, self.0)
        } else {
            write!(f, "{:.2} nm", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let p = PowerMw(2.0);
        let t = Nanoseconds(300.0);
        assert_eq!(p.for_duration(t), EnergyPj(600.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        let e = EnergyPj(660.0);
        let t = Nanoseconds(300.0);
        assert!((e.over_duration(t).value() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn watt_round_trip() {
        let p = PowerMw::from_watts(30.0);
        assert!((p.watts() - 30.0).abs() < 1e-12);
        assert!((p.value() - 30_000.0).abs() < 1e-9);
    }

    #[test]
    fn nanojoule_round_trip() {
        let e = EnergyPj::from_nj(1.02);
        assert!((e.nanojoules() - 1.02).abs() < 1e-12);
        assert!((e.value() - 1020.0).abs() < 1e-9);
    }

    #[test]
    fn time_conversions() {
        assert!((Nanoseconds::from_us(0.3).value() - 300.0).abs() < 1e-12);
        assert!((Nanoseconds(2.0).rate_hz() - 5e8).abs() < 1.0);
    }

    #[test]
    fn area_conversions() {
        let a = AreaUm2::from_mm2(604.6);
        assert!((a.mm2() - 604.6).abs() < 1e-9);
    }

    #[test]
    fn wavelength_detuning() {
        let a = Wavelength::from_nm(1550.0);
        let b = Wavelength::from_nm(1551.6);
        assert!((b.detuning_nm(a) - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn wavelength_rejects_nonpositive() {
        let _ = Wavelength::from_nm(0.0);
    }

    #[test]
    fn unit_arithmetic_and_sum() {
        let total: EnergyPj = [EnergyPj(1.0), EnergyPj(2.5), EnergyPj(3.5)].into_iter().sum();
        assert_eq!(total, EnergyPj(7.0));
        assert_eq!(EnergyPj(4.0) / EnergyPj(2.0), 2.0);
        assert_eq!(-EnergyPj(4.0), EnergyPj(-4.0));
        assert_eq!(EnergyPj(4.0).abs(), EnergyPj(4.0));
        let mut acc = PowerMw(1.0);
        acc += PowerMw(2.0);
        acc -= PowerMw(0.5);
        assert!((acc.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats_with_units() {
        assert_eq!(format!("{:.1}", PowerMw(2.25)), "2.2 mW");
        assert_eq!(format!("{}", Wavelength::from_nm(1550.0)), "1550.00 nm");
    }

    #[test]
    fn hertz_round_trips() {
        let f = Hertz(1.37e9);
        assert!((f.ghz() - 1.37).abs() < 1e-12);
        assert!((Nanoseconds(2.889).rate().value() - Nanoseconds(2.889).rate_hz()).abs() < 1e-6);
    }

    #[test]
    fn integer_counts_multiply_exactly() {
        assert_eq!(EnergyPj(20.0) * 256usize, EnergyPj(5120.0));
        assert_eq!(PowerMw(2.2) * 256u64, PowerMw(2.2 * 256.0));
        assert_eq!(EnergyPj(5120.0) / 256usize, EnergyPj(20.0));
        assert_eq!(Nanoseconds(300.0) / 4u64, Nanoseconds(75.0));
        assert_eq!(count(44usize), 44.0);
        assert_eq!(count(u64::from(u32::MAX)), 4294967295.0);
    }

    #[test]
    fn hours_round_trips() {
        assert_eq!(Hours::from_days(2.0), Hours(48.0));
        let h = Hours::from_years(10.0);
        assert!((h.years() - 10.0).abs() < 1e-12);
        assert!((h.value() - 87_660.0).abs() < 1e-9);
        assert_eq!(format!("{:.1}", Hours(720.0)), "720.0 h");
    }

    #[test]
    fn millijoule_and_joule_readouts() {
        let e = EnergyPj(1.5e9);
        assert!((e.millijoules() - 1.5).abs() < 1e-12);
        assert!((e.joules() - 1.5e-3).abs() < 1e-15);
    }
}
