//! Transfer-spectrum sampling — device characterization the way a
//! photonics lab would sweep a tunable laser across a device under test.
//!
//! Produces `(wavelength, through, drop)` series for ring designs at any
//! intra-cavity state, used by the `spectrum` binary and handy for
//! plotting resonance combs, extinction ratios, and free spectral ranges.

use crate::mrr::AddDropMrr;
use crate::units::{count, Wavelength};

/// One sampled spectrum point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumPoint {
    /// Probe wavelength in nm.
    pub wavelength_nm: f64,
    /// Through-port power transmission.
    pub through: f64,
    /// Drop-port power transmission.
    pub drop: f64,
}

/// Sweep a ring's transfer across `[start_nm, stop_nm]` with `samples`
/// points at an intra-cavity amplitude state.
pub fn sweep(
    ring: &AddDropMrr,
    start_nm: f64,
    stop_nm: f64,
    samples: usize,
    intra_cavity_amplitude: f64,
) -> Vec<SpectrumPoint> {
    assert!(samples >= 2, "need at least two samples");
    assert!(stop_nm > start_nm, "stop must exceed start");
    (0..samples)
        .map(|i| {
            let nm = start_nm + (stop_nm - start_nm) * count(i) / count(samples - 1);
            let t = ring.transfer(Wavelength::from_nm(nm), intra_cavity_amplitude);
            SpectrumPoint { wavelength_nm: nm, through: t.through, drop: t.drop }
        })
        .collect()
}

/// Extinction ratio (dB) of the drop port over a swept spectrum:
/// `10·log10(max drop / min drop)`.
pub fn drop_extinction_db(spectrum: &[SpectrumPoint]) -> f64 {
    let max = spectrum.iter().map(|p| p.drop).fold(0.0f64, f64::max);
    let min = spectrum.iter().map(|p| p.drop).fold(f64::INFINITY, f64::min);
    10.0 * (max / min.max(1e-15)).log10()
}

/// Locate resonance dips of the through port: local minima below
/// `threshold`.
pub fn find_resonances(spectrum: &[SpectrumPoint], threshold: f64) -> Vec<f64> {
    let mut resonances = Vec::new();
    for w in spectrum.windows(3) {
        let (a, b, c) = (w[0].through, w[1].through, w[2].through);
        if b < a && b < c && b < threshold {
            resonances.push(w[1].wavelength_nm);
        }
    }
    resonances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrr::MrrGeometry;

    fn ring() -> AddDropMrr {
        AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0))
    }

    #[test]
    fn sweep_covers_the_range() {
        let s = sweep(&ring(), 1540.0, 1560.0, 201, 1.0);
        assert_eq!(s.len(), 201);
        assert_eq!(s.first().unwrap().wavelength_nm, 1540.0);
        assert_eq!(s.last().unwrap().wavelength_nm, 1560.0);
        assert!(s.iter().all(|p| (0.0..=1.0).contains(&p.through)));
        assert!(s.iter().all(|p| (0.0..=1.0).contains(&p.drop)));
    }

    #[test]
    fn resonance_comb_matches_fsr() {
        // Sweep two FSRs: expect resonances spaced by the FSR.
        let r = ring();
        let fsr = r.fsr_nm();
        let s = sweep(&r, 1545.0, 1545.0 + 2.2 * fsr, 4001, 1.0);
        let resonances = find_resonances(&s, 0.5);
        assert!(
            resonances.len() >= 2,
            "expected at least two resonances over 2 FSRs, got {resonances:?}"
        );
        let spacing = resonances[1] - resonances[0];
        assert!(
            (spacing - fsr).abs() < 0.2,
            "resonance spacing {spacing} vs FSR {fsr}"
        );
        // One of them is the design resonance at 1550 nm.
        assert!(resonances.iter().any(|&w| (w - 1550.0).abs() < 0.1));
    }

    #[test]
    fn extinction_collapses_with_absorption() {
        let r = ring();
        let sharp = sweep(&r, 1548.0, 1552.0, 801, 1.0);
        let damped = sweep(&r, 1548.0, 1552.0, 801, 0.4);
        assert!(
            drop_extinction_db(&sharp) > drop_extinction_db(&damped),
            "GST absorption should flatten the drop resonance"
        );
        assert!(drop_extinction_db(&sharp) > 10.0, "sharp ring should exceed 10 dB");
    }

    #[test]
    fn no_resonances_when_flat() {
        // A heavily damped ring barely dips — high threshold finds its
        // resonance, a very low threshold does not.
        let s = sweep(&ring(), 1548.0, 1552.0, 801, 0.4);
        assert!(find_resonances(&s, 0.05).is_empty());
    }
}
