//! Inter-channel crosstalk analysis for WDM ring banks.
//!
//! §II-B of the paper: thermally tuned banks *shift the resonance* to
//! modulate amplitude (±0.2 nm), which pushes a ring's passband towards its
//! neighbours' channels and couples heat into adjacent rings; the resulting
//! crosstalk limits thermally tuned weight banks to 6-bit resolution — too
//! coarse to train. GST-tuned rings keep their resonance fixed and
//! attenuate inside the cavity instead: their leakage is common-mode across
//! the balanced detector rails and is largely rejected, so the achievable
//! resolution is capped only by the 255 GST levels (8 bits).
//!
//! This module derives those bit limits from the ring transfer functions
//! and an explicit operating-point model rather than asserting them.

use crate::mrr::AddDropMrr;
use crate::units::index_clamped;
use crate::wdm::WdmGrid;

/// How a weight bank is operated — the knobs that decide how much of the
/// raw optical leakage corrupts the analog weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankOperatingPoint {
    /// Worst-case intentional resonance detuning applied while modulating
    /// (thermal banks encode weights by shifting; ±0.2 nm per the paper).
    pub resonance_shift_nm: f64,
    /// Common-mode rejection (dB) the balanced detector applies to leakage
    /// that appears equally on the drop and through rails. Fixed-resonance
    /// (GST) banks benefit; resonance-shifting banks turn the leak
    /// differential and get none.
    pub balanced_rejection_db: f64,
    /// Fractional weight error induced on a ring by its neighbours'
    /// tuners (thermal crosstalk between heaters; zero for optical GST
    /// programming).
    pub tuner_crosstalk: f64,
}

impl BankOperatingPoint {
    /// GST operation: fixed resonance, 20 dB balanced rejection, no
    /// heater coupling.
    pub const fn gst() -> Self {
        Self { resonance_shift_nm: 0.0, balanced_rejection_db: 20.0, tuner_crosstalk: 0.0 }
    }

    /// Thermal operation per the paper: ±0.2 nm modulation shift, no
    /// common-mode benefit, residual heater-to-heater coupling.
    pub const fn thermal() -> Self {
        Self { resonance_shift_nm: 0.2, balanced_rejection_db: 0.0, tuner_crosstalk: 0.002 }
    }

    /// CrossLight-style hybrid: smaller thermal shift trimmed
    /// electro-optically.
    pub const fn hybrid() -> Self {
        Self { resonance_shift_nm: 0.1, balanced_rejection_db: 0.0, tuner_crosstalk: 0.001 }
    }
}

/// Crosstalk summary for one ring bank on one channel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkReport {
    /// Raw worst-case ratio of aggregated neighbour power to in-channel
    /// power at any ring's drop port, before balanced rejection.
    pub optical_ratio: f64,
    /// Effective weight-error ratio after balanced rejection and tuner
    /// coupling.
    pub effective_ratio: f64,
    /// Signal-to-crosstalk ratio in dB (from the effective ratio).
    pub sxr_db: f64,
    /// Bits of resolution the crosstalk floor permits:
    /// `floor(log2(1/effective_ratio))`, clamped to `[1, 16]`.
    pub crosstalk_limited_bits: u8,
}

/// Analyse crosstalk for rings resonant on each channel of `grid`,
/// operated at `op`. `intra_cavity_amplitude` is the GST/loss element's
/// amplitude transmission (1.0 = transparent, the sharpest — worst-case —
/// line).
pub fn analyze_bank(
    grid: &WdmGrid,
    ring_template: &AddDropMrr,
    op: &BankOperatingPoint,
    intra_cavity_amplitude: f64,
) -> CrosstalkReport {
    let n = grid.len();
    let mut worst: f64 = 0.0;
    for i in 0..n {
        // Full-scale signal: what the ring drops from its own channel when
        // sitting exactly on resonance. Weight errors are reported relative
        // to this full scale (the weight encoding's unit).
        let mut ring = *ring_template;
        ring.set_resonance(grid.channel(i));
        let full_scale = ring.transfer(grid.channel(i), intra_cavity_amplitude).drop;
        // Worst-case leak: the ring detuned as far as the tuning method
        // pushes it, dropping power from every other channel.
        ring.set_resonance(grid.channel(i).shifted_nm(op.resonance_shift_nm));
        let leak: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| ring.transfer(grid.channel(j), intra_cavity_amplitude).drop)
            .sum();
        if full_scale > 0.0 {
            worst = worst.max(leak / full_scale);
        }
    }
    CrosstalkReport::from_ratios(worst, op)
}

impl CrosstalkReport {
    /// Combine a raw optical leak ratio with an operating point.
    pub fn from_ratios(optical_ratio: f64, op: &BankOperatingPoint) -> Self {
        assert!(
            optical_ratio.is_finite() && optical_ratio >= 0.0,
            "crosstalk ratio must be >= 0"
        );
        let rejection = 10f64.powf(-op.balanced_rejection_db / 10.0);
        let effective = optical_ratio * rejection + op.tuner_crosstalk;
        let sxr_db = if effective > 0.0 { -10.0 * effective.log10() } else { f64::INFINITY };
        Self {
            optical_ratio,
            effective_ratio: effective,
            sxr_db,
            crosstalk_limited_bits: ratio_to_bits(effective),
        }
    }
}

fn ratio_to_bits(ratio: f64) -> u8 {
    if ratio <= 0.0 {
        return 16;
    }
    // The crosstalk floor acts as a full-scale-relative error on the analog
    // weight: distinguishable levels = 1/ratio.
    let bits = (1.0 / ratio).log2().floor().clamp(1.0, 16.0);
    // The clamp above plus the units module's total float→index conversion
    // make the narrowing total.
    u8::try_from(index_clamped(bits, 16)).unwrap_or(16)
}

/// Effective usable bit resolution of a weight bank: the crosstalk limit
/// combined with the tuning device's own level count.
pub fn effective_bit_resolution(crosstalk: &CrosstalkReport, device_bits: u8) -> u8 {
    crosstalk.crosstalk_limited_bits.min(device_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrr::MrrGeometry;
    use crate::units::Wavelength;

    fn template() -> AddDropMrr {
        AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0))
    }

    fn paper_grid() -> WdmGrid {
        // 16 channels: one Trident PE row width (256 MRRs = 16×16).
        WdmGrid::c_band(16)
    }

    #[test]
    fn static_bank_has_low_optical_crosstalk() {
        let report = analyze_bank(&paper_grid(), &template(), &BankOperatingPoint::gst(), 1.0);
        assert!(report.optical_ratio < 0.05, "optical ratio {}", report.optical_ratio);
        assert!(report.effective_ratio < report.optical_ratio);
    }

    #[test]
    fn thermal_detuning_increases_crosstalk() {
        let grid = paper_grid();
        let gst = analyze_bank(&grid, &template(), &BankOperatingPoint::gst(), 1.0);
        let thermal = analyze_bank(&grid, &template(), &BankOperatingPoint::thermal(), 1.0);
        assert!(thermal.effective_ratio > gst.effective_ratio);
        assert!(thermal.crosstalk_limited_bits < gst.crosstalk_limited_bits);
    }

    #[test]
    fn gst_bank_reaches_8_bits_thermal_stops_at_6() {
        // The paper's §II-B claim, derived from the ring physics plus the
        // operating-point model: GST banks support the full 8 device bits,
        // thermally modulated banks are crosstalk-limited to ~6.
        let grid = paper_grid();
        let gst = analyze_bank(&grid, &template(), &BankOperatingPoint::gst(), 1.0);
        let thermal = analyze_bank(&grid, &template(), &BankOperatingPoint::thermal(), 1.0);
        assert_eq!(effective_bit_resolution(&gst, 8), 8, "gst report {gst:?}");
        assert_eq!(effective_bit_resolution(&thermal, 8), 6, "thermal report {thermal:?}");
    }

    #[test]
    fn hybrid_lands_between_thermal_and_gst() {
        let grid = paper_grid();
        let gst = analyze_bank(&grid, &template(), &BankOperatingPoint::gst(), 1.0);
        let hybrid = analyze_bank(&grid, &template(), &BankOperatingPoint::hybrid(), 1.0);
        let thermal = analyze_bank(&grid, &template(), &BankOperatingPoint::thermal(), 1.0);
        assert!(hybrid.effective_ratio <= thermal.effective_ratio);
        assert!(hybrid.effective_ratio >= gst.effective_ratio);
        assert!(hybrid.crosstalk_limited_bits >= thermal.crosstalk_limited_bits);
    }

    #[test]
    fn zero_ratio_is_infinite_sxr() {
        let op = BankOperatingPoint { tuner_crosstalk: 0.0, ..BankOperatingPoint::gst() };
        let r = CrosstalkReport::from_ratios(0.0, &op);
        assert!(r.sxr_db.is_infinite());
        assert_eq!(r.crosstalk_limited_bits, 16);
    }

    #[test]
    fn more_channels_more_crosstalk() {
        let op = BankOperatingPoint::gst();
        let small = analyze_bank(&WdmGrid::c_band(4), &template(), &op, 1.0);
        let large = analyze_bank(&WdmGrid::c_band(16), &template(), &op, 1.0);
        assert!(large.optical_ratio >= small.optical_ratio);
    }
}
