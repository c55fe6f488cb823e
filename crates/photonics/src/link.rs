//! Optical link-budget analysis.
//!
//! A PE row only works if enough laser power survives the path — splitter
//! → routing waveguide → ring bank → detector — to sit comfortably above
//! the receiver noise floor at the target resolution. The paper asserts
//! 8-bit analog operation; this module makes the assertion checkable:
//! [`LinkBudget::analyze`] walks the loss chain and reports the detected
//! power, the noise floor, and the resulting effective number of bits.

use crate::detector::Photodetector;
use crate::noise::NoiseModel;
use crate::units::PowerMw;
use crate::waveguide::{Splitter, Waveguide};

/// The loss chain from one laser to one row's detector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudget {
    /// Laser output per channel.
    pub laser_power: PowerMw,
    /// Distribution splitter across PE rows.
    pub splitter: Splitter,
    /// Routing from laser bank to the PE.
    pub routing: Waveguide,
    /// Worst-case bank transmission to the detector rail (a fully
    /// attenuating path still delivers the through rail; 0.3 is a
    /// conservative mid-weight figure).
    pub bank_transmission: f64,
    /// WDM channels summed on the row detector: the dot product's full
    /// scale is `channels ×` the per-channel power, which is what the
    /// output resolution is measured against.
    pub channels: usize,
    /// The detector at the end of the chain.
    pub detector: Photodetector,
}

/// The analysis result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkReport {
    /// Optical power reaching the detector, per channel.
    pub detected: PowerMw,
    /// Full-scale detected power across all channels.
    pub full_scale: PowerMw,
    /// Photocurrent (mA).
    pub photocurrent_ma: f64,
    /// RMS receiver noise current (mA).
    pub noise_rms_ma: f64,
    /// Signal-to-noise ratio (linear, current domain).
    pub snr: f64,
    /// Effective number of bits: `log2(SNR)`.
    pub enob: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        Self {
            laser_power: PowerMw(1.0),
            splitter: Splitter::new(16),
            routing: Waveguide::silicon(2_000.0),
            bank_transmission: 0.3,
            channels: 16,
            detector: Photodetector::default(),
        }
    }
}

impl LinkBudget {
    /// Walk the chain and report.
    pub fn analyze(&self, noise: &NoiseModel) -> LinkReport {
        assert!(
            (0.0..=1.0).contains(&self.bank_transmission),
            "bank transmission must be a fraction"
        );
        let after_split = self.laser_power * self.splitter.per_branch_transmission();
        let after_routing = after_split * self.routing.transmission();
        let detected = after_routing * self.bank_transmission;
        let full_scale = detected * self.channels;
        let photocurrent_ma = self.detector.photocurrent_ma(full_scale);
        let shot = noise.shot_noise_rms_ma(full_scale);
        let thermal = noise.thermal_noise_rms_ma();
        let noise_rms_ma = (shot * shot + thermal * thermal).sqrt();
        let snr = photocurrent_ma / noise_rms_ma.max(1e-18);
        LinkReport { detected, full_scale, photocurrent_ma, noise_rms_ma, snr, enob: snr.log2() }
    }

    /// Minimum laser power (mW) that still yields `bits` of resolution.
    pub fn required_laser_power(&self, bits: f64, noise: &NoiseModel) -> PowerMw {
        // Bisection over laser power; SNR is monotone in power.
        let (mut lo, mut hi) = (1e-6f64, 1e3f64);
        for _ in 0..80 {
            let mid = (lo * hi).sqrt();
            let report =
                LinkBudget { laser_power: PowerMw(mid), ..self.clone() }.analyze(noise);
            if report.enob >= bits {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        PowerMw(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Receiver noise integrated over a bandwidth matched to the ~350 MHz
    /// vector symbol rate (the NoiseModel default of 5 GHz is for the raw
    /// detector, not the matched receiver).
    fn matched_noise() -> NoiseModel {
        let mut n = NoiseModel::seeded(0);
        n.bandwidth_hz = 5e8;
        n
    }

    #[test]
    fn default_link_supports_8_bits() {
        // The paper's operating point — 1 mW channel lasers over a 16-row
        // PE — must close the link at 8 bits with margin.
        let report = LinkBudget::default().analyze(&matched_noise());
        assert!(
            report.enob > 8.0,
            "link ENOB {:.1} must exceed 8 bits (SNR {:.0})",
            report.enob,
            report.snr
        );
        assert!(report.detected.value() < 1.0, "the chain must lose power");
        assert!(report.detected.value() > 1e-4, "but not all of it");
    }

    #[test]
    fn more_rows_burn_more_margin() {
        let noise = matched_noise();
        let small = LinkBudget { splitter: Splitter::new(4), ..Default::default() };
        let large = LinkBudget { splitter: Splitter::new(64), ..Default::default() };
        assert!(small.analyze(&noise).enob > large.analyze(&noise).enob);
    }

    #[test]
    fn required_power_is_monotone_in_bits() {
        let noise = matched_noise();
        let link = LinkBudget::default();
        let p6 = link.required_laser_power(6.0, &noise);
        let p8 = link.required_laser_power(8.0, &noise);
        let p10 = link.required_laser_power(10.0, &noise);
        assert!(p6.value() < p8.value());
        assert!(p8.value() < p10.value());
        // And the 8-bit requirement is below the 1 mW operating point.
        assert!(p8.value() < 1.0, "8-bit needs {} mW", p8.value());
    }

    #[test]
    fn required_power_round_trips() {
        let noise = matched_noise();
        let link = LinkBudget::default();
        let p = link.required_laser_power(8.0, &noise);
        let check = LinkBudget { laser_power: p, ..link }.analyze(&noise);
        assert!(check.enob >= 8.0 - 0.01, "round-trip ENOB {}", check.enob);
    }

    #[test]
    fn longer_routing_reduces_snr() {
        let noise = matched_noise();
        let short = LinkBudget { routing: Waveguide::silicon(100.0), ..Default::default() };
        let long = LinkBudget { routing: Waveguide::silicon(50_000.0), ..Default::default() };
        assert!(short.analyze(&noise).snr > long.analyze(&noise).snr);
    }
}
