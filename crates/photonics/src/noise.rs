//! Receiver-noise physics.
//!
//! The optical receiver chain contributes two dominant current-noise
//! terms:
//!
//! * **shot noise** — photocurrent variance `2·q·I·B`,
//! * **thermal (input-referred TIA) noise** — a fixed current density
//!   `i_n` integrated over the receiver bandwidth `B`.
//!
//! [`NoiseModel`] holds only these σ physics; it draws nothing. The
//! processing element scales counter-addressed unit normals
//! (`trident_streams::seeded_gaussian`, stream `STREAM_RECEIVER_NOISE`)
//! by [`NoiseModel::total_rms_ma`], and the link budget reads the same σ
//! for its SNR.
//!
//! For milliwatt-scale rail powers these terms are small relative to the
//! signal, which is precisely why analog photonic MACs can reach 8-bit
//! accuracy; the tests in `crates/arch` verify that the end-to-end MVM
//! error stays below one 8-bit LSB with the default model.

use crate::units::PowerMw;

/// Electron charge in coulombs.
const Q_ELECTRON: f64 = 1.602_176_634e-19;

/// Receiver-chain parameters behind the shot- and thermal-noise σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Receiver bandwidth in hertz.
    pub bandwidth_hz: f64,
    /// Input-referred TIA current noise density in pA/√Hz.
    pub tia_noise_pa_sqrt_hz: f64,
    /// Photodiode responsivity used for shot-noise conversion, A/W.
    pub responsivity_a_w: f64,
}

impl Default for NoiseModel {
    /// The default receiver: 5 GHz bandwidth, 10 pA/√Hz TIA noise,
    /// 1 A/W.
    fn default() -> Self {
        Self { bandwidth_hz: 5e9, tia_noise_pa_sqrt_hz: 10.0, responsivity_a_w: 1.0 }
    }
}

impl NoiseModel {
    /// RMS shot-noise current (mA) for a given total detected power.
    pub fn shot_noise_rms_ma(&self, detected: PowerMw) -> f64 {
        let i_a = self.responsivity_a_w * detected.watts();
        (2.0 * Q_ELECTRON * i_a * self.bandwidth_hz).sqrt() * 1e3
    }

    /// RMS thermal (TIA input-referred) noise current in mA.
    pub fn thermal_noise_rms_ma(&self) -> f64 {
        self.tia_noise_pa_sqrt_hz * 1e-12 * self.bandwidth_hz.sqrt() * 1e3
    }

    /// RMS total receiver current noise (mA) for a given total optical
    /// power hitting the balanced pair: shot and thermal in quadrature.
    pub fn total_rms_ma(&self, detected: PowerMw) -> f64 {
        let shot = self.shot_noise_rms_ma(detected);
        let thermal = self.thermal_noise_rms_ma();
        (shot * shot + thermal * thermal).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_noise_grows_with_power() {
        let m = NoiseModel::default();
        assert!(m.shot_noise_rms_ma(PowerMw(10.0)) > m.shot_noise_rms_ma(PowerMw(1.0)));
        assert_eq!(m.shot_noise_rms_ma(PowerMw::ZERO), 0.0);
    }

    #[test]
    fn noise_is_small_relative_to_ma_signals() {
        // 1 mW on a 1 A/W diode gives 1 mA of signal; RMS noise should be
        // orders of magnitude below that.
        let total = NoiseModel::default().total_rms_ma(PowerMw(1.0));
        assert!(total < 1e-2, "rms noise {total} mA too large");
    }

    #[test]
    fn dark_receiver_is_thermal_limited() {
        let m = NoiseModel::default();
        assert_eq!(m.total_rms_ma(PowerMw::ZERO), m.thermal_noise_rms_ma());
    }
}
