//! One Trident processing element (Fig. 1 of the paper).
//!
//! A PE couples the optical weight bank to its electronic periphery: one
//! balanced photodetector + TIA + LDSU + E/O laser + GST activation cell
//! per row. The same hardware executes the three operating modes of
//! Table II:
//!
//! | device            | inference  | gradient vector          | outer product      |
//! |-------------------|------------|--------------------------|--------------------|
//! | input lasers      | `x_k`      | `δh_{k+1}`               | `δh_k`             |
//! | MRR weight bank   | `w_k`      | `W_{k+1}ᵀ`               | `y_{k-1}ᵀ`         |
//! | BPD output        | `w_k·x_k`  | `W_{k+1}ᵀ·δh_{k+1}`      | `δh_k·y_{k-1}ᵀ`    |
//! | TIA / E-O lasers  | `y`        | `⊙ f'(h_k)` (LDSU gain)  | amplify `δW_k`     |
//!
//! The simulator applies `⊙ f'(h_k)` with one rule, [`spilled_hadamard`],
//! on the `f'(h)` bit kept with its logit rather than as a TIA gain.
//!
//! Signed vectors (gradients) use two optical passes (positive and
//! negative parts) with electronic subtraction — optical power cannot be
//! negative. The outer-product mode programs the bank with `y`, streams
//! one `δh` element per symbol, and reads the per-wavelength products from
//! the drop bus through a WDM demux (this is the reading of Table II's
//! "utilize the entire weight bank and perform N outer products": all `N`
//! ring products of a `δW` row emerge in parallel, one row per symbol).

use crate::bank::{ProgramReport, WeightBank};
use crate::error::ArchError;
use trident_pcm::activation::{ActivationCellParams, GstActivationCell};
use trident_pcm::gst::{GstParameters, WriteVerifyPolicy, PULSE_WINDOW};
use trident_photonics::detector::TransimpedanceAmplifier;
use trident_photonics::laser::EoModulator;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::noise::NoiseModel;
use trident_photonics::units::{EnergyPj, Nanoseconds, PowerMw};
use trident_obs as obs;
use trident_streams::{seeded_gaussian, STREAM_RECEIVER_NOISE};

/// The three Table II operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeMode {
    /// Forward MAC + photonic activation.
    Inference,
    /// Backward gradient-vector product `δh_k = (W_{k+1}ᵀ δh_{k+1}) ⊙ f'(h_k)`.
    GradientVector,
    /// Weight-update outer product `δW_k = δh_k · y_{k-1}ᵀ`.
    OuterProduct,
}

impl PeMode {
    /// The Table II row for this mode:
    /// `(input lasers, MRR weight bank, BPD output, TIA/E-O lasers)`.
    pub fn device_mapping(&self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            PeMode::Inference => ("x_k", "w_k", "y_k = w_k x_k", "y"),
            PeMode::GradientVector => (
                "dh_{k+1}",
                "W_{k+1}^T",
                "dh_k = W_{k+1}^T * dh_{k+1}",
                "f'(h_k)",
            ),
            PeMode::OuterProduct => (
                "dh_k",
                "y_{k-1}^T",
                "dW_k = dh_k . y_{k-1}^T",
                "dW_k",
            ),
        }
    }
}

/// Normalized logit-to-pulse-energy scale: one logit unit = 1 nJ, so the
/// 430 pJ activation threshold sits at `h = 0.43`.
pub const LOGIT_ENERGY_PJ: f64 = 1000.0;

/// The activation cell's threshold in logit units.
pub const LOGIT_THRESHOLD: f64 = ActivationCellParams::THRESHOLD.0 / LOGIT_ENERGY_PJ;

/// Activation slope of the GST cell above threshold (Fig. 3).
pub const GST_SLOPE: f64 = ActivationCellParams::SLOPE;

/// The GST activation transfer `f(h)` of Fig. 3 in plain `f64`: what the
/// activation cells compute, for the digital twins.
pub fn gst_activation(h: f64) -> f64 {
    if h >= LOGIT_THRESHOLD {
        GST_SLOPE * (h - LOGIT_THRESHOLD)
    } else {
        0.0
    }
}

/// Hadamard of error `v` with the `f'(h)` bit of logit `h` (Eq. 3), the
/// one rule every backward path uses: MLP backprop and DFA, per sample or
/// batched, and the CNN's per-position bits. `spilled_hadamard(1.0, h)` is
/// `f'(h)` itself. The branch matters: `v * 0.0` would turn a negative
/// error into `-0.0`.
pub fn spilled_hadamard(v: f64, h: f64) -> f64 {
    if h >= LOGIT_THRESHOLD {
        v * GST_SLOPE
    } else {
        0.0
    }
}

/// One processing element.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    bank: WeightBank,
    activations: Vec<GstActivationCell>,
    modulator: EoModulator,
    /// Receiver-noise seed (`None` = ideal detectors); row readout `n`
    /// of this PE draws sample `n` of its receiver stream.
    noise_seed: Option<u64>,
    /// Row readouts that have drawn receiver noise so far.
    noise_draws: u64,
    energy: EnergyLedger,
    elapsed: Nanoseconds,
    /// Fractional loss of input laser power (0 = healthy source). An aged
    /// or degraded pump scales every detected product down uniformly.
    laser_droop: f64,
    /// One pass's lane powers of a signed MVM (`cols` wide), sized at
    /// construction.
    lanes: Vec<f64>,
    /// The negative pass's detected products of a signed MVM (`rows`
    /// wide), sized at construction.
    dark: Vec<f64>,
}

impl ProcessingElement {
    /// Build a PE with a `rows × cols` weight bank. `noise_seed: None`
    /// disables receiver noise (ideal devices).
    pub fn new(rows: usize, cols: usize, noise_seed: Option<u64>) -> Self {
        Self::with_variation(rows, cols, noise_seed, 0.0, 0)
    }

    /// Build a PE whose rings carry fabrication variation (Gaussian
    /// resonance offsets of `resonance_sigma_nm`) around a bank with
    /// device identity `identity` (see [`WeightBank::new_varied`]).
    pub fn with_variation(
        rows: usize,
        cols: usize,
        noise_seed: Option<u64>,
        resonance_sigma_nm: f64,
        identity: u64,
    ) -> Self {
        let bank = WeightBank::new_varied(
            rows,
            cols,
            GstParameters::default(),
            resonance_sigma_nm,
            identity,
        );
        let modulator = EoModulator::for_grid(bank.grid());
        Self {
            bank,
            activations: vec![
                GstActivationCell::new(ActivationCellParams::default());
                rows
            ],
            modulator,
            noise_seed,
            noise_draws: 0,
            energy: EnergyLedger::new(),
            elapsed: Nanoseconds(0.0),
            laser_droop: 0.0,
            lanes: vec![0.0; cols],
            dark: vec![0.0; rows],
        }
    }

    /// Bank rows.
    pub fn rows(&self) -> usize {
        self.bank.rows()
    }

    /// Bank columns.
    pub fn cols(&self) -> usize {
        self.bank.cols()
    }

    /// The underlying bank.
    pub fn bank(&self) -> &WeightBank {
        &self.bank
    }

    /// Mutable access to the bank — the fault-injection entry point.
    pub fn bank_mut(&mut self) -> &mut WeightBank {
        &mut self.bank
    }

    /// Degrade the PE's input laser by a fractional power `droop ∈ [0, 1)`
    /// (0 restores a healthy source).
    pub fn set_laser_droop(&mut self, droop: f64) {
        assert!((0.0..1.0).contains(&droop), "droop {droop} outside [0, 1)");
        self.laser_droop = droop;
    }

    /// Program the bank from a flat row-major matrix.
    pub fn program(&mut self, weights: &[f64]) {
        let (energy, time) = self.bank.program_flat(weights);
        self.charge_write(energy, time);
    }

    /// Fault-aware programming: route every weight through the bank's
    /// bounded-retry program-and-verify path, remapping or masking cells
    /// the hardware can no longer hold (see
    /// [`WeightBank::try_program_verified`]).
    pub fn program_verified(
        &mut self,
        weights: &[f64],
        policy: &WriteVerifyPolicy,
    ) -> Result<ProgramReport, ArchError> {
        let report = self.bank.try_program_verified(weights, policy)?;
        self.charge_write(report.energy, report.time);
        obs::add(obs::Counter::FaultRemapEvents, report.remapped as u64);
        obs::add(obs::Counter::FaultMaskEvents, report.masked as u64);
        Ok(report)
    }

    /// One drift-calibration pass on the bank
    /// ([`WeightBank::calibrate_compensation`]), its probe energy billed
    /// to `"drift calibration"`. Returns that energy.
    pub(crate) fn calibrate_drift(&mut self) -> EnergyPj {
        let spent = self.bank.calibrate_compensation();
        if spent.value() > 0.0 {
            self.energy.charge("drift calibration", spent);
        }
        spent
    }

    /// Unsigned optical MVM: `x[j] ∈ [0, 1]`, returns per-row dot products.
    pub fn mvm_unsigned(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mvm_unsigned_into(x, &mut y);
        y
    }

    /// [`ProcessingElement::mvm_unsigned`] into `y` (overwritten; one
    /// entry per row).
    pub fn mvm_unsigned_into(&mut self, x: &[f64], y: &mut [f64]) {
        // Deterministic `mvm` when the statistical layer is off.
        self.bank.mvm_stat_into(x, y);
        if self.laser_droop > 0.0 {
            // A drooped pump delivers less power on every channel; all
            // detected dot products shrink by the same factor.
            for v in y.iter_mut() {
                *v *= 1.0 - self.laser_droop;
            }
        }
        // Receiver noise, one draw per row: convert current noise to
        // normalized units via the 1 mW full-scale channel power and the
        // LUT scale.
        if let Some(seed) = self.noise_seed {
            let sigma = NoiseModel::default().total_rms_ma(PowerMw(x.iter().sum::<f64>()));
            let denom = self.bank.lut().scale();
            for v in y {
                let n = seeded_gaussian(seed, STREAM_RECEIVER_NOISE, self.noise_draws) * sigma;
                self.noise_draws += 1;
                *v += n / denom;
            }
        }
        self.charge_symbol(x.len());
    }

    /// Signed optical MVM via two passes (positive and negative parts)
    /// and electronic subtraction. Inputs may have any magnitude; they are
    /// normalized onto the lasers and rescaled after detection.
    pub fn mvm_signed(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mvm_signed_into(x, &mut y);
        y
    }

    /// [`ProcessingElement::mvm_signed`] into `y` (overwritten; one entry
    /// per row).
    pub fn mvm_signed_into(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols(), "input width mismatch");
        assert_eq!(y.len(), self.rows(), "output width mismatch");
        let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max == 0.0 {
            y.fill(0.0);
            return;
        }
        let mut lanes = std::mem::take(&mut self.lanes);
        let mut dark = std::mem::take(&mut self.dark);
        for (l, &v) in lanes.iter_mut().zip(x) {
            *l = v.max(0.0) / max;
        }
        self.mvm_unsigned_into(&lanes, y);
        for (l, &v) in lanes.iter_mut().zip(x) {
            *l = (-v).max(0.0) / max;
        }
        self.mvm_unsigned_into(&lanes, &mut dark);
        for (p, &n) in y.iter_mut().zip(&dark) {
            *p = (*p - n) * max;
        }
        self.lanes = lanes;
        self.dark = dark;
    }

    /// Fire the GST activation cells on logits `h`. Returns the
    /// activations `y = f(h)` (the Fig. 3 transfer); the backward pass
    /// reads each row's `f'(h)` bit from the logit through
    /// [`spilled_hadamard`].
    pub fn latch_and_activate(&mut self, h: &[f64]) -> Vec<f64> {
        assert!(h.len() <= self.rows(), "more logits than rows");
        let mut out = Vec::with_capacity(h.len());
        let mut reset_energy = EnergyPj::ZERO;
        for (r, &logit) in h.iter().enumerate() {
            // Negative logits carry no optical power: dark pulse.
            let pulse = EnergyPj(logit.max(0.0) * LOGIT_ENERGY_PJ);
            let fired = self.activations[r].apply(pulse);
            out.push(fired.value() / LOGIT_ENERGY_PJ);
            reset_energy += self.activations[r].reset();
        }
        if reset_energy.value() > 0.0 {
            self.energy.charge("activation reset", reset_energy);
        }
        out
    }

    /// Outer product `δh ⊗ y`: program the bank's first row with `y`,
    /// stream one `δh` element per symbol, read the per-wavelength ring
    /// products via the drop-bus demux.
    ///
    /// `y` entries must lie in `[-1, 1]` (they are weights); `δh` may have
    /// any magnitude (scalar per symbol — its sign and scale stay
    /// electronic).
    pub fn outer_product(&mut self, dh: &[f64], y: &[f64]) -> Vec<Vec<f64>> {
        assert!(y.len() <= self.cols(), "y wider than the bank");
        // Row 0 holds `y` zero-padded to the bank width; every other row
        // holds zeros.
        let (energy, time) = self
            .bank
            .program_cells(|r, c| if r == 0 && c < y.len() { y[c] } else { 0.0 });
        self.charge_write(energy, time);
        // Deterministic `ring_readout` when the statistical layer is off.
        let readout: Vec<f64> = (0..y.len()).map(|c| self.bank.ring_readout_stat(0, c)).collect();
        let mut out = Vec::with_capacity(dh.len());
        for &d in dh {
            self.charge_symbol(y.len());
            out.push(readout.iter().map(|&w| w * d).collect());
        }
        out
    }

    /// Charge one GST write: its energy to `"gst write"`, its time to the
    /// PE clock, and the PCM write counters. A write that changed no cell
    /// costs nothing.
    fn charge_write(&mut self, energy: EnergyPj, time: Nanoseconds) {
        if energy.value() > 0.0 {
            self.energy.charge("gst write", energy);
            self.elapsed += time;
            obs::add(obs::Counter::PcmWrites, 1);
            obs::add_pj(obs::Counter::PcmWriteFj, energy.value());
        }
    }

    fn charge_symbol(&mut self, active_channels: usize) {
        let symbol_time = self.modulator.symbol_time;
        self.energy
            .charge("eo modulation", self.modulator.encode_energy(active_channels));
        let read_energy = GstParameters::default().read_energy
            * (self.rows() * self.cols()) as f64
            * symbol_time.value()
            / PULSE_WINDOW.value();
        self.energy.charge("mrr read", read_energy);
        self.elapsed += symbol_time;
        if obs::enabled() {
            let rings = (self.rows() * self.cols()) as u64;
            obs::add(obs::Counter::MacOps, rings);
            obs::add(obs::Counter::PcmReads, rings);
            obs::add_pj(obs::Counter::PcmReadFj, read_energy.value());
            // Every row's BPD+TIA is live; summing per row keeps the bits.
            let tia = TransimpedanceAmplifier::default().power.for_duration(symbol_time);
            let receiver = (0..self.rows()).fold(EnergyPj::ZERO, |acc, _| acc + tia);
            obs::add_pj(obs::Counter::ReceiverFj, receiver.value());
        }
    }

    /// Energy ledger of everything this PE has done.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Simulated wall-clock time consumed.
    pub fn elapsed(&self) -> Nanoseconds {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe() -> ProcessingElement {
        ProcessingElement::new(4, 4, None)
    }

    #[test]
    fn table_ii_mappings_are_distinct() {
        let modes = [PeMode::Inference, PeMode::GradientVector, PeMode::OuterProduct];
        for m in modes {
            let (lasers, bank, bpd, tia) = m.device_mapping();
            assert!(!lasers.is_empty() && !bank.is_empty() && !bpd.is_empty() && !tia.is_empty());
        }
        assert_ne!(
            PeMode::Inference.device_mapping(),
            PeMode::GradientVector.device_mapping()
        );
    }

    #[test]
    fn unsigned_mvm_computes_dot_products() {
        let mut p = pe();
        p.program(&[
            0.5, 0.5, 0.0, 0.0, //
            -0.5, 0.5, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.25, 0.25, 0.25, 0.25,
        ]);
        let y = p.mvm_unsigned(&[1.0, 1.0, 0.5, 0.0]);
        let expected = [1.0, 0.0, 0.5, 0.625];
        for (r, (&got, &want)) in y.iter().zip(&expected).enumerate() {
            assert!((got - want).abs() < 0.05, "row {r}: {got} vs {want}");
        }
    }

    #[test]
    fn signed_mvm_handles_negative_and_large_inputs() {
        let mut p = pe();
        p.program(&[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.5, -0.5, 0.0, 0.0, //
            0.0, 0.0, 0.0, 0.0,
        ]);
        let y = p.mvm_signed(&[-2.0, 3.0, 0.0, 0.0]);
        assert!((y[0] + 2.0).abs() < 0.15, "row 0: {}", y[0]);
        assert!((y[1] - 3.0).abs() < 0.15, "row 1: {}", y[1]);
        assert!((y[2] + 2.5).abs() < 0.2, "row 2: {}", y[2]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn signed_mvm_rejects_an_all_zero_input_of_the_wrong_width() {
        let mut y = [0.0; 4];
        pe().mvm_signed_into(&[0.0; 3], &mut y);
    }

    #[test]
    #[should_panic(expected = "output width mismatch")]
    fn signed_mvm_rejects_an_all_zero_input_into_the_wrong_width() {
        let mut y = [0.0; 3];
        pe().mvm_signed_into(&[0.0; 4], &mut y);
    }

    #[test]
    fn activation_is_gst_relu() {
        let mut p = pe();
        let y = p.latch_and_activate(&[0.9, 0.2, -0.5, 0.43]);
        // h = 0.9 fires: 0.34 × (0.9 − 0.43) ≈ 0.16.
        assert!((y[0] - 0.34 * (0.9 - 0.43)).abs() < 1e-9);
        assert_eq!(y[1], 0.0, "0.2 is below the 0.43 threshold");
        assert_eq!(y[2], 0.0);
        assert!((y[3] - 0.0).abs() < 1e-9, "exactly at threshold fires with zero output");
    }

    #[test]
    fn spilled_hadamard_applies_the_derivative_bit() {
        let got: Vec<f64> = [(1.0, 0.9), (1.0, 0.1), (2.0, 0.9), (-2.0, 0.1)]
            .iter()
            .map(|&(v, h)| spilled_hadamard(v, h))
            .collect();
        assert!((got[0] - 0.34).abs() < 1e-9);
        assert_eq!(got[1], 0.0);
        assert!((got[2] - 0.68).abs() < 1e-9);
        // A blocked negative error is +0.0, never -0.0.
        assert_eq!(got[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn spilled_derivative_matches_gst_relu_semantics() {
        use trident_pcm::activation::GstRelu;
        let relu = GstRelu { threshold: LOGIT_THRESHOLD, slope: GST_SLOPE };
        for h in [-1.0, 0.0, 0.4299, LOGIT_THRESHOLD, 0.431, 10.0] {
            assert_eq!(spilled_hadamard(1.0, h), relu.derivative(h), "h = {h}");
        }
    }

    #[test]
    fn outer_product_matches_math() {
        let mut p = pe();
        let dh = [0.5, -1.5, 2.0];
        let y = [0.8, -0.4, 0.1, 0.9];
        let m = p.outer_product(&dh, &y);
        assert_eq!(m.len(), 3);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row.len(), 4);
            for (j, &v) in row.iter().enumerate() {
                let want = dh[i] * y[j];
                assert!(
                    (v - want).abs() < 0.1 * (1.0 + want.abs()),
                    "({i},{j}): {v} vs {want}"
                );
            }
        }
    }

    #[test]
    fn energy_accounting_accumulates() {
        let mut p = pe();
        p.program(&[0.5; 16]);
        assert!(p.energy().get("gst write").value() > 0.0);
        p.mvm_unsigned(&[0.5; 4]);
        assert!(p.energy().get("eo modulation").value() > 0.0);
        assert!(p.elapsed().value() > 0.0);
        p.latch_and_activate(&[1.0]);
        assert!(p.energy().get("activation reset").value() > 0.0);
    }

    #[test]
    fn noisy_pe_stays_accurate_to_8_bits() {
        let mut ideal = ProcessingElement::new(16, 16, None);
        let mut noisy = ProcessingElement::new(16, 16, Some(17));
        let weights: Vec<f64> = (0..256).map(|i| ((i % 17) as f64 / 8.5) - 1.0).collect();
        ideal.program(&weights);
        noisy.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let yi = ideal.mvm_unsigned(&x);
        let yn = noisy.mvm_unsigned(&x);
        for r in 0..16 {
            // One 8-bit LSB of a 16-wide dot product full-scale (±16).
            assert!(
                (yi[r] - yn[r]).abs() < 16.0 * 2.0 / 254.0,
                "row {r}: noise pushed output beyond 8-bit scale"
            );
        }
    }
}
