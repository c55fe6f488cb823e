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
//!
//! Each operation has one entry point. The MVMs are GEMMs: `n` vectors
//! read the bank once and charge `n` symbols with one ledger lookup per
//! line, and one vector is a GEMM of one. Nothing allocates in steady
//! state: the MVMs and the activation write into caller buffers, the
//! outer product hands its products to the caller, and the signed MVM
//! stages its passes in buffers sized at construction for one vector,
//! which grow once to the largest batch they see. A symbol's read-probe
//! and receiver energies are fixed by the bank's shape, so they are
//! computed once, at construction. The row activation cells are the
//! stateless Fig. 3 transfer ([`ActivationCellParams::relu`]) on the pulse
//! energy: a cell fires and is reset within one pulse window, so each
//! firing bills one reset pulse and leaves nothing behind.

use crate::bank::{batch_shape, ProgramReport, WeightBank};
use crate::error::ArchError;
use crate::tile::TILE;
use trident_pcm::activation::ActivationCellParams;
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

/// The GST activation transfer `f(h)` of Fig. 3 in logit units: what the
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
    /// Every ring's read probe over one symbol, billed to `"mrr read"`.
    symbol_read: EnergyPj,
    /// Every row's BPD + TIA over one symbol (the traced `receiver_fj`).
    symbol_receiver: EnergyPj,
    /// A signed MVM's lane powers, a positive and a negative pass per
    /// vector (`cols` wide each).
    lanes: Vec<f64>,
    /// A signed MVM's detected products, one row per pass.
    passes: Vec<f64>,
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
        let symbol_time = modulator.symbol_time;
        let symbol_read = GstParameters::default().read_energy * (rows * cols) as f64
            * symbol_time.value()
            / PULSE_WINDOW.value();
        // Every row's BPD+TIA is live; summing per row keeps the bits.
        let tia = TransimpedanceAmplifier::default().power.for_duration(symbol_time);
        let symbol_receiver = (0..rows).fold(EnergyPj::ZERO, |acc, _| acc + tia);
        Self {
            bank,
            modulator,
            noise_seed,
            noise_draws: 0,
            energy: EnergyLedger::new(),
            elapsed: Nanoseconds(0.0),
            laser_droop: 0.0,
            symbol_read,
            symbol_receiver,
            lanes: Vec::with_capacity(2 * cols),
            passes: Vec::with_capacity(2 * rows),
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

    /// Unsigned optical MVM of `n` vectors in one read of the bank
    /// ([`WeightBank::mvm_into`]): `x` holds `n` rows of `cols` lane
    /// powers in `[0, 1]`, `y` (overwritten) `n` rows of the first
    /// `y.len() / n` rows' dot products. Each vector is one symbol.
    ///
    /// Bitwise `n` calls of one vector each: droop scales every output
    /// alike, receiver-noise draws are counter-addressed vector-major and
    /// row-minor with the counter advancing by the full bank height per
    /// vector (a row not kept is not drawn), and every ledger line gets
    /// the same constant adds in the same number.
    pub fn mvm_unsigned_into(&mut self, x: &[f64], y: &mut [f64]) {
        self.bank.mvm_into(x, y);
        let (rows, cols) = (self.rows(), self.cols());
        let n = x.len() / cols;
        if n == 0 {
            return;
        }
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
            let receiver = NoiseModel::default();
            let denom = self.bank.lut().scale();
            let kept = y.len() / n;
            for (v, (xv, yv)) in x.chunks_exact(cols).zip(y.chunks_exact_mut(kept)).enumerate() {
                let sigma = receiver.total_rms_ma(PowerMw(xv.iter().sum::<f64>()));
                let first = self.noise_draws + (v * rows) as u64;
                for (r, o) in yv.iter_mut().enumerate() {
                    let noise =
                        seeded_gaussian(seed, STREAM_RECEIVER_NOISE, first + r as u64) * sigma;
                    *o += noise / denom;
                }
            }
            self.noise_draws += (n * rows) as u64;
        }
        self.charge_symbols(cols, n);
    }

    /// Signed optical MVM of `n` vectors (shaped as in
    /// [`ProcessingElement::mvm_unsigned_into`]) via two passes per vector
    /// (positive and negative parts) and electronic subtraction. Inputs
    /// may have any magnitude; each vector is normalized onto the lasers
    /// by its largest magnitude and rescaled after detection. Every pass
    /// of every vector streams through one unsigned read, a vector's
    /// positive pass first, so receiver and read noise are drawn in the
    /// order `n` single-vector calls draw them. An all-zero vector reads
    /// zeros without a pass: it bills and draws nothing.
    pub fn mvm_signed_into(&mut self, x: &[f64], y: &mut [f64]) {
        let cols = self.cols();
        let (n, kept) = batch_shape(x.len(), y.len(), cols, self.rows());
        if n == 0 {
            return;
        }
        let mut lanes = std::mem::take(&mut self.lanes);
        lanes.clear();
        for xv in x.chunks_exact(cols) {
            let max = peak(xv);
            if max > 0.0 {
                lanes.extend(xv.iter().map(|&v| v.max(0.0) / max));
                lanes.extend(xv.iter().map(|&v| (-v).max(0.0) / max));
            }
        }
        let mut passes = std::mem::take(&mut self.passes);
        passes.clear();
        passes.resize(lanes.len() / cols * kept, 0.0);
        if !lanes.is_empty() {
            self.mvm_unsigned_into(&lanes, &mut passes);
        }
        let mut pairs = passes.chunks_exact(2 * kept);
        for (xv, yv) in x.chunks_exact(cols).zip(y.chunks_exact_mut(kept)) {
            let max = peak(xv);
            let pair = if max > 0.0 { pairs.next() } else { None };
            match pair {
                Some(pair) => {
                    let (pos, neg) = pair.split_at(kept);
                    for ((o, &p), &q) in yv.iter_mut().zip(pos).zip(neg) {
                        *o = (p - q) * max;
                    }
                }
                None => yv.fill(0.0),
            }
        }
        self.lanes = lanes;
        self.passes = passes;
    }

    /// Fire the GST activation cells of the first `h.len()` rows on
    /// logits `h`, writing the activations `y = f(h)` (the Fig. 3
    /// transfer) into `act`; every cell that fires bills one reset pulse
    /// to `"activation reset"`. The backward pass reads each row's
    /// `f'(h)` bit from the logit through [`spilled_hadamard`].
    pub fn latch_and_activate(&mut self, h: &[f64], act: &mut [f64]) {
        assert!(h.len() <= self.rows(), "more logits than rows");
        assert_eq!(act.len(), h.len(), "activation width mismatch");
        let cell = ActivationCellParams::default();
        let relu = cell.relu();
        let mut resets = EnergyPj::ZERO;
        for (a, &logit) in act.iter_mut().zip(h) {
            // Negative logits carry no optical power: dark pulse.
            let pulse = logit.max(0.0) * LOGIT_ENERGY_PJ;
            *a = relu.forward(pulse) / LOGIT_ENERGY_PJ;
            if relu.fires(pulse) {
                resets += cell.reset_energy;
            }
        }
        if resets.value() > 0.0 {
            self.energy.charge("activation reset", resets);
        }
    }

    /// Outer product `δh ⊗ y`: program the bank's first row with `y`,
    /// stream one `δh` element per symbol, read the per-wavelength ring
    /// products via the drop-bus demux, and hand each product
    /// `δh[i]·y[j]` to `add(i, j, product)`, row by row.
    ///
    /// Only row 0 is written, and only row 0 is read: each row has its own
    /// bus and detector, so rows 1.. keep their weights, cost no write
    /// energy or wear, and need no restore. The write is still one GST
    /// write event when it changes a cell.
    ///
    /// `y` entries must lie in `[-1, 1]` (they are weights) and at most
    /// one bank width of them fit; `δh` may have any magnitude (scalar
    /// per symbol — its sign and scale stay electronic).
    pub fn outer_product(
        &mut self,
        dh: &[f64],
        y: &[f64],
        mut add: impl FnMut(usize, usize, f64),
    ) {
        assert!(y.len() <= self.cols().min(TILE), "y wider than the bank");
        // Row 0 holds `y` zero-padded to the bank width: its rings beyond
        // `y` still attenuate the bus the readout sees.
        let (energy, time) =
            self.bank.program_cells(1, |_, c| if c < y.len() { y[c] } else { 0.0 });
        self.charge_write(energy, time);
        let mut readout = [0.0; TILE];
        let readout = &mut readout[..y.len()];
        self.bank.row_readouts(0, readout);
        self.charge_symbols(y.len(), dh.len());
        for (i, &d) in dh.iter().enumerate() {
            for (j, &w) in readout.iter().enumerate() {
                add(i, j, w * d);
            }
        }
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

    /// Charge `n` symbols on `active_channels` lasers: per symbol, the
    /// E/O encode to `"eo modulation"`, every ring's read probe to `"mrr
    /// read"`, and the symbol time to the PE clock; when tracing, the
    /// MAC, PCM-read and receiver counters. Each ledger line is looked up
    /// once and gets its constant charge `n` times, one add after
    /// another, so the bits are those of `n` single-symbol charges.
    fn charge_symbols(&mut self, active_channels: usize, n: usize) {
        let eo = self.modulator.encode_energy(active_channels);
        self.energy.charge_times("eo modulation", eo, n);
        self.energy.charge_times("mrr read", self.symbol_read, n);
        self.elapsed = self.elapsed_after(n);
        if obs::enabled() {
            let (rings, n) = ((self.rows() * self.cols()) as u64, n as u64);
            obs::add(obs::Counter::MacOps, rings * n);
            obs::add(obs::Counter::PcmReads, rings * n);
            let fj = obs::counter::fj_from_pj;
            obs::add(obs::Counter::PcmReadFj, fj(self.symbol_read.value()) * n);
            obs::add(obs::Counter::ReceiverFj, fj(self.symbol_receiver.value()) * n);
        }
    }

    /// The PE clock once `symbols` more symbols have streamed: the symbol
    /// time added one symbol at a time, as [`Self::charge_symbols`]
    /// advances it.
    pub(crate) fn elapsed_after(&self, symbols: usize) -> Nanoseconds {
        let mut t = self.elapsed;
        for _ in 0..symbols {
            t += self.modulator.symbol_time;
        }
        t
    }

    /// Energy ledger of everything this PE has done.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Simulated wall-clock time consumed.
    pub fn elapsed(&self) -> Nanoseconds {
        self.elapsed
    }

    /// Row readouts that have drawn receiver noise so far.
    #[cfg(test)]
    pub(crate) fn noise_draws(&self) -> u64 {
        self.noise_draws
    }
}

/// Largest magnitude of a signed vector: its laser normalisation.
fn peak(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe() -> ProcessingElement {
        ProcessingElement::new(4, 4, None)
    }

    fn unsigned(p: &mut ProcessingElement, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; p.rows()];
        p.mvm_unsigned_into(x, &mut y);
        y
    }

    fn activate(p: &mut ProcessingElement, h: &[f64]) -> Vec<f64> {
        let mut y = vec![f64::NAN; h.len()];
        p.latch_and_activate(h, &mut y);
        y
    }

    /// The reset energy billed so far, pJ.
    fn resets(p: &ProcessingElement) -> f64 {
        p.energy().get("activation reset").value()
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
        let y = unsigned(&mut p, &[1.0, 1.0, 0.5, 0.0]);
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
        let mut y = [0.0; 4];
        p.mvm_signed_into(&[-2.0, 3.0, 0.0, 0.0], &mut y);
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
        // Wider than the bank's 4 rows: no row count of one vector fits.
        let mut y = [0.0; 5];
        pe().mvm_signed_into(&[0.0; 4], &mut y);
    }

    #[test]
    fn activation_is_gst_relu() {
        let mut p = pe();
        let y = activate(&mut p, &[0.9, 0.2, -0.5, 0.43]);
        // h = 0.9 fires: 0.34 × (0.9 − 0.43) ≈ 0.16.
        assert!((y[0] - 0.34 * (0.9 - 0.43)).abs() < 1e-9);
        assert_eq!(y[1], 0.0, "0.2 is below the 0.43 threshold");
        assert_eq!(y[2], 0.0);
        assert_eq!(y[3], 0.0, "exactly at threshold fires with zero output");
        assert_eq!(resets(&p), 2000.0, "the two fired cells are reset");
    }

    #[test]
    fn subthreshold_logit_is_absorbed_without_a_reset() {
        let mut p = pe();
        assert_eq!(activate(&mut p, &[0.4299, 0.0, -3.0]), [0.0; 3]);
        assert_eq!(resets(&p), 0.0, "no cell fired, so none is reset");
    }

    #[test]
    fn threshold_logit_fires_with_zero_output_and_one_reset() {
        let mut p = pe();
        assert_eq!(activate(&mut p, &[LOGIT_THRESHOLD]), [0.0]);
        assert_eq!(resets(&p), 1000.0, "one 1 nJ recrystallization pulse");
    }

    #[test]
    fn suprathreshold_output_is_the_fig3_transfer_of_the_pulse() {
        let mut p = pe();
        let h = [0.9, 1.43, 0.5];
        let y = activate(&mut p, &h);
        for (&hv, &yv) in h.iter().zip(&y) {
            let pulse_pj = hv * LOGIT_ENERGY_PJ;
            let want = 0.34 * (pulse_pj - 430.0) / 1000.0;
            assert_eq!(yv.to_bits(), want.to_bits(), "h = {hv}");
        }
        assert_eq!(resets(&p), 3000.0, "one reset per firing");
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
        let mut m = [[f64::NAN; 4]; 3];
        p.outer_product(&dh, &y, |i, j, v| m[i][j] = v);
        for (i, row) in m.iter().enumerate() {
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
    fn outer_product_writes_only_the_row_it_reads() {
        let mut p = ProcessingElement::new(16, 16, None);
        let w: Vec<f64> = (0..256).map(|i| ((i % 17) as f64 / 8.5) - 1.0).collect();
        p.program(&w);
        // Weight readback and ring write count of every cell below row 0.
        let below = |p: &ProcessingElement| -> Vec<(u64, u64)> {
            let b = p.bank();
            let cell = |(r, c)| (b.weight(r, c).to_bits(), b.writes_at(r, c));
            (16..256).map(|i| cell((i / 16, i % 16))).collect()
        };
        let held = below(&p);
        let written = p.energy().get("gst write");
        let dh = [0.5, -1.5, 2.0];
        // One write event, then one symbol per δh element.
        let mut elapsed = p.elapsed();
        elapsed += GstParameters::default().write_time;
        for _ in 0..dh.len() {
            elapsed += p.modulator.symbol_time;
        }
        let y: Vec<f64> = (0..16).map(|j| (j as f64 - 7.5) / 8.0).collect();
        let mut m = [[f64::NAN; 16]; 3];
        p.outer_product(&dh, &y, |i, j, v| m[i][j] = v);
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let want = dh[i] * y[j];
                assert!((v - want).abs() < 0.1 * (1.0 + want.abs()), "({i},{j}): {v} vs {want}");
            }
        }
        assert_eq!(below(&p), held, "rows 1-15 keep their weights and their wear");
        assert_eq!(p.elapsed().value().to_bits(), elapsed.value().to_bits());
        assert!(p.energy().get("gst write").value() > written.value(), "row 0 was written");
    }

    #[test]
    fn energy_accounting_accumulates() {
        let mut p = pe();
        p.program(&[0.5; 16]);
        assert!(p.energy().get("gst write").value() > 0.0);
        unsigned(&mut p, &[0.5; 4]);
        assert!(p.energy().get("eo modulation").value() > 0.0);
        assert!(p.elapsed().value() > 0.0);
        activate(&mut p, &[1.0]);
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
        let yi = unsigned(&mut ideal, &x);
        let yn = unsigned(&mut noisy, &x);
        for r in 0..16 {
            // One 8-bit LSB of a 16-wide dot product full-scale (±16).
            assert!(
                (yi[r] - yn[r]).abs() < 16.0 * 2.0 / 254.0,
                "row {r}: noise pushed output beyond 8-bit scale"
            );
        }
    }
}
