//! The functional PCM-MRR weight bank.
//!
//! A J×N array of GST-loaded add-drop rings on one WDM bus per row
//! (Fig. 1 of the paper). Programming writes each ring's GST cell through
//! the calibrated [`WeightLut`]; a matrix-vector product is then literally
//! the steady-state optics: every input channel propagates down each row,
//! each ring drops its own channel in proportion to its weight, the drop
//! and through rails accumulate, and the balanced detector reads the
//! signed sum.
//!
//! Optics is linear in power, so the bank caches its **linear response**:
//! one net read coefficient `D[r][j] − T[r][j]` per slot (drop minus
//! through power reaching the balanced rails from channel `j` of row `r`,
//! including upstream ring attenuation and inter-channel crosstalk),
//! stored transposed, `[channel][row]`, each channel's rows padded with
//! zeros to whole 16-row chunks. With the statistical layer on, a
//! second table of the same shape holds each slot's coefficient with its
//! programming error and drift factor applied. An MVM is one cached
//! mat-vec, read row-parallel: every row of a 16-row chunk keeps its
//! accumulator in flight while the channels stream past in ascending
//! order, so each row sums exactly the terms, in exactly the order, of a
//! one-row-at-a-time dot product.
//!
//! A bank write costs what it physically changes. Each ring's transfer on
//! each channel factors into a per-channel term, `sin(φ/2)` of its
//! detuning, and a per-ring term, the round-trip amplitude `a`
//! ([`AddDropMrr::transfer_at`]). The sine table depends only on where
//! the rings resonate, so it is computed when the bank is built (and,
//! with fabrication variation, when a ring is remapped onto a spare) and
//! never again; a GST write refreshes one amplitude. Without variation,
//! ring `k` of every row resonates on channel `k`, so one nominal
//! `cols·cols` table serves every row and every nominal spare; a bank
//! built with variation keeps a per-ring `rows·cols·cols` table.
//!
//! A row's response reads only that row's rings, so programming re-derives
//! the coefficients of the rows whose rings changed and leaves the others
//! alone.
//! The refresh walks the rings in order with every channel of the row in
//! flight at once: each channel still accumulates its rings in ascending
//! order with the same operations, so the result is bitwise that of the
//! one-channel-at-a-time sweep, but the per-channel divides are
//! independent and pipeline.
//!
//! Each slot also remembers the last weight it accepted. Re-requesting
//! that exact weight is a proven no-op (the cell still sits at the level
//! the LUT maps it to), so programming skips the cell without a LUT
//! search; aging, fault injection, remapping and the verified write path
//! forget the memo for the cells they touch. A token append that
//! re-bands a 16×16 tile therefore pays for the cells it changes.
//!
//! The calibrated [`WeightLut`] is shared by every bank with the same ring
//! design and GST recipe ([`WeightLut::shared`]), so it is calibrated once
//! per parameter set, not once per bank.

use crate::error::ArchError;
use std::sync::Arc;
use trident_obs as obs;
use trident_pcm::gst::{GstFault, GstParameters, WriteVerifyPolicy};
use trident_pcm::stat::{DegradationClock, StatParams};
use trident_pcm::weight::{PcmMrr, WeightLut};
use trident_pcm::PcmError;
use trident_photonics::mrr::{AddDropMrr, MrrGeometry};
use trident_photonics::units::{EnergyPj, Hours, Nanoseconds};
use trident_photonics::wdm::WdmGrid;
use trident_streams::{
    member_identity, seeded_gaussian, STREAM_DEVICE_RESONANCE, STREAM_PCM_NU, STREAM_PCM_PROG,
    STREAM_PCM_READ,
};

/// Spare rings fabricated alongside each row for wear-leveling remap
/// (12.5% redundancy on the paper's 16-wide banks).
pub const DEFAULT_SPARES_PER_ROW: usize = 2;

/// The write memo of a slot that holds no known weight. No accepted
/// weight is NaN, so [`WeightBank::holds`] treats any NaN memo as
/// unmatchable: such a slot always takes the full write path (and its
/// range check), a NaN request included.
const UNHELD: f64 = f64::NAN;

/// Channels a row refresh, or rows a read, keeps in flight at once (the
/// paper's bank width; wider banks work in chunks of this many).
const LANES: usize = 16;

/// Accounting record of one fault-aware bank programming event
/// (the closed-loop [`WeightBank::try_program_verified`] path).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// Total optical energy spent (write pulses + verify read-backs).
    pub energy: EnergyPj,
    /// Wall-clock time: rings program in parallel, so this is the longest
    /// single-cell retry sequence.
    pub time: Nanoseconds,
    /// Write pulses summed over all cells.
    pub pulses: u64,
    /// Cells whose state actually changed.
    pub cells_written: usize,
    /// Cells that needed more than one pulse to verify.
    pub retried_cells: usize,
    /// Cells remapped onto a spare ring during this event.
    pub remapped: usize,
    /// Cells masked out (dead, no spare left) during this event.
    pub masked: usize,
    /// Per-cell failures absorbed by masking: `(row, col, cause)`.
    pub failures: Vec<(usize, usize, PcmError)>,
}

/// A J×N PCM-MRR weight bank.
///
/// ```
/// use trident_arch::bank::WeightBank;
/// use trident_pcm::gst::GstParameters;
///
/// let mut bank = WeightBank::new(2, 2, GstParameters::default());
/// bank.program_flat(&[0.5, -0.5, 1.0, 0.0]);    // optical writes
/// let y = bank.mvm(&[1.0, 1.0]);                // optical dot products
/// assert!((y[0] - 0.0).abs() < 0.05);
/// assert!((y[1] - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct WeightBank {
    rows: usize,
    cols: usize,
    grid: WdmGrid,
    /// The calibration shared by every bank of this design and recipe.
    lut: Arc<WeightLut>,
    rings: Vec<PcmMrr>,
    /// The ring design, kept so spares can be minted on demand.
    geometry: MrrGeometry,
    /// The GST recipe, kept for the same reason.
    params: GstParameters,
    /// Electronically masked (dead) slots: the balanced receiver cancels
    /// the slot's channel for this row, so it contributes zero weight.
    masked: Vec<bool>,
    /// Spare rings still available per row for wear-leveling remap.
    spares: Vec<usize>,
    /// Faulty/worn cells replaced by a spare so far.
    remapped: u64,
    /// The bank's device identity, unique within its chip and fixed at
    /// construction: it addresses the fabrication offsets, the fault
    /// sampling, and (through [`member_identity`]) every cell's
    /// write-verify jitter.
    identity: u64,
    /// Device identity of the physical cell at each slot: ring `i` of
    /// the original bank is member `i` of the bank's identity, the `n`-th
    /// spare remapped in is member `rows·cols + n`.
    cell_identity: Vec<u64>,
    /// Whether the rings carry fabrication variation, so each needs its
    /// own detuning row in `half_sin`.
    varied: bool,
    /// `sin(φ/2)` of a ring's detuning from each channel: `[ring][channel]`
    /// shared by every row of an unvaried bank, `[row][ring][channel]`
    /// with variation. Set where a ring's resonance is fixed:
    /// construction and, with variation, remap.
    half_sin: Vec<f64>,
    /// The last weight each slot accepted through the open-loop write
    /// path, or [`UNHELD`] once anything else changed the cell.
    held: Vec<f64>,
    /// Net round-trip amplitude per ring, `[row][ring]`; refreshed on
    /// every change of the ring's GST state.
    round_trip: Vec<f64>,
    /// Cached net rail response `D − T` per slot, transposed
    /// `[channel][row]` (rows padded by [`read_stride`]) so a read
    /// streams each channel's rows contiguously; zero for a masked slot.
    /// Refreshed by [`Self::recompute_row`].
    net_coeff: Vec<f64>,
    /// The bank's single simulated-deployment-time source: both the
    /// deterministic relaxation law and the statistical drift model read
    /// elapsed time from here, so time can never advance two ways.
    clock: DegradationClock,
    /// The statistical device layer. `None` (the default) keeps the bank
    /// exactly deterministic — no draws, no extra arithmetic.
    stat: Option<BankStat>,
}

/// Per-bank state of the statistical device model: seeded per-cell drift
/// exponents, the last programming error and write time of every slot,
/// the cached decay factors, and the calibration gain. No RNG object is
/// stored — every draw is addressed by `(bank_seed, stream, counter)`
/// through [`seeded_gaussian`], which keeps the noise bitwise
/// reproducible.
#[derive(Debug, Clone)]
struct BankStat {
    params: StatParams,
    bank_seed: u64,
    /// Per-slot drift exponent ν_i ≥ ν̄ (half-normal above the floor).
    nu: Vec<f64>,
    /// Post-verify programming error per slot, weight units.
    prog_offset: Vec<f64>,
    /// Deployment time of each slot's last successful write.
    prog_at: Vec<Hours>,
    /// Cached decay factor per slot at the clock's current time.
    factor: Vec<f64>,
    /// The read coefficient `((D − T) + δ·scale) · f` per slot, transposed
    /// `[channel][row]` like the bank's `net_coeff`; zero for a masked
    /// slot. Refreshed wherever an input changes: a row's response, the
    /// decay factors, and enabling the layer.
    read_coeff: Vec<f64>,
    /// Global scale-calibration gain from the last reference-column read.
    gain: f64,
    /// Deployment time of the reference column's last rewrite (it is
    /// refreshed alongside every programming event, so this is the
    /// bank's *youngest* programming age — the safety bound).
    ref_prog_at: Hours,
    prog_draws: u64,
    read_draws: u64,
}

impl WeightBank {
    /// Build a bank of `rows × cols` rings; column `j` of every row is
    /// resonant on WDM channel `j`.
    pub fn new(rows: usize, cols: usize, params: GstParameters) -> Self {
        Self::new_varied(rows, cols, params, 0.0, 0)
    }

    /// Build a bank whose rings carry **fabrication variation**: each
    /// ring's as-built resonance deviates from its channel by a Gaussian
    /// offset of standard deviation `resonance_sigma_nm`. The weight LUT
    /// is calibrated on the *nominal* design (no per-device trimming),
    /// so deployed weights land slightly wrong — the §I mismatch between
    /// digitally trained and physically implemented weights that
    /// motivates unified in-situ training.
    ///
    /// `identity` is the bank's device identity (unique within its
    /// chip): ring `i`'s offset is draw `i` of its resonance stream.
    pub fn new_varied(
        rows: usize,
        cols: usize,
        params: GstParameters,
        resonance_sigma_nm: f64,
        identity: u64,
    ) -> Self {
        assert!(rows >= 1 && cols >= 1, "bank needs at least one ring");
        assert!(resonance_sigma_nm >= 0.0, "sigma cannot be negative");
        let grid = WdmGrid::c_band(cols);
        let geometry = MrrGeometry::weight_bank();
        let lut = WeightLut::shared(&params);
        let rings = (0..rows * cols)
            .map(|i| {
                let offset = if resonance_sigma_nm > 0.0 {
                    seeded_gaussian(identity, STREAM_DEVICE_RESONANCE, i as u64)
                        * resonance_sigma_nm
                } else {
                    0.0
                };
                let resonance = grid.channel(i % cols).shifted_nm(offset);
                PcmMrr::new(AddDropMrr::new(geometry, resonance), params)
            })
            .collect();
        let varied = resonance_sigma_nm > 0.0;
        let tabled_rings = if varied { rows * cols } else { cols };
        let mut bank = Self {
            rows,
            cols,
            grid,
            lut,
            rings,
            geometry,
            params,
            masked: vec![false; rows * cols],
            spares: vec![DEFAULT_SPARES_PER_ROW; rows],
            remapped: 0,
            identity,
            cell_identity: (0..rows * cols).map(|i| member_identity(identity, i as u64)).collect(),
            varied,
            half_sin: vec![0.0; tabled_rings * cols],
            held: vec![UNHELD; rows * cols],
            round_trip: vec![0.0; rows * cols],
            net_coeff: vec![0.0; read_stride(rows) * cols],
            clock: DegradationClock::new(),
            stat: None,
        };
        // Row 0's rings fill the nominal table; a varied bank tables all.
        for idx in 0..tabled_rings {
            bank.refresh_half_sin(idx);
        }
        for idx in 0..rows * cols {
            bank.refresh_round_trip(idx);
        }
        bank.recompute_response();
        bank
    }

    /// Ring `idx`'s row of the detuning table.
    fn half_sin_slot(&self, idx: usize) -> usize {
        if self.varied {
            idx
        } else {
            idx % self.cols
        }
    }

    /// `sin(φ/2)` of ring `idx`'s detuning from every channel.
    #[inline]
    fn half_sin_of(&self, idx: usize) -> &[f64] {
        let at = self.half_sin_slot(idx) * self.cols;
        &self.half_sin[at..at + self.cols]
    }

    /// Re-derive ring `idx`'s detuning factor on every channel (its
    /// resonance is new).
    fn refresh_half_sin(&mut self, idx: usize) {
        let ring = *self.rings[idx].ring();
        let at = self.half_sin_slot(idx) * self.cols;
        for j in 0..self.cols {
            self.half_sin[at + j] = ring.half_phase_sin_factor(self.grid.channel(j));
        }
    }

    /// Whether slot `idx` already holds exactly `w` from an accepted
    /// write. An accepted weight lies in `[-1, 1]`, so a NaN memo is
    /// always [`UNHELD`] and never matches, whatever the request's bits.
    #[inline]
    fn holds(&self, idx: usize, w: f64) -> bool {
        let held = self.held[idx];
        !held.is_nan() && held.to_bits() == w.to_bits()
    }

    /// Forget slot `idx`'s write memo: its cell changed outside the
    /// open-loop write path.
    fn forget(&mut self, idx: usize) {
        self.held[idx] = UNHELD;
    }

    /// Forget every slot's write memo, so the next program call sends
    /// every cell down the full write path.
    #[cfg(test)]
    fn forget_all(&mut self) {
        self.held.fill(UNHELD);
    }

    /// Re-derive ring `idx`'s round-trip amplitude (its GST state is new).
    fn refresh_round_trip(&mut self, idx: usize) {
        self.round_trip[idx] = self.rings[idx].round_trip_amplitude();
    }

    /// `(drop, through)` of ring `idx` on channel `j`. A masked (dead)
    /// ring is heater-detuned far off the bus: transparent on every
    /// channel, contributing neither drop power nor crosstalk.
    #[inline]
    fn port(&self, idx: usize, j: usize) -> (f64, f64) {
        if self.masked[idx] {
            return (0.0, 1.0);
        }
        let t = self.rings[idx]
            .ring()
            .transfer_at(self.round_trip[idx], self.half_sin_of(idx)[j]);
        (t.drop, t.through)
    }

    /// Bank rows (J).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bank columns (N).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The calibration table in use.
    #[inline]
    pub fn lut(&self) -> &WeightLut {
        &self.lut
    }

    /// The channel plan.
    #[inline]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    fn ring(&self, r: usize, c: usize) -> &PcmMrr {
        &self.rings[r * self.cols + c]
    }

    /// Program the whole bank from a flat row-major `rows × cols` weight
    /// matrix (entries in `[-1, 1]`). All rings program in parallel
    /// optically, so wall-clock cost is one write time when anything
    /// changed. Returns `(energy, time)` spent.
    ///
    /// This is the fast open-loop path (one ideal calibrated pulse per
    /// cell). Masked slots are skipped; writes rejected by stuck or worn
    /// cells are dropped and tallied in [`WeightBank::write_failures`] —
    /// the stuck weight simply stays on the bus. The closed-loop,
    /// remapping path is [`WeightBank::try_program_verified`].
    ///
    /// # Panics
    /// Panics on a size mismatch or out-of-range weights (caller bugs).
    pub fn program_flat(&mut self, weights: &[f64]) -> (EnergyPj, Nanoseconds) {
        assert_eq!(weights.len(), self.rows * self.cols, "matrix size mismatch");
        let cols = self.cols;
        self.program_cells(|r, c| weights[r * cols + c])
    }

    /// The open-loop write sweep behind [`WeightBank::program_flat`], reading
    /// the weight of cell `(r, c)` from `weight` (the caller has checked
    /// the shape). A cell asked for the weight it last accepted is a
    /// write no-op and is skipped without a LUT search. Each row whose
    /// rings changed re-derives its response at the end of its own write
    /// loop.
    pub(crate) fn program_cells(
        &mut self,
        weight: impl Fn(usize, usize) -> f64,
    ) -> (EnergyPj, Nanoseconds) {
        let mut spent = EnergyPj::ZERO;
        for r in 0..self.rows {
            let mut dirty = false;
            for c in 0..self.cols {
                let idx = r * self.cols + c;
                if self.masked[idx] {
                    continue;
                }
                let w = weight(r, c);
                if self.holds(idx, w) {
                    continue;
                }
                match self.rings[idx].try_set_weight(w, &self.lut) {
                    Ok(e) => {
                        self.held[idx] = w;
                        if e.value() > 0.0 {
                            spent += e;
                            dirty = true;
                            self.refresh_round_trip(idx);
                            self.stat_on_write(idx, w);
                        }
                    }
                    Err(e @ PcmError::WeightOutOfRange(_)) => panic!("{e}"),
                    // Stuck or worn cells reject the write; the failure is
                    // tallied on the ring and the old state stays active.
                    Err(_) => {}
                }
            }
            if dirty {
                self.recompute_row(r);
            }
        }
        let time = if spent.value() > 0.0 {
            self.rings[0].cell().params().write_time
        } else {
            Nanoseconds(0.0)
        };
        (spent, time)
    }

    /// The weight currently programmed at `(r, c)` (quantized readback).
    /// Masked slots read as zero — their channel is cancelled.
    pub fn weight(&self, r: usize, c: usize) -> f64 {
        if self.masked[r * self.cols + c] {
            return 0.0;
        }
        self.ring(r, c).weight(&self.lut)
    }

    /// Fault-aware closed-loop programming: every changed cell goes
    /// through the bounded-retry program-and-verify write sequence
    /// ([`PcmMrr::set_weight_verified`]), and the bank degrades gracefully
    /// around cells that cannot hold their weight:
    ///
    /// 1. **wear-leveling** — a cell too worn to guarantee a full retry
    ///    budget is retired *before* it can fail mid-write and its slot is
    ///    remapped onto one of the row's spare rings;
    /// 2. **remap on failure** — stuck or verify-failed cells likewise
    ///    move to a spare;
    /// 3. **mask as last resort** — with the row's spares exhausted the
    ///    slot is detuned off the bus and its channel cancelled at the
    ///    receiver (zero weight), with the cause recorded in
    ///    [`ProgramReport::failures`].
    ///
    /// Only caller bugs (wrong shape, non-finite weights) return `Err`;
    /// device trouble is absorbed into the report.
    pub fn try_program_verified(
        &mut self,
        weights: &[f64],
        policy: &WriteVerifyPolicy,
    ) -> Result<ProgramReport, ArchError> {
        if weights.len() != self.rows * self.cols {
            return Err(ArchError::ShapeMismatch {
                expected: self.rows * self.cols,
                got: weights.len(),
            });
        }
        let mut report = ProgramReport {
            energy: EnergyPj::ZERO,
            time: Nanoseconds(0.0),
            pulses: 0,
            cells_written: 0,
            retried_cells: 0,
            remapped: 0,
            masked: 0,
            failures: Vec::new(),
        };
        let mut changed = false;
        for r in 0..self.rows {
            let mut dirty = false;
            for c in 0..self.cols {
                let idx = r * self.cols + c;
                if self.masked[idx] {
                    continue; // dead slot: its weight is lost to masking
                }
                let w = weights[idx];
                // Wear-leveling: retire a cell that can no longer afford a
                // worst-case retry sequence, so verified writes never run
                // a cell past its endurance budget.
                let remaining = self.rings[idx].cell().endurance_remaining();
                if remaining < u64::from(policy.max_attempts) {
                    dirty = true;
                    if self.remap_slot(r, c).is_ok() {
                        report.remapped += 1;
                    } else {
                        let cell = self.rings[idx].cell();
                        report.failures.push((
                            r,
                            c,
                            PcmError::WornOut {
                                writes: cell.write_count(),
                                endurance: cell.params().endurance_cycles,
                            },
                        ));
                        self.masked[idx] = true;
                        report.masked += 1;
                        continue;
                    }
                }
                match self.write_slot_verified(r, c, w, policy, &mut report) {
                    Ok(wrote) => dirty |= wrote,
                    Err(e) => return Err(e),
                }
            }
            if dirty {
                self.recompute_row(r);
                changed = true;
            }
        }
        let time = if changed {
            report.time
        } else {
            Nanoseconds(0.0)
        };
        report.time = time;
        Ok(report)
    }

    /// One cell of the verified programming sweep: write, and on device
    /// failure remap to a spare (retrying once on the fresh ring) or mask.
    fn write_slot_verified(
        &mut self,
        r: usize,
        c: usize,
        w: f64,
        policy: &WriteVerifyPolicy,
        report: &mut ProgramReport,
    ) -> Result<bool, ArchError> {
        let idx = r * self.cols + c;
        // A verified write lands within tolerance, not on the exact
        // calibrated state the memo vouches for.
        self.forget(idx);
        let mut remapped_retry = false;
        loop {
            let cell = self.cell_identity[idx];
            match self.rings[idx].set_weight_verified(w, &self.lut, policy, cell) {
                Ok(wr) => {
                    report.energy += wr.energy;
                    if wr.time.value() > report.time.value() {
                        report.time = wr.time;
                    }
                    report.pulses += u64::from(wr.pulses);
                    if wr.pulses > 0 {
                        report.cells_written += 1;
                        if wr.pulses > 1 {
                            report.retried_cells += 1;
                        }
                        self.refresh_round_trip(idx);
                        self.stat_on_write(idx, w);
                        return Ok(true);
                    }
                    return Ok(remapped_retry);
                }
                Err(
                    e @ (PcmError::StuckCell { .. }
                    | PcmError::WriteVerifyFailed { .. }
                    | PcmError::WornOut { .. }),
                ) => {
                    if !remapped_retry && self.remap_slot(r, c).is_ok() {
                        report.remapped += 1;
                        remapped_retry = true;
                        continue; // retry once on the fresh spare
                    }
                    report.failures.push((r, c, e));
                    self.masked[idx] = true;
                    report.masked += 1;
                    return Ok(true);
                }
                // Out-of-range weights etc. are caller bugs, not faults.
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Replace the ring at `(r, c)` with one of the row's spares (a fresh
    /// nominal ring heater-trimmed onto the slot's channel). Does not
    /// recompute the row's response — callers batch that.
    fn remap_slot(&mut self, r: usize, c: usize) -> Result<(), ArchError> {
        if self.spares[r] == 0 {
            return Err(ArchError::SparesExhausted { row: r, col: c });
        }
        self.spares[r] -= 1;
        let idx = r * self.cols + c;
        let spare = (self.rows * self.cols) as u64 + self.remapped;
        self.remapped += 1;
        self.rings[idx] =
            PcmMrr::new(AddDropMrr::new(self.geometry, self.grid.channel(c)), self.params);
        self.cell_identity[idx] = member_identity(self.identity, spare);
        self.masked[idx] = false;
        self.forget(idx);
        // A nominal spare resonates exactly where the unvaried bank's
        // shared table says ring `c` does.
        if self.varied {
            self.refresh_half_sin(idx);
        }
        self.refresh_round_trip(idx);
        Ok(())
    }

    /// Remap the ring at `(r, c)` onto a spare and refresh the optics.
    pub fn remap_ring(&mut self, r: usize, c: usize) -> Result<(), ArchError> {
        self.remap_slot(r, c)?;
        self.recompute_row(r);
        Ok(())
    }

    /// Mask the slot at `(r, c)` as dead: the ring is detuned off the bus
    /// and the receiver cancels its channel for this row (zero weight).
    pub fn mask_ring(&mut self, r: usize, c: usize) {
        self.masked[r * self.cols + c] = true;
        self.recompute_row(r);
    }

    /// Pin the GST cell at `(r, c)` in a hard fault state and refresh the
    /// optics (the cell's transfer snaps to the stuck phase).
    pub fn inject_ring_fault(&mut self, r: usize, c: usize, fault: GstFault) {
        let idx = r * self.cols + c;
        self.rings[idx].inject_fault(fault);
        self.forget(idx);
        self.refresh_round_trip(idx);
        self.recompute_row(r);
    }

    /// Advance simulated deployment time by `years` and apply the active
    /// degradation law (deterministic crystallinity relaxation, or the
    /// statistical power-law drift when [`WeightBank::enable_stat`] has
    /// been called).
    ///
    /// The deterministic path receives `years` exactly as given — no
    /// hours round-trip — so legacy fault-plan arithmetic stays
    /// byte-identical.
    pub fn advance_years(&mut self, years: f64) {
        self.clock.advance(Hours::from_years(years));
        if self.stat.is_some() {
            self.refresh_drift_factors();
        } else {
            self.relax_cells(years);
        }
    }

    /// Advance simulated deployment time by `delta` hours (the
    /// statistical model's native scale) and apply the active
    /// degradation law.
    pub fn advance_hours(&mut self, delta: Hours) {
        self.clock.advance(delta);
        if self.stat.is_some() {
            self.refresh_drift_factors();
        } else {
            self.relax_cells(delta.years());
        }
    }

    /// The deterministic structural-relaxation law over every cell (the
    /// legacy `age` body — reached only through the clock now).
    fn relax_cells(&mut self, years: f64) {
        for ring in &mut self.rings {
            ring.age(years);
        }
        self.held.fill(UNHELD);
        for idx in 0..self.rings.len() {
            self.refresh_round_trip(idx);
        }
        self.recompute_response();
    }

    /// Switch on the statistical device layer: seeded per-cell drift
    /// exponents (half-normal above the fleet floor ν̄), level-dependent
    /// programming noise on every subsequent successful write, per-probe
    /// read noise, and power-law decay of each slot's effective weight
    /// since its last write. Cells keep their programmed crystallinity —
    /// the statistical layer acts on the readout, so disabling it (or
    /// zeroing every σ and ν) recovers the deterministic bank exactly.
    pub fn enable_stat(&mut self, params: StatParams, bank_seed: u64) {
        let n = self.rows * self.cols;
        let now = self.clock.now();
        let nu = (0..n)
            .map(|i| params.nu_slope(seeded_gaussian(bank_seed, STREAM_PCM_NU, i as u64)))
            .collect();
        self.stat = Some(BankStat {
            params,
            bank_seed,
            nu,
            prog_offset: vec![0.0; n],
            prog_at: vec![now; n],
            factor: vec![1.0; n],
            read_coeff: vec![0.0; read_stride(self.rows) * self.cols],
            gain: 1.0,
            ref_prog_at: now,
            prog_draws: 0,
            read_draws: 0,
        });
        self.refresh_read_coeffs();
    }

    /// Whether the statistical device layer is active.
    pub fn stat_enabled(&self) -> bool {
        self.stat.is_some()
    }

    /// The statistical model's current global calibration gain (1.0 when
    /// the layer is off or uncalibrated).
    pub fn compensation_gain(&self) -> f64 {
        self.stat.as_ref().map_or(1.0, |s| s.gain)
    }

    /// Re-derive every slot's decay factor from the clock (after a time
    /// advance).
    fn refresh_drift_factors(&mut self) {
        let now = self.clock.now();
        let Some(stat) = self.stat.as_mut() else { return };
        for i in 0..stat.factor.len() {
            stat.factor[i] = stat.params.cell_decay_factor(now - stat.prog_at[i], stat.nu[i]);
        }
        if obs::enabled() {
            obs::add(obs::Counter::DriftUpdates, stat.factor.len() as u64);
        }
        self.refresh_read_coeffs();
    }

    /// Re-derive every slot's statistical read coefficient.
    fn refresh_read_coeffs(&mut self) {
        for r in 0..self.rows {
            self.refresh_read_row(r);
        }
    }

    /// Re-derive row `r`'s statistical read coefficients
    /// `((D − T) + δ·scale) · f` from the net response, programming error
    /// and decay factor of each slot (a no-op with the layer off). A
    /// masked slot's channel is cancelled, error and all, so it reads 0.
    fn refresh_read_row(&mut self, r: usize) {
        let scale = self.lut.scale();
        let stride = read_stride(self.rows);
        let Some(stat) = self.stat.as_mut() else { return };
        for j in 0..self.cols {
            let (idx, at) = (r * self.cols + j, j * stride + r);
            stat.read_coeff[at] = if self.masked[idx] {
                0.0
            } else {
                (self.net_coeff[at] + stat.prog_offset[idx] * scale) * stat.factor[idx]
            };
        }
    }

    /// Statistical bookkeeping for one successful write at `idx`: draw
    /// the level-dependent programming error, restart the slot's drift
    /// (a rewrite re-amorphizes the mark), and refresh the reference
    /// column alongside.
    fn stat_on_write(&mut self, idx: usize, w: f64) {
        if self.stat.is_none() {
            return;
        }
        let level = self.lut.level_for(w);
        let levels = self.lut.levels();
        let now = self.clock.now();
        let Some(stat) = self.stat.as_mut() else { return };
        let sigma = stat.params.prog_sigma_weight(level, levels);
        let g = seeded_gaussian(stat.bank_seed, STREAM_PCM_PROG, stat.prog_draws);
        stat.prog_draws += 1;
        stat.prog_offset[idx] = sigma * g;
        stat.prog_at[idx] = now;
        stat.factor[idx] = 1.0;
        stat.ref_prog_at = now;
        if obs::enabled() {
            obs::add(obs::Counter::StatNoiseSamples, 1);
        }
    }

    /// One drift-calibration pass: read back the bank's reference column
    /// (one probe per row), infer the youngest cohort's decay from its
    /// characterized floor exponent, and set the global compensation
    /// gain to the reciprocal. Returns the optical probe energy, which
    /// the obs counters tally and the PE bills to its `"drift
    /// calibration"` ledger entry. A no-op returning zero when the
    /// statistical layer is off.
    pub fn calibrate_compensation(&mut self) -> EnergyPj {
        let now = self.clock.now();
        let rows = self.rows;
        let read_energy = self.params.read_energy;
        let Some(stat) = self.stat.as_mut() else { return EnergyPj::ZERO };
        let column = stat.params.reference_column(read_energy);
        stat.gain = column.compensation_gain_at(now - stat.ref_prog_at);
        let spent = column.readout_energy(rows);
        if obs::enabled() {
            obs::add(obs::Counter::CompensationPasses, 1);
            obs::add_pj(obs::Counter::CompensationFj, spent.value());
        }
        spent
    }

    /// Open the drift-compensation loop: reset the readout gain to unity.
    ///
    /// A reprogramming campaign (in-situ fine-tuning, a weight refresh)
    /// rewrites cells sample by sample, so halfway through, freshly
    /// written cells would be read through a gain calibrated for month-old
    /// drift — amplified forward *and* backward products that destabilize
    /// the gradient steps. The controller therefore disengages the gain
    /// for the duration of the campaign and runs
    /// [`WeightBank::calibrate_compensation`] once the writes are done.
    /// A no-op when the statistical layer is off.
    pub fn disengage_compensation(&mut self) {
        if let Some(stat) = self.stat.as_mut() {
            stat.gain = 1.0;
        }
    }

    /// The hard fault of the cell at `(r, c)`, if any.
    #[cfg(test)]
    pub(crate) fn fault(&self, r: usize, c: usize) -> Option<GstFault> {
        self.ring(r, c).fault()
    }

    /// Whether the slot at `(r, c)` has been masked out.
    pub fn is_masked(&self, r: usize, c: usize) -> bool {
        self.masked[r * self.cols + c]
    }

    /// Slots currently masked out.
    pub fn masked_count(&self) -> usize {
        self.masked.iter().filter(|&&m| m).count()
    }

    /// Spare rings still available in row `r`.
    pub fn spares_remaining(&self, r: usize) -> usize {
        self.spares[r]
    }

    /// Override the per-row spare-ring budget (applies to rows that have
    /// not yet consumed spares beyond the new budget).
    pub fn set_spares_per_row(&mut self, spares: usize) {
        for s in &mut self.spares {
            *s = spares;
        }
    }

    /// Faulty or worn cells replaced by spares so far.
    pub fn remapped_count(&self) -> u64 {
        self.remapped
    }

    /// The bank's device identity (see [`WeightBank::new_varied`]).
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// Writes rejected by stuck cells or failed by verify, summed over
    /// every ring currently in the bank.
    pub fn write_failures(&self) -> u64 {
        self.rings.iter().map(PcmMrr::write_failures).sum()
    }

    /// Recompute the linear rail response of every row.
    fn recompute_response(&mut self) {
        for r in 0..self.rows {
            self.recompute_row(r);
        }
    }

    /// Recompute row `r`'s net rail response from its rings' cached
    /// detuning factors and amplitudes (the transcendental physics lives
    /// in [`Self::refresh_half_sin`] and [`Self::refresh_round_trip`]),
    /// then the row's statistical read coefficients.
    ///
    /// Rings outer, channels inner: a chunk of up to [`LANES`] channels
    /// carries its running power `p` and dropped power in stack arrays,
    /// and every ring updates all of them. Each channel sees exactly the
    /// ring-ascending `dropped += p·drop; p *= through` chain of
    /// [`Self::port`], so the result is bitwise that of a per-channel
    /// sweep.
    fn recompute_row(&mut self, r: usize) {
        let base = r * self.cols;
        let stride = read_stride(self.rows);
        for j0 in (0..self.cols).step_by(LANES) {
            let lanes = LANES.min(self.cols - j0);
            let mut p = [1.0f64; LANES]; // unit input power per channel
            let mut dropped = [0.0f64; LANES];
            for k in 0..self.cols {
                let idx = base + k;
                let lane = dropped[..lanes].iter_mut().zip(&mut p[..lanes]);
                if self.masked[idx] {
                    // A dead ring is transparent: `port`'s (0, 1).
                    for (d, pj) in lane {
                        *d += *pj * 0.0;
                        *pj *= 1.0;
                    }
                    continue;
                }
                let ring = self.rings[idx].ring();
                let a = self.round_trip[idx];
                for ((d, pj), &s) in lane.zip(&self.half_sin_of(idx)[j0..j0 + lanes]) {
                    let t = ring.transfer_at(a, s);
                    *d += *pj * t.drop;
                    *pj *= t.through;
                }
            }
            for (jj, (&d, &pj)) in dropped[..lanes].iter().zip(&p[..lanes]).enumerate() {
                let at = base + j0 + jj;
                // A masked ring passes its own channel straight to the
                // through rail, which a balanced detector would read as
                // a hard negative weight. The receiver therefore cancels
                // the dead channel electronically (per-row calibration
                // offset): the column contributes exactly zero to this
                // row.
                let (drop, through) = if self.masked[at] { (0.0, 0.0) } else { (d, pj) };
                self.net_coeff[(j0 + jj) * stride + r] = drop - through;
            }
        }
        self.refresh_read_row(r);
    }

    /// Optical matrix-vector product: unit-full-scale channel powers
    /// `x[j] ∈ [0, 1]` in, per-row **normalized dot products** out (the
    /// balanced rail difference divided by the LUT scale).
    ///
    /// # Panics
    /// Panics on width mismatch or out-of-range inputs.
    pub fn mvm(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mvm_into(x, &mut y);
        y
    }

    /// [`WeightBank::mvm`] into `y` (overwritten; one entry per row).
    ///
    /// # Panics
    /// Panics on width mismatch or out-of-range inputs.
    pub fn mvm_into(&self, x: &[f64], y: &mut [f64]) {
        self.check_read(x, y);
        self.read_net(x, y);
    }

    /// The deterministic read of a checked input.
    fn read_net(&self, x: &[f64], y: &mut [f64]) {
        read_rows(&self.net_coeff, x, y);
        let scale = self.lut.scale();
        for v in y {
            *v /= scale;
        }
    }

    /// Statistical matrix-vector product: the deterministic optics of
    /// [`WeightBank::mvm`] with the device layer applied per slot — the
    /// post-verify programming error rides on the coefficient, both decay
    /// by the slot's drift factor, each row readout picks up one read-noise
    /// draw, and the whole row is scaled by the calibration gain:
    ///
    /// ```text
    /// y_r = gain · ( Σ_j (D_rj − T_rj + δ_rj·scale) · f_rj · x_j / scale  +  σ_read·g )
    /// ```
    ///
    /// With every σ at zero and every ν at zero this reduces bitwise to
    /// [`WeightBank::mvm`] (the noise-off passthrough the proptests pin);
    /// with the layer off it *is* `mvm`.
    pub fn mvm_stat(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mvm_stat_into(x, &mut y);
        y
    }

    /// [`WeightBank::mvm_stat`] into `y` (overwritten; one entry per
    /// row). The sums come from the cached read coefficients; the read
    /// noise is then drawn once per row, in row order.
    ///
    /// # Panics
    /// Panics on width mismatch or out-of-range inputs.
    pub fn mvm_stat_into(&mut self, x: &[f64], y: &mut [f64]) {
        self.check_read(x, y);
        let Some(stat) = self.stat.as_mut() else {
            return self.read_net(x, y);
        };
        read_rows(&stat.read_coeff, x, y);
        let scale = self.lut.scale();
        for v in y {
            let noise = stat.params.read_sigma_weight
                * seeded_gaussian(stat.bank_seed, STREAM_PCM_READ, stat.read_draws);
            stat.read_draws += 1;
            *v = (*v / scale + noise) * stat.gain;
        }
        if obs::enabled() {
            obs::add(obs::Counter::StatNoiseSamples, self.rows as u64);
        }
    }

    /// The shape and range checks of a read.
    fn check_read(&self, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.cols, "input width mismatch");
        assert_eq!(y.len(), self.rows, "output width mismatch");
        for (j, &v) in x.iter().enumerate() {
            assert!((0.0..=1.0).contains(&v), "channel {j} power {v} outside [0, 1]");
        }
    }

    /// Per-ring balanced readout coefficient for the outer-product mode:
    /// the wavelength-demultiplexed drop−through response of ring
    /// `(r, c)` on its own channel, including the attenuation of the other
    /// rings on the row. Approximately `scale · w(r, c)`.
    pub fn ring_readout(&self, r: usize, c: usize) -> f64 {
        if self.masked[r * self.cols + c] {
            return 0.0; // dead slot: channel cancelled at the receiver
        }
        // `port` already encodes masking (masked neighbours are
        // transparent), so read the row's attenuation from it.
        let at = |k: usize| self.port(r * self.cols + k, c);
        let mut upstream = 1.0;
        for k in 0..c {
            upstream *= at(k).1;
        }
        let (own_drop, own_through) = at(c);
        let mut downstream = 1.0;
        for k in (c + 1)..self.cols {
            downstream *= at(k).1;
        }
        (upstream * own_drop - upstream * own_through * downstream) / self.lut.scale()
    }

    /// Statistical counterpart of [`WeightBank::ring_readout`]: the
    /// deterministic coefficient with the slot's programming error and
    /// drift factor applied, one read-noise draw, and the calibration
    /// gain — so in-situ training sees the same degraded device the
    /// forward pass does. Falls through to the deterministic readout
    /// when the layer is off; masked slots stay at zero without a draw.
    pub fn ring_readout_stat(&mut self, r: usize, c: usize) -> f64 {
        let det = self.ring_readout(r, c);
        let Some(mut stat) = self.stat.take() else {
            return det;
        };
        let idx = r * self.cols + c;
        let out = if self.masked[idx] {
            det
        } else {
            let noise = stat.params.read_sigma_weight
                * seeded_gaussian(stat.bank_seed, STREAM_PCM_READ, stat.read_draws);
            stat.read_draws += 1;
            if obs::enabled() {
                obs::add(obs::Counter::StatNoiseSamples, 1);
            }
            ((det + stat.prog_offset[idx]) * stat.factor[idx] + noise) * stat.gain
        };
        self.stat = Some(stat);
        out
    }

    /// Total individual ring writes so far.
    pub fn ring_writes(&self) -> u64 {
        self.rings.iter().map(PcmMrr::write_count).sum()
    }

    /// The most-written ring's write count (wear-leveling telemetry: the
    /// invariant tests assert this never exceeds the endurance rating).
    pub fn max_ring_writes(&self) -> u64 {
        self.rings.iter().map(PcmMrr::write_count).max().unwrap_or(0)
    }
}

/// Rows per channel in a transposed read table: the bank's rows padded
/// to whole [`LANES`] chunks (the padding holds zeros, never read out).
fn read_stride(rows: usize) -> usize {
    rows.next_multiple_of(LANES)
}

/// Row-parallel read of a transposed `[channel][row]` coefficient table
/// (rows padded by [`read_stride`]): `y[r] = Σ_j coeff[j][r] · x[j]`,
/// channels ascending. Each chunk of [`LANES`] rows keeps its
/// accumulators in a fixed-size stack array and every channel updates all
/// of them, so each row performs the `acc += c · x` chain of a one-row dot
/// product, term for term and in order: the result is bitwise that of the
/// serial sum, but the rows' adds are independent and pipeline. A masked
/// slot's zero coefficient adds `+0.0` (or `−0.0`), which leaves an
/// accumulator that starts at `+0.0` unchanged.
fn read_rows(coeff: &[f64], x: &[f64], y: &mut [f64]) {
    let stride = read_stride(y.len());
    for (r0, out) in (0..stride).step_by(LANES).zip(y.chunks_mut(LANES)) {
        let mut acc = [0.0f64; LANES];
        for (j, &xj) in x.iter().enumerate() {
            let col = &coeff[j * stride + r0..][..LANES];
            for (a, &c) in acc.iter_mut().zip(col) {
                *a += c * xj;
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LSB: f64 = 2.0 / 254.0;

    fn bank4() -> WeightBank {
        WeightBank::new(4, 4, GstParameters::default())
    }

    fn program(bank: &mut WeightBank, w: &[[f64; 4]; 4]) {
        bank.program_flat(w.as_flattened());
    }

    #[test]
    fn identity_bank_passes_inputs() {
        let mut b = bank4();
        let mut w = [[0.0; 4]; 4];
        for (i, row) in w.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        program(&mut b, &w);
        let y = b.mvm(&[0.8, 0.1, 0.5, 0.0]);
        for (i, &expected) in [0.8, 0.1, 0.5, 0.0].iter().enumerate() {
            assert!(
                (y[i] - expected).abs() < 0.03,
                "row {i}: got {} expected {expected}",
                y[i]
            );
        }
    }

    #[test]
    fn mvm_matches_programmed_matrix() {
        let mut b = bank4();
        let w = [
            [0.5, -0.25, 0.0, 1.0],
            [-1.0, 0.75, 0.3, -0.1],
            [0.0, 0.0, 0.0, 0.0],
            [0.9, 0.9, -0.9, -0.9],
        ];
        program(&mut b, &w);
        let x = [1.0, 0.5, 0.25, 0.75];
        let y = b.mvm(&x);
        for r in 0..4 {
            let expected: f64 = (0..4).map(|c| w[r][c] * x[c]).sum();
            assert!(
                (y[r] - expected).abs() < 0.05,
                "row {r}: photonic {} vs math {expected}",
                y[r]
            );
        }
    }

    #[test]
    fn mvm_is_linear_in_input() {
        let mut b = bank4();
        program(&mut b, &[[0.3; 4]; 4]);
        let y1 = b.mvm(&[0.2, 0.2, 0.2, 0.2]);
        let y2 = b.mvm(&[0.4, 0.4, 0.4, 0.4]);
        for r in 0..4 {
            assert!((y2[r] - 2.0 * y1[r]).abs() < 1e-9, "power-domain optics is linear");
        }
    }

    #[test]
    fn dark_input_gives_zero() {
        let mut b = bank4();
        program(&mut b, &[[0.7; 4]; 4]);
        let y = b.mvm(&[0.0; 4]);
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn programming_costs_energy_once() {
        let mut b = bank4();
        let w = [[0.5; 4]; 4];
        let (energy, time) = b.program_flat(w.as_flattened());
        assert!(energy.value() > 0.0 && time.value() > 0.0);
        let again = b.program_flat(w.as_flattened());
        let free = (EnergyPj::ZERO, Nanoseconds(0.0));
        assert_eq!(again, free, "identical reprogram is free (non-volatile)");
    }

    #[test]
    fn weight_readback_is_quantized_program() {
        let mut b = bank4();
        program(&mut b, &[[0.123; 4]; 4]);
        for r in 0..4 {
            for c in 0..4 {
                assert!((b.weight(r, c) - 0.123).abs() <= 0.5 * LSB + 1e-6);
            }
        }
    }

    #[test]
    fn ring_readout_approximates_weight() {
        let mut b = bank4();
        let w = [
            [0.8, -0.5, 0.2, -1.0],
            [0.1, 0.9, -0.3, 0.4],
            [-0.7, 0.0, 1.0, -0.2],
            [0.6, -0.6, 0.5, -0.5],
        ];
        program(&mut b, &w);
        for r in 0..4 {
            for c in 0..4 {
                let readout = b.ring_readout(r, c);
                assert!(
                    (readout - w[r][c]).abs() < 0.06,
                    "ring ({r},{c}): readout {readout} vs weight {}",
                    w[r][c]
                );
            }
        }
    }

    #[test]
    fn crosstalk_error_stays_below_quantization_scale() {
        // A worst-case pattern: all neighbours at full weight, centre at 0.
        let mut b = WeightBank::new(1, 16, GstParameters::default());
        let mut w = vec![1.0; 16];
        w[8] = 0.0;
        b.program_flat(&w);
        // Drive only channel 8; the row output should be ~0 despite the
        // 15 loud neighbours.
        let mut x = vec![0.0; 16];
        x[8] = 1.0;
        let y = b.mvm(&x);
        assert!(y[0].abs() < 0.05, "crosstalk-induced output {}", y[0]);
    }

    #[test]
    #[should_panic]
    fn mvm_rejects_out_of_range_input() {
        let b = bank4();
        let _ = b.mvm(&[1.5, 0.0, 0.0, 0.0]);
    }

    /// A bank whose cell 0 was written with `first` (or never written),
    /// then asked for `w` there.
    fn program_cell0(first: Option<f64>, w: f64) {
        let mut b = bank4();
        let mut m = [0.25; 16];
        if let Some(v) = first {
            m[0] = v;
            b.program_flat(&m);
            b.program_flat(&m); // a memo hit on every cell
        }
        m[0] = w;
        b.program_flat(&m);
    }

    #[test]
    #[should_panic(expected = "weight NaN outside [-1, 1]")]
    fn nan_weight_panics_on_a_never_written_cell() {
        program_cell0(None, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "weight NaN outside [-1, 1]")]
    fn nan_weight_panics_on_a_written_cell() {
        program_cell0(Some(0.5), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "weight 1.5 outside [-1, 1]")]
    fn out_of_range_weight_panics_on_a_never_written_cell() {
        program_cell0(None, 1.5);
    }

    #[test]
    #[should_panic(expected = "weight 1.5 outside [-1, 1]")]
    fn out_of_range_weight_panics_on_a_written_cell() {
        program_cell0(Some(0.5), 1.5);
    }

    #[test]
    #[should_panic]
    fn program_rejects_wrong_shape() {
        let mut b = bank4();
        b.program_flat(&[0.0; 12]);
    }

    // ---- fault-aware programming and graceful degradation ----

    use trident_pcm::PcmError;

    fn verified_program(b: &mut WeightBank, w: &[f64]) -> ProgramReport {
        b.try_program_verified(w, &WriteVerifyPolicy::default()).expect("shape is valid")
    }

    #[test]
    fn verified_program_matches_ideal_writes() {
        let mut ideal = bank4();
        let mut verified = bank4();
        let w = [
            [0.5, -0.25, 0.0, 1.0],
            [-1.0, 0.75, 0.3, -0.1],
            [0.2, -0.9, 0.6, 0.0],
            [0.9, 0.9, -0.9, -0.9],
        ];
        program(&mut ideal, &w);
        let flat: Vec<f64> = w.iter().flatten().copied().collect();
        let report = verified_program(&mut verified, &flat);
        // Every cell except those already at their target level (a fresh
        // cell is amorphous = level 0, i.e. w = +1) costs write pulses.
        assert!(report.cells_written >= 15, "wrote {}", report.cells_written);
        assert!(report.failures.is_empty());
        assert!(report.pulses >= report.cells_written as u64);
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    (ideal.weight(r, c) - verified.weight(r, c)).abs() < 1e-9,
                    "({r},{c}): verified landed on a different level"
                );
            }
        }
        let y_ideal = ideal.mvm(&[1.0, 0.5, 0.25, 0.75]);
        let y_verified = verified.mvm(&[1.0, 0.5, 0.25, 0.75]);
        for r in 0..4 {
            assert!(
                (y_ideal[r] - y_verified[r]).abs() < 0.01,
                "row {r}: {} vs {}",
                y_ideal[r],
                y_verified[r]
            );
        }
    }

    #[test]
    fn verified_program_rejects_wrong_shape_with_typed_error() {
        let mut b = bank4();
        let err = b.try_program_verified(&[0.0; 7], &WriteVerifyPolicy::default()).unwrap_err();
        assert!(matches!(err, ArchError::ShapeMismatch { expected: 16, got: 7 }));
    }

    #[test]
    fn stuck_cell_remaps_onto_a_spare() {
        let mut b = bank4();
        b.inject_ring_fault(1, 2, GstFault::StuckAmorphous);
        let w: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0 - 0.5).collect();
        let report = verified_program(&mut b, &w);
        assert_eq!(report.remapped, 1, "the stuck cell must move to a spare");
        assert_eq!(report.masked, 0);
        assert_eq!(b.spares_remaining(1), DEFAULT_SPARES_PER_ROW - 1);
        assert!(!b.is_masked(1, 2));
        // The remapped slot holds its weight like any healthy cell.
        assert!((b.weight(1, 2) - w[6]).abs() < 0.01, "got {}", b.weight(1, 2));
    }

    #[test]
    fn exhausted_spares_mask_the_slot() {
        let mut b = bank4();
        b.set_spares_per_row(0);
        b.inject_ring_fault(0, 1, GstFault::StuckCrystalline);
        let w = vec![0.5; 16];
        let report = verified_program(&mut b, &w);
        assert_eq!(report.remapped, 0);
        assert_eq!(report.masked, 1);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(report.failures[0], (0, 1, PcmError::StuckCell { .. })));
        assert!(b.is_masked(0, 1));
        assert_eq!(b.weight(0, 1), 0.0);
        assert_eq!(b.ring_readout(0, 1), 0.0);
        // The masked column contributes nothing to its row...
        let mut x = vec![0.0; 4];
        x[1] = 1.0;
        let y = b.mvm(&x);
        assert!(y[0].abs() < 1e-9, "masked column leaked {} into row 0", y[0]);
        // ...while healthy rows still see the channel.
        assert!((y[1] - 0.5).abs() < 0.05, "row 1 should read 0.5, got {}", y[1]);
        // Reprogramming skips the dead slot without failing.
        let report = verified_program(&mut b, &w);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn wear_leveling_retires_cells_before_the_endurance_cliff() {
        let params =
            GstParameters { endurance_cycles: 60, ..GstParameters::default() };
        let mut b = WeightBank::new(2, 2, params);
        // Alternate between two matrices so every write really pulses.
        let wa = vec![0.5, -0.5, 0.25, -0.25];
        let wb = vec![-0.5, 0.5, -0.25, 0.25];
        for i in 0..30 {
            let w = if i % 2 == 0 { &wa } else { &wb };
            verified_program(&mut b, w);
        }
        // The hard invariant: no cell — original or spare — is ever
        // programmed past its rated endurance; worn cells retire to
        // spares first and masking absorbs the rest.
        assert!(
            b.max_ring_writes() <= 60,
            "wear-leveling let a cell exceed its endurance budget: {}",
            b.max_ring_writes()
        );
        assert!(b.remapped_count() > 0, "worn cells should have been remapped");
    }

    // ---- shared calibration ----

    #[test]
    fn default_banks_share_one_bitwise_calibrated_lut() {
        let a = WeightBank::new(4, 4, GstParameters::default());
        let b = WeightBank::new_varied(16, 16, GstParameters::default(), 0.05, 3);
        assert!(Arc::ptr_eq(&a.lut, &b.lut), "one parameter set, one LUT");
        let template = AddDropMrr::new(MrrGeometry::weight_bank(), a.grid().channel(0));
        let fresh = WeightLut::build(&template, &GstParameters::default());
        assert_eq!(a.lut().scale().to_bits(), fresh.scale().to_bits());
        assert_eq!(a.lut().levels(), fresh.levels());
        for lvl in 0..fresh.levels() {
            assert_eq!(a.lut().raw_at(lvl).to_bits(), fresh.raw_at(lvl).to_bits());
            assert_eq!(
                a.lut().crystallinity_at(lvl).to_bits(),
                fresh.crystallinity_at(lvl).to_bits()
            );
        }
    }

    #[test]
    fn non_default_params_get_their_own_lut() {
        let default = bank4();
        let coarse =
            WeightBank::new(4, 4, GstParameters { levels: 63, ..GstParameters::default() });
        assert!(!Arc::ptr_eq(&default.lut, &coarse.lut));
        assert_eq!(coarse.lut().levels(), 63);
    }
}

/// The write path against the full-sweep physics it replaced: after any
/// sequence of bank operations, the cached responses must equal, bit for
/// bit, responses rebuilt from every ring's [`PcmMrr::transfer`] on every
/// channel. A shadow bank runs the same ops with its write memo cleared
/// before every program call, so a write the memo wrongly skipped shows
/// up as a difference in any return value, readout or tally.
#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Ring `idx`'s `(drop, through)` on channel `j`, straight from the
    /// device model.
    fn swept_port(b: &WeightBank, idx: usize, j: usize) -> (f64, f64) {
        if b.masked[idx] {
            return (0.0, 1.0);
        }
        let t = b.rings[idx].transfer(b.grid.channel(j));
        (t.drop, t.through)
    }

    /// A copy of `b` whose rail responses are rebuilt from a full sweep.
    fn swept(b: &WeightBank) -> WeightBank {
        let mut s = b.clone();
        for r in 0..b.rows {
            for j in 0..b.cols {
                let at = r * b.cols + j;
                let net = &mut s.net_coeff[j * read_stride(b.rows) + r];
                if b.masked[at] {
                    *net = 0.0;
                    continue;
                }
                let mut p = 1.0;
                let mut dropped = 0.0;
                for k in 0..b.cols {
                    let (drop, through) = swept_port(b, r * b.cols + k, j);
                    dropped += p * drop;
                    p *= through;
                }
                *net = dropped - p;
            }
        }
        s.refresh_read_coeffs();
        s
    }

    /// [`WeightBank::ring_readout`] from a full sweep.
    fn swept_readout(b: &WeightBank, r: usize, c: usize) -> f64 {
        if b.masked[r * b.cols + c] {
            return 0.0;
        }
        let at = |k: usize| swept_port(b, r * b.cols + k, c);
        let mut upstream = 1.0;
        for k in 0..c {
            upstream *= at(k).1;
        }
        let (own_drop, own_through) = at(c);
        let mut downstream = 1.0;
        for k in (c + 1)..b.cols {
            downstream *= at(k).1;
        }
        (upstream * own_drop - upstream * own_through * downstream) / b.lut.scale()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_sweep(b: &WeightBank, x: &[f64], step: usize) {
        let reference = swept(b);
        assert_eq!(bits(&b.mvm(x)), bits(&reference.mvm(x)), "mvm differs after op {step}");
        if b.stat_enabled() {
            assert_eq!(
                bits(&b.clone().mvm_stat(x)),
                bits(&reference.clone().mvm_stat(x)),
                "mvm_stat differs after op {step}"
            );
        }
        for r in 0..b.rows {
            for c in 0..b.cols {
                assert_eq!(
                    b.ring_readout(r, c).to_bits(),
                    swept_readout(b, r, c).to_bits(),
                    "ring_readout({r},{c}) differs after op {step}"
                );
            }
        }
    }

    /// Weights on a coarse grid, so repeated patterns and unchanged cells
    /// (free, no-op writes) come up often.
    fn weights(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| f64::from(rng.gen_range(-8i32..=8)) / 8.0).collect()
    }

    fn stuck(rng: &mut StdRng) -> GstFault {
        if rng.gen_bool(0.5) {
            GstFault::StuckAmorphous
        } else {
            GstFault::StuckCrystalline
        }
    }

    /// What one op returned, for comparing a bank with its shadow.
    #[derive(Debug, PartialEq)]
    enum Returned {
        Nothing,
        Write(u64, u64),
        Verified(String),
        Stat(Vec<u64>, u64),
    }

    fn write(spent: (EnergyPj, Nanoseconds)) -> Returned {
        Returned::Write(spent.0.value().to_bits(), spent.1.value().to_bits())
    }

    /// Apply op `kind` to `b`, drawing everything from `seed` so the bank
    /// and its shadow see the same op. `memo_free` clears the write memo
    /// before every program call, so every cell takes the full write path.
    fn apply(
        b: &mut WeightBank,
        kind: u8,
        seed: u64,
        last: &mut Vec<f64>,
        memo_free: bool,
    ) -> Returned {
        let size = b.rows;
        let n = size * size;
        let mut rng = StdRng::seed_from_u64(seed);
        let (r, c) = (rng.gen_range(0..size), rng.gen_range(0..size));
        let forget = |b: &mut WeightBank| {
            if memo_free {
                b.forget_all();
            }
        };
        match kind {
            0 => {
                *last = weights(&mut rng, n);
                forget(b);
                write(b.program_flat(last))
            }
            1 => {
                // Reprogram the last pattern with a few cells changed.
                for _ in 0..3 {
                    last[rng.gen_range(0..n)] = f64::from(rng.gen_range(-8i32..=8)) / 8.0;
                }
                forget(b);
                write(b.program_flat(last))
            }
            2 => {
                if rng.gen_bool(0.5) {
                    b.inject_ring_fault(r, c, stuck(&mut rng));
                }
                *last = weights(&mut rng, n);
                let policy = WriteVerifyPolicy::default();
                forget(b);
                let report = b.try_program_verified(last, &policy).expect("valid shape");
                Returned::Verified(format!("{report:?}"))
            }
            3 => {
                b.inject_ring_fault(r, c, stuck(&mut rng));
                Returned::Nothing
            }
            4 => {
                b.mask_ring(r, c);
                Returned::Nothing
            }
            5 => {
                let _ = b.remap_ring(r, c); // spares may be exhausted
                Returned::Nothing
            }
            6 => {
                b.advance_years(rng.gen_range(0.0..3.0));
                Returned::Nothing
            }
            7 => {
                if !b.stat_enabled() {
                    b.enable_stat(StatParams::default(), seed);
                }
                let x: Vec<f64> = (0..size).map(|_| rng.gen_range(0.0..=1.0)).collect();
                let y = bits(&b.mvm_stat(&x));
                Returned::Stat(y, b.ring_readout_stat(r, c).to_bits())
            }
            8 => {
                // Re-program exactly the last pattern: every cell is
                // asked for the weight it already accepted.
                forget(b);
                write(b.program_flat(last))
            }
            _ => {
                // Pin a cell, then re-request its pre-fault weight (or,
                // half the time, the weight it is now stuck at).
                b.inject_ring_fault(r, c, stuck(&mut rng));
                if rng.gen_bool(0.5) {
                    last[r * size + c] = b.weight(r, c);
                }
                forget(b);
                write(b.program_flat(last))
            }
        }
    }

    /// Every observable of `b` against its memo-free shadow, bit for bit.
    fn assert_matches_shadow(b: &WeightBank, shadow: &WeightBank, x: &[f64], step: usize) {
        assert_eq!(bits(&b.mvm(x)), bits(&shadow.mvm(x)), "mvm differs from shadow after op {step}");
        assert_eq!(
            bits(&b.clone().mvm_stat(x)),
            bits(&shadow.clone().mvm_stat(x)),
            "mvm_stat differs from shadow after op {step}"
        );
        for r in 0..b.rows {
            for c in 0..b.cols {
                assert_eq!(
                    b.ring_readout(r, c).to_bits(),
                    shadow.ring_readout(r, c).to_bits(),
                    "ring_readout({r},{c}) differs from shadow after op {step}"
                );
                assert_eq!(
                    b.weight(r, c).to_bits(),
                    shadow.weight(r, c).to_bits(),
                    "weight({r},{c}) differs from shadow after op {step}"
                );
            }
        }
        assert_eq!(b.ring_writes(), shadow.ring_writes(), "ring_writes after op {step}");
        assert_eq!(b.write_failures(), shadow.write_failures(), "write_failures after op {step}");
        let draws = |b: &WeightBank| b.stat.as_ref().map(|s| (s.prog_draws, s.read_draws));
        assert_eq!(draws(b), draws(shadow), "stat draw counters after op {step}");
    }

    fn run(size: usize, case: (u64, bool, bool), ops: &[(u8, u64)]) {
        let (bank_seed, varied, short_lived) = case;
        let params = if short_lived {
            // Low endurance so verified writes hit wear-leveling remaps
            // and, once the spares run out, masking.
            GstParameters { endurance_cycles: 24, ..GstParameters::default() }
        } else {
            GstParameters::default()
        };
        let sigma = if varied { 0.05 } else { 0.0 };
        let mut b = WeightBank::new_varied(size, size, params, sigma, bank_seed);
        let mut shadow = b.clone();
        let n = size * size;
        let mut last = weights(&mut StdRng::seed_from_u64(bank_seed), n);
        let mut shadow_last = last.clone();
        for (step, &(kind, seed)) in ops.iter().enumerate() {
            let got = apply(&mut b, kind, seed, &mut last, false);
            let want = apply(&mut shadow, kind, seed, &mut shadow_last, true);
            assert_eq!(got, want, "op {step} (kind {kind}) returned differently from shadow");
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let x: Vec<f64> = (0..size).map(|_| rng.gen_range(0.0..=1.0)).collect();
            assert_matches_sweep(&b, &x, step);
            assert_matches_shadow(&b, &shadow, &x, step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn bank_4x4_matches_the_full_sweep_bitwise(
            case in (0u64..1000, 0u8..2, 0u8..2).prop_map(|(s, v, e)| (s, v == 1, e == 1)),
            ops in proptest::collection::vec((0u8..10, 0u64..1_000_000), 1..=16),
        ) {
            run(4, case, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn bank_16x16_matches_the_full_sweep_bitwise(
            case in (0u64..1000, 0u8..2, 0u8..2).prop_map(|(s, v, e)| (s, v == 1, e == 1)),
            ops in proptest::collection::vec((0u8..10, 0u64..1_000_000), 1..=10),
        ) {
            run(16, case, &ops);
        }
    }

    /// Row `r`'s read straight from the device state, one row at a time:
    /// each coefficient swept from [`WeightBank::port`] along the row,
    /// then the slot's programming error, decay factor and masking, the
    /// row's read-noise draw (`draw`) and the calibration gain. With the
    /// layer off, the plain `D − T` read.
    fn naive_row(b: &WeightBank, x: &[f64], r: usize, draw: u64) -> f64 {
        let scale = b.lut.scale();
        let mut acc = 0.0;
        for (j, &xj) in x.iter().enumerate() {
            let idx = r * b.cols + j;
            if b.masked[idx] {
                continue;
            }
            let (mut p, mut dropped) = (1.0, 0.0);
            for k in 0..b.cols {
                let (drop, through) = b.port(r * b.cols + k, j);
                dropped += p * drop;
                p *= through;
            }
            let net = dropped - p;
            acc += match &b.stat {
                None => net * xj,
                Some(st) => (net + st.prog_offset[idx] * scale) * st.factor[idx] * xj,
            };
        }
        match &b.stat {
            None => acc / scale,
            Some(st) => {
                let noise = st.params.read_sigma_weight
                    * seeded_gaussian(st.bank_seed, STREAM_PCM_READ, draw);
                (acc / scale + noise) * st.gain
            }
        }
    }

    /// `mvm_into` and `mvm_stat_into` of `b` against [`naive_row`], bit
    /// for bit, read noise and draw counter included.
    fn assert_reads_naive(b: &WeightBank, x: &[f64], step: usize) {
        let mut y = vec![f64::NAN; b.rows];
        b.mvm_into(x, &mut y);
        let plain = WeightBank { stat: None, ..b.clone() };
        let want: Vec<f64> = (0..b.rows).map(|r| naive_row(&plain, x, r, 0)).collect();
        assert_eq!(bits(&y), bits(&want), "mvm_into differs from the naive read after op {step}");
        let draws = b.stat.as_ref().map_or(0, |s| s.read_draws);
        let mut read = b.clone();
        y.fill(f64::NAN);
        read.mvm_stat_into(x, &mut y);
        let want: Vec<f64> = (0..b.rows).map(|r| naive_row(b, x, r, draws + r as u64)).collect();
        assert_eq!(bits(&y), bits(&want), "mvm_stat_into differs from the naive read after op {step}");
        let after = read.stat.as_ref().map(|s| s.read_draws);
        assert_eq!(after, b.stat.as_ref().map(|_| draws + b.rows as u64), "read draws after op {step}");
    }

    /// Apply read-cache op `kind` to `b`: every operation that changes an
    /// input of the cached read coefficients.
    fn apply_read_op(b: &mut WeightBank, kind: u8, rng: &mut StdRng) {
        let (r, c) = (rng.gen_range(0..b.rows), rng.gen_range(0..b.cols));
        let n = b.rows * b.cols;
        match kind {
            0 => {
                b.program_flat(&weights(rng, n));
            }
            1 => {
                // A stuck cell the verified write remaps onto a spare
                // (or, with the row's spares gone, masks).
                b.inject_ring_fault(r, c, stuck(rng));
                let policy = WriteVerifyPolicy::default();
                let w = weights(rng, n);
                b.try_program_verified(&w, &policy).expect("valid shape");
            }
            2 => b.mask_ring(r, c),
            3 => b.inject_ring_fault(r, c, stuck(rng)),
            4 => b.advance_hours(Hours(rng.gen_range(1.0..2000.0))),
            5 => {
                b.calibrate_compensation();
            }
            _ => b.disengage_compensation(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The cached, transposed, row-parallel read equals a naive
        /// row-at-a-time read of the device state after every kind of
        /// op, on banks wide and tall enough to chunk, with and without
        /// fabrication variation and the statistical layer.
        #[test]
        fn cached_read_matches_the_naive_read_bitwise(
            rows in 1usize..=20,
            cols in 1usize..=20,
            case in (0u64..1000, 0u8..2, 0u8..2).prop_map(|(s, v, e)| (s, v == 1, e == 1)),
            ops in proptest::collection::vec(0u8..7, 1..=8),
        ) {
            let (seed, varied, stat) = case;
            let sigma = if varied { 0.05 } else { 0.0 };
            let mut b = WeightBank::new_varied(rows, cols, GstParameters::default(), sigma, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            b.program_flat(&weights(&mut rng, rows * cols));
            if stat {
                // Enabled on a programmed bank, so the layer's first read
                // coefficients come from a non-trivial response.
                b.enable_stat(StatParams::default(), seed);
            }
            for (step, &kind) in ops.iter().enumerate() {
                apply_read_op(&mut b, kind, &mut rng);
                let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.0..=1.0)).collect();
                assert_reads_naive(&b, &x, step);
            }
        }
    }
}
