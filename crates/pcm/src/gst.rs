//! The Ge₂Sb₂Te₅ material model.
//!
//! GST switches between an *amorphous* phase (optically transmissive —
//! "large weight") and a *crystalline* phase (absorbing — "small weight"),
//! with 255 stable intermediate states addressable by optical pulse trains
//! (Chen et al. 2022, reference \[5\] of the paper). The transition is
//! non-volatile for ~10 years and endures ~10¹² cycles (Kuzum et al.,
//! reference \[17\]).
//!
//! Energetics follow Table I / §III-B of the paper. The write pulse and
//! its settling time are the GST row of `trident_photonics::tuning`; the
//! read probe and the [`PULSE_WINDOW`] are defined here. Holding a state
//! costs nothing — the property the whole architecture leans on.

use crate::error::PcmError;
use std::fmt;
use trident_photonics::tuning::TuningProfile;
use trident_photonics::units::{EnergyPj, Nanoseconds};
use trident_streams::{seeded_gaussian, STREAM_DEVICE_JITTER};

/// Table III's GST pulse window: the power model spreads one read probe's
/// energy, and one activation reset's, over it.
pub const PULSE_WINDOW: Nanoseconds = Nanoseconds(300.0);

/// GST switching cycles before wear-out (Kuzum et al., reference \[17\]),
/// for weight cells and activation cells alike.
pub const ENDURANCE_CYCLES: u64 = 1_000_000_000_000;

/// Device-level constants for a GST cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GstParameters {
    /// Number of programmable crystallinity levels (255 → 8-bit).
    pub levels: u16,
    /// Energy of one programming pulse.
    pub write_energy: EnergyPj,
    /// Settling time of a programming event.
    pub write_time: Nanoseconds,
    /// Energy of one read probe pulse.
    pub read_energy: EnergyPj,
    /// Amplitude transmission of the cell when fully amorphous.
    pub amorphous_amplitude: f64,
    /// Amplitude transmission of the cell when fully crystalline.
    pub crystalline_amplitude: f64,
    /// Switching cycles before wear-out.
    pub endurance_cycles: u64,
    /// Retention of a programmed state, in years.
    pub retention_years: f64,
}

impl Default for GstParameters {
    fn default() -> Self {
        Self {
            // The GST tuning row's resolution: 8 bits, 255 levels.
            levels: (1 << TuningProfile::gst().bit_resolution) - 1,
            write_energy: TuningProfile::gst().write_energy,
            write_time: TuningProfile::gst().write_time,
            read_energy: EnergyPj(20.0),
            amorphous_amplitude: 0.995,
            crystalline_amplitude: 0.25,
            endurance_cycles: ENDURANCE_CYCLES,
            retention_years: 10.0,
        }
    }
}

impl GstParameters {
    /// Bit resolution implied by the level count.
    pub fn bits(&self) -> u8 {
        (f64::from(self.levels) + 1.0).log2().round() as u8
    }

    /// Fractional crystallinity drift accumulated over one rated
    /// retention period: half an LSB of the level grid, so a stored state
    /// remains distinguishable for exactly the rated lifetime.
    pub fn drift_per_decade(&self) -> f64 {
        0.5 / f64::from(self.levels - 1)
    }

    /// Amplitude transmission at crystallinity `c ∈ [0, 1]`.
    ///
    /// The absorption coefficient interpolates linearly between phases, so
    /// the *amplitude* (an exponential of absorption × length) interpolates
    /// geometrically.
    pub fn amplitude_at(&self, crystallinity: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&crystallinity),
            "crystallinity {crystallinity} outside [0, 1]"
        );
        self.amorphous_amplitude
            * (self.crystalline_amplitude / self.amorphous_amplitude).powf(crystallinity)
    }
}

/// A hard device fault pinning a cell in one phase.
///
/// Stuck-at faults are the dominant hard-failure mode of multi-level PCM:
/// a cell that can no longer be amorphized (heater open, residual
/// crystalline filament) or no longer crystallized (delaminated film)
/// ignores programming pulses. Injected via [`GstCell::inject_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GstFault {
    /// Pinned fully amorphous (transparent, `w = +1` territory).
    StuckAmorphous,
    /// Pinned fully crystalline (absorbing, `w = -1` territory).
    StuckCrystalline,
}

impl fmt::Display for GstFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StuckAmorphous => write!(f, "at-amorphous"),
            Self::StuckCrystalline => write!(f, "at-crystalline"),
        }
    }
}

/// Knobs of the closed-loop program-and-verify write sequence.
///
/// Each iteration applies a partial programming pulse that corrects a
/// fraction of the remaining crystallinity error (with stochastic gain
/// jitter — real pulses never land exactly), then verifies with a
/// read-back probe. Retries escalate the pulse energy, mirroring how
/// multi-level PCM programmers widen/strengthen pulses as they converge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteVerifyPolicy {
    /// Maximum write pulses before the write is declared failed.
    pub max_attempts: u32,
    /// Fraction of the remaining crystallinity error corrected per pulse.
    pub pulse_gain: f64,
    /// Relative 1σ jitter on the per-pulse gain.
    pub gain_jitter_sigma: f64,
    /// Multiplier on pulse energy for each successive retry.
    pub energy_escalation: f64,
}

impl Default for WriteVerifyPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 24,
            pulse_gain: 0.7,
            gain_jitter_sigma: 0.05,
            energy_escalation: 1.15,
        }
    }
}

/// Accounting record of one successful program-and-verify sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReport {
    /// Write pulses spent (0 for a free non-volatile no-op).
    pub pulses: u32,
    /// Total optical energy: write pulses plus verify read-backs.
    pub energy: EnergyPj,
    /// Total settling plus read time.
    pub time: Nanoseconds,
    /// Crystallinity actually reached.
    pub achieved: f64,
}

/// One stateful GST cell.
///
/// The cell tracks its programmed level, the physical crystallinity that
/// level corresponds to, the cumulative energy spent programming/reading
/// it, and its switching-cycle wear.
///
/// Two programming modes are provided:
/// * [`GstCell::try_program`] — levels uniformly spaced in crystallinity (the
///   raw device grid);
/// * [`GstCell::try_program_calibrated`] — a program-and-verify write to an
///   arbitrary crystallinity associated with a level index. This is how
///   the weight bank realises levels uniform in *weight* space (see
///   `crate::weight::WeightLut`), matching the per-level calibration used
///   by multi-level PCM demonstrations.
#[derive(Debug, Clone, PartialEq)]
pub struct GstCell {
    params: GstParameters,
    /// Current level index, `0 = fully amorphous … levels-1 = fully
    /// crystalline` (or a calibrated level's index).
    level: u16,
    /// Physical crystallinity fraction the cell currently holds.
    crystallinity: f64,
    writes: u64,
    reads: u64,
    energy_spent: EnergyPj,
    /// Hard fault, if one has been injected (or caused by wear).
    fault: Option<GstFault>,
}

impl GstCell {
    /// A fresh cell in the fully amorphous (transparent) state.
    pub fn new(params: GstParameters) -> Self {
        assert!(params.levels >= 2, "a GST cell needs at least 2 levels");
        assert!(
            params.crystalline_amplitude < params.amorphous_amplitude,
            "crystalline GST must absorb more than amorphous"
        );
        Self {
            params,
            level: 0,
            crystallinity: 0.0,
            writes: 0,
            reads: 0,
            energy_spent: EnergyPj::ZERO,
            fault: None,
        }
    }

    /// A fresh cell with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::new(GstParameters::default())
    }

    /// Device constants.
    #[inline]
    pub fn params(&self) -> &GstParameters {
        &self.params
    }

    /// Current quantized level (0 = amorphous).
    #[inline]
    pub fn level(&self) -> u16 {
        self.level
    }

    /// Current crystallinity fraction in `[0, 1]`.
    #[inline]
    pub fn crystallinity(&self) -> f64 {
        self.crystallinity
    }

    /// Amplitude transmission of the cell in its current state.
    #[inline]
    pub fn amplitude(&self) -> f64 {
        self.params.amplitude_at(self.crystallinity())
    }

    /// Program the cell to `level`, spending one write pulse if the level
    /// actually changes. Returns the energy spent (zero for a no-op — the
    /// non-volatile state needs no refresh). Faults, wear-out, and range
    /// violations surface as [`PcmError`]s.
    pub fn try_program(&mut self, level: u16) -> Result<EnergyPj, PcmError> {
        if level >= self.params.levels {
            return Err(PcmError::LevelOutOfRange { level, levels: self.params.levels });
        }
        let crystallinity = f64::from(level) / f64::from(self.params.levels - 1);
        self.try_write(level, crystallinity)
    }

    /// Ideal calibrated write: set the cell to `crystallinity`, recording
    /// it as calibrated level `level`. Costs one write pulse when the level
    /// changes. (The closed-loop iterative write with read-back is
    /// [`GstCell::program_verified`].) Errors as [`GstCell::try_program`],
    /// plus a crystallinity outside `[0, 1]`.
    pub fn try_program_calibrated(
        &mut self,
        level: u16,
        crystallinity: f64,
    ) -> Result<EnergyPj, PcmError> {
        if level >= self.params.levels {
            return Err(PcmError::LevelOutOfRange { level, levels: self.params.levels });
        }
        if !(0.0..=1.0).contains(&crystallinity) {
            return Err(PcmError::CrystallinityOutOfRange(crystallinity));
        }
        self.try_write(level, crystallinity)
    }

    fn try_write(&mut self, level: u16, crystallinity: f64) -> Result<EnergyPj, PcmError> {
        if level == self.level && (crystallinity - self.crystallinity).abs() < 1e-12 {
            return Ok(EnergyPj::ZERO);
        }
        if let Some(fault) = self.fault {
            return Err(PcmError::StuckCell { fault, requested_level: level });
        }
        if self.is_worn_out() {
            return Err(PcmError::WornOut {
                writes: self.writes,
                endurance: self.params.endurance_cycles,
            });
        }
        self.level = level;
        self.crystallinity = crystallinity;
        self.writes += 1;
        self.energy_spent += self.params.write_energy;
        Ok(self.params.write_energy)
    }

    /// Closed-loop program-and-verify write to calibrated level `level` at
    /// target `crystallinity`, within `tolerance`.
    ///
    /// Each attempt fires a partial programming pulse (correcting
    /// `policy.pulse_gain` of the remaining error, with stochastic gain
    /// jitter), spends one endurance cycle and an escalating
    /// pulse energy, then verifies with a read-back probe. Succeeds once
    /// the read-back is within `tolerance` of the target; fails with
    /// [`PcmError::WriteVerifyFailed`] when `policy.max_attempts` pulses
    /// are exhausted (leaving the cell mid-trajectory, as real hardware
    /// would).
    ///
    /// The jitter of a pulse is counter-addressed: `identity` is this
    /// cell's device identity (unique within its bank) and the draw
    /// index is the cell's own pulse count, so a cell's jitter never
    /// depends on what any other cell did.
    pub fn program_verified(
        &mut self,
        level: u16,
        crystallinity: f64,
        tolerance: f64,
        policy: &WriteVerifyPolicy,
        identity: u64,
    ) -> Result<WriteReport, PcmError> {
        if level >= self.params.levels {
            return Err(PcmError::LevelOutOfRange { level, levels: self.params.levels });
        }
        if !(0.0..=1.0).contains(&crystallinity) {
            return Err(PcmError::CrystallinityOutOfRange(crystallinity));
        }
        assert!(tolerance > 0.0, "verify tolerance must be positive");
        // Non-volatile no-op: already verified at this level.
        if level == self.level && (self.crystallinity - crystallinity).abs() <= tolerance {
            return Ok(WriteReport {
                pulses: 0,
                energy: EnergyPj::ZERO,
                time: Nanoseconds(0.0),
                achieved: self.crystallinity,
            });
        }
        if let Some(fault) = self.fault {
            return Err(PcmError::StuckCell { fault, requested_level: level });
        }
        let mut energy = EnergyPj::ZERO;
        let mut time = Nanoseconds(0.0);
        let mut pulse_energy = self.params.write_energy;
        for attempt in 1..=policy.max_attempts {
            if self.is_worn_out() {
                return Err(PcmError::WornOut {
                    writes: self.writes,
                    endurance: self.params.endurance_cycles,
                });
            }
            // Partial pulse: corrects a jittered fraction of the remaining
            // error. The clamp keeps pathological jitter draws physical
            // (a pulse never overshoots past the target's far side).
            let g = seeded_gaussian(identity, STREAM_DEVICE_JITTER, self.writes);
            let jitter = 1.0 + policy.gain_jitter_sigma * g;
            let gain = (policy.pulse_gain * jitter).clamp(0.05, 0.95);
            self.crystallinity += (crystallinity - self.crystallinity) * gain;
            self.crystallinity = self.crystallinity.clamp(0.0, 1.0);
            self.writes += 1;
            self.energy_spent += pulse_energy;
            energy += pulse_energy;
            time += self.params.write_time;
            pulse_energy = EnergyPj(pulse_energy.value() * policy.energy_escalation);
            // Verify with a read-back probe.
            self.reads += 1;
            self.energy_spent += self.params.read_energy;
            energy += self.params.read_energy;
            if (self.crystallinity - crystallinity).abs() <= tolerance {
                self.level = level;
                trident_obs::add(trident_obs::Counter::PcmVerifyAttempts, u64::from(attempt));
                return Ok(WriteReport { pulses: attempt, energy, time, achieved: self.crystallinity });
            }
        }
        // The cell is left mid-trajectory; record the attempted level so
        // the readout reflects what the hardware would report.
        self.level = level;
        trident_obs::add(trident_obs::Counter::PcmVerifyAttempts, u64::from(policy.max_attempts));
        trident_obs::add(trident_obs::Counter::PcmVerifyFailures, 1);
        Err(PcmError::WriteVerifyFailed {
            level,
            target: crystallinity,
            achieved: self.crystallinity,
            attempts: policy.max_attempts,
        })
    }

    /// Pin the cell in a hard fault state. The stored crystallinity jumps
    /// to the stuck phase immediately and all subsequent writes fail with
    /// [`PcmError::StuckCell`].
    pub fn inject_fault(&mut self, fault: GstFault) {
        self.fault = Some(fault);
        match fault {
            GstFault::StuckAmorphous => {
                self.level = 0;
                self.crystallinity = 0.0;
            }
            GstFault::StuckCrystalline => {
                self.level = self.params.levels - 1;
                self.crystallinity = 1.0;
            }
        }
    }

    /// Clear an injected fault (e.g. for campaign re-runs on a shared
    /// structure). Does not restore the pre-fault state.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// The cell's hard fault, if any.
    #[inline]
    pub fn fault(&self) -> Option<GstFault> {
        self.fault
    }

    /// Read the cell with a low-power probe pulse. Returns the amplitude
    /// transmission; reading is non-destructive but costs energy.
    pub fn read(&mut self) -> f64 {
        self.reads += 1;
        self.energy_spent += self.params.read_energy;
        self.amplitude()
    }

    /// Number of programming events so far.
    #[inline]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of read probes so far.
    #[inline]
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total optical energy delivered to the cell.
    #[inline]
    pub fn energy_spent(&self) -> EnergyPj {
        self.energy_spent
    }

    /// Remaining endurance cycles.
    pub fn endurance_remaining(&self) -> u64 {
        self.params.endurance_cycles.saturating_sub(self.writes)
    }

    /// True once the cell has consumed its endurance budget.
    pub fn is_worn_out(&self) -> bool {
        self.writes >= self.params.endurance_cycles
    }

    /// Age the cell by `years`: amorphous marks relax toward the
    /// crystalline ground state (structural relaxation / drift). The decay
    /// constant is set so the state stays within half an 8-bit LSB over
    /// the rated retention — the device-physics meaning of "non-volatile
    /// for up to 10 years".
    ///
    /// The arithmetic lives in [`crate::stat::relaxed_crystallinity`];
    /// this method is the cell-level shim. Callers above the cell should
    /// advance a [`crate::stat::DegradationClock`] (the weight bank's
    /// `advance_years`) instead of aging cells directly, so simulated
    /// deployment time has exactly one source.
    pub fn age(&mut self, years: f64) {
        self.crystallinity = crate::stat::relaxed_crystallinity(
            self.crystallinity,
            self.params.drift_per_decade(),
            years,
            self.params.retention_years,
        );
    }

    /// Drift of the stored level in LSBs after `years` (for a fresh copy;
    /// non-destructive query).
    pub fn projected_drift_lsb(&self, years: f64) -> f64 {
        let mut aged = self.clone();
        aged.age(years);
        (aged.crystallinity() - self.crystallinity()).abs() * f64::from(self.params.levels - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PcmError;

    #[test]
    fn default_parameters_match_paper() {
        let p = GstParameters::default();
        assert_eq!(p.levels, 255);
        assert_eq!(p.bits(), 8);
        assert_eq!(p.write_energy, EnergyPj(660.0));
        assert_eq!(p.write_time, Nanoseconds(300.0));
        assert_eq!(p.read_energy, EnergyPj(20.0));
        assert_eq!(p.retention_years, 10.0);
        assert_eq!(p.endurance_cycles, 1_000_000_000_000);
    }

    #[test]
    fn amplitude_decreases_with_crystallinity() {
        let p = GstParameters::default();
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let a = p.amplitude_at(i as f64 / 10.0);
            assert!(a < last, "amplitude must fall monotonically");
            assert!((0.0..=1.0).contains(&a));
            last = a;
        }
        assert!((p.amplitude_at(0.0) - p.amorphous_amplitude).abs() < 1e-12);
        assert!((p.amplitude_at(1.0) - p.crystalline_amplitude).abs() < 1e-12);
    }

    #[test]
    fn programming_costs_energy_only_on_change() {
        let mut c = GstCell::with_defaults();
        assert_eq!(c.try_program(100).unwrap(), EnergyPj(660.0));
        assert_eq!(
            c.try_program(100).unwrap(),
            EnergyPj::ZERO,
            "re-programming same level is free"
        );
        assert_eq!(c.write_count(), 1);
        assert_eq!(c.try_program(0).unwrap(), EnergyPj(660.0));
        assert_eq!(c.write_count(), 2);
        assert_eq!(c.energy_spent(), EnergyPj(1320.0));
    }

    #[test]
    fn reads_are_nondestructive_but_cost_energy() {
        let mut c = GstCell::with_defaults();
        c.try_program(200).unwrap();
        let before = c.level();
        let a1 = c.read();
        let a2 = c.read();
        assert_eq!(c.level(), before);
        assert_eq!(a1, a2);
        assert_eq!(c.read_count(), 2);
        assert_eq!(c.energy_spent(), EnergyPj(660.0 + 40.0));
    }

    #[test]
    fn endurance_depletes_with_writes() {
        let params = GstParameters { endurance_cycles: 3, ..GstParameters::default() };
        let mut c = GstCell::new(params);
        c.try_program(1).unwrap();
        c.try_program(2).unwrap();
        c.try_program(3).unwrap();
        assert!(c.is_worn_out());
        assert_eq!(c.endurance_remaining(), 0);
    }

    #[test]
    #[should_panic]
    fn worn_cell_refuses_writes() {
        let params = GstParameters { endurance_cycles: 1, ..GstParameters::default() };
        let mut c = GstCell::new(params);
        c.try_program(1).unwrap();
        c.try_program(2).unwrap();
    }

    #[test]
    #[should_panic]
    fn out_of_range_level_rejected() {
        GstCell::with_defaults().try_program(255).unwrap();
    }

    #[test]
    fn retention_holds_within_half_lsb_for_ten_years() {
        // §III-B: "non-volatile for up to 10 years" — at the rated
        // lifetime the stored level has drifted at most half an 8-bit
        // step, so every level remains distinguishable.
        let mut c = GstCell::with_defaults();
        c.try_program(100).unwrap();
        assert!(c.projected_drift_lsb(10.0) <= 0.5 + 1e-9);
        assert!(c.projected_drift_lsb(1.0) < 0.1);
        // Far beyond the rating the state decays measurably.
        assert!(c.projected_drift_lsb(100.0) > 2.0);
    }

    #[test]
    fn aging_moves_toward_crystalline_only() {
        let mut amorphous = GstCell::with_defaults();
        amorphous.try_program(0).unwrap();
        let before = amorphous.crystallinity();
        amorphous.age(10.0);
        assert!(amorphous.crystallinity() >= before, "drift recrystallizes");

        let mut crystalline = GstCell::with_defaults();
        crystalline.try_program(254).unwrap();
        crystalline.age(50.0);
        assert!(
            (crystalline.crystallinity() - 1.0).abs() < 1e-9,
            "the crystalline ground state is stable"
        );
    }

    #[test]
    fn stuck_cell_rejects_writes_with_typed_error() {
        let mut c = GstCell::with_defaults();
        c.try_program(100).unwrap();
        c.inject_fault(GstFault::StuckCrystalline);
        assert_eq!(c.level(), 254);
        assert!((c.crystallinity() - 1.0).abs() < 1e-12);
        let err = c.try_program(10).unwrap_err();
        assert!(matches!(
            err,
            PcmError::StuckCell { fault: GstFault::StuckCrystalline, requested_level: 10 }
        ));
        // Writing the stuck state itself is a free no-op, not an error.
        assert_eq!(c.try_program(254).unwrap(), EnergyPj::ZERO);
        c.clear_fault();
        assert!(c.try_program(10).is_ok());
    }

    #[test]
    fn worn_cell_yields_typed_error_from_try_path() {
        let params = GstParameters { endurance_cycles: 1, ..GstParameters::default() };
        let mut c = GstCell::new(params);
        c.try_program(1).unwrap();
        let err = c.try_program(2).unwrap_err();
        assert!(matches!(err, PcmError::WornOut { writes: 1, endurance: 1 }));
    }

    #[test]
    fn program_verified_converges_and_accounts_pulses() {
        let mut c = GstCell::with_defaults();
        let policy = WriteVerifyPolicy::default();
        let report = c.program_verified(127, 0.5, 1e-4, &policy, 42).unwrap();
        assert!(report.pulses >= 1 && report.pulses <= policy.max_attempts);
        assert!((c.crystallinity() - 0.5).abs() <= 1e-4);
        assert_eq!(c.level(), 127);
        assert_eq!(c.write_count() as u32, report.pulses);
        assert_eq!(c.read_count() as u32, report.pulses, "one verify read per pulse");
        assert!(report.energy.value() >= report.pulses as f64 * 660.0);
        // Re-verifying the same state is a non-volatile no-op.
        let again = c.program_verified(127, 0.5, 1e-4, &policy, 42).unwrap();
        assert_eq!(again.pulses, 0);
        assert_eq!(again.energy, EnergyPj::ZERO);
    }

    #[test]
    fn program_verified_escalates_pulse_energy() {
        let mut c = GstCell::with_defaults();
        let policy = WriteVerifyPolicy::default();
        let report = c.program_verified(254, 1.0, 1e-6, &policy, 1).unwrap();
        if report.pulses >= 2 {
            // Total write energy strictly exceeds pulses × base energy
            // because retries escalate.
            let base = report.pulses as f64 * 660.0 + report.pulses as f64 * 20.0;
            assert!(report.energy.value() > base, "{} !> {base}", report.energy.value());
        }
    }

    #[test]
    fn program_verified_fails_within_bound_on_impossible_tolerance() {
        // An unreachable tolerance must exhaust the retry budget and
        // surface a typed error, never loop forever or panic.
        let mut c = GstCell::with_defaults();
        let policy = WriteVerifyPolicy { max_attempts: 4, ..WriteVerifyPolicy::default() };
        let err = c.program_verified(127, 0.5, 1e-15, &policy, 3).unwrap_err();
        match err {
            PcmError::WriteVerifyFailed { attempts, level, .. } => {
                assert_eq!(attempts, 4);
                assert_eq!(level, 127);
            }
            other => panic!("expected WriteVerifyFailed, got {other}"),
        }
        assert_eq!(c.write_count(), 4, "exactly max_attempts pulses spent");
    }

    #[test]
    fn trillion_cycle_endurance_outlives_training() {
        // §III-C: "endurance is not a concern" — check the arithmetic:
        // training 50k images × hundreds of epochs × one activation switch
        // per image stays far below 1e12.
        let cycles_per_training_run = 50_000u64 * 300; // images × epochs
        assert!(GstParameters::default().endurance_cycles / cycles_per_training_run > 10_000);
    }
}
