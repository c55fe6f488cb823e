//! The chip: the tile grids one model is lowered onto, its digital side,
//! and every operation on the physical hardware rather than on one
//! network (§I, §IV-D): fault injection, the write path, deployment
//! aging, drift calibration, and the ring and energy tallies. The MLP,
//! the CNN and the transformer each own one [`Chip`], so these work on
//! every model. Chip-wide walks visit every PE of every grid in
//! construction order.

use crate::error::ArchError;
use crate::faults::{FaultPlan, FaultReport};
use crate::pe::ProcessingElement;
use crate::tile::{charge_psums, TileGemm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
use trident_pcm::gst::{GstFault, WriteVerifyPolicy};
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Hours, Nanoseconds};

/// The tile grids of one model, in construction order, plus its digital
/// side and weight-write path.
#[derive(Debug)]
pub struct Chip {
    pub(crate) grids: Vec<TileGemm>,
    pub(crate) ldsu: Ldsu,
    /// Set by [`Chip::inject_faults`]: writes then run closed-loop.
    fault_tolerant_writes: bool,
    /// Pulse-jitter stream of the closed-loop writes.
    write_rng: StdRng,
}

/// The chip's digital side — cross-tile partial-sum adds and the
/// load/store units' digital ops — as one ledger of energy charges and
/// the time they take.
#[derive(Debug, Default)]
pub(crate) struct Ldsu {
    pub(crate) energy: EnergyLedger,
    pub(crate) elapsed: Nanoseconds,
}

impl Chip {
    /// A healthy chip around `grids`; its write jitter derives from the
    /// engine's weight `seed`.
    pub(crate) fn new(grids: Vec<TileGemm>, seed: u64) -> Self {
        Self {
            grids,
            ldsu: Ldsu::default(),
            fault_tolerant_writes: false,
            write_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Append `gemm` as the chip's next grid; returns its index.
    pub(crate) fn push(&mut self, gemm: TileGemm) -> usize {
        self.grids.push(gemm);
        self.grids.len() - 1
    }

    fn pes(&self) -> impl Iterator<Item = &ProcessingElement> {
        self.grids.iter().flat_map(TileGemm::pes)
    }

    fn pes_mut(&mut self) -> impl Iterator<Item = &mut ProcessingElement> {
        self.grids.iter_mut().flat_map(TileGemm::pes_mut)
    }

    /// Signed MVM of grid `g` into `y` (overwritten), billing its
    /// cross-tile partial sums to the digital side.
    pub(crate) fn gemv_signed(&mut self, g: usize, x: &[f64], y: &mut [f64]) {
        charge_psums(&mut self.ldsu.energy, self.grids[g].gemv_signed(x, y));
    }

    /// Program grid `g` with `w` (`out × in`, row-major): open-loop on a
    /// healthy chip, closed-loop program-and-verify once faults are
    /// injected. The banks absorb per-cell failures (remap, then mask) and
    /// tally them, so only caller bugs error here.
    pub(crate) fn program(&mut self, g: usize, w: &[f64]) -> Result<(), ArchError> {
        if self.fault_tolerant_writes {
            let policy = WriteVerifyPolicy::default();
            self.grids[g].program_verified(w, &policy, &mut self.write_rng)
        } else {
            self.grids[g].program(w);
            Ok(())
        }
    }

    /// Inject a sampled fault population into every PE and switch writes
    /// to the closed-loop path. Deterministic in `plan.seed`; an
    /// out-of-range plan (see [`FaultPlan::validate`]) touches nothing.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, ArchError> {
        plan.validate()?;
        let _span = obs::span("engine.inject_faults");
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut report = FaultReport {
            laser_droop: plan.laser_droop,
            drift_years: plan.drift_years,
            ..FaultReport::default()
        };
        for pe in self.pes_mut() {
            if plan.laser_droop > 0.0 {
                pe.set_laser_droop(plan.laser_droop);
            }
            let (rows, cols) = (pe.rows(), pe.cols());
            let bank = pe.bank_mut();
            for r in 0..rows {
                for c in 0..cols {
                    report.total_rings += 1;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if u < plan.stuck_amorphous {
                        bank.inject_ring_fault(r, c, GstFault::StuckAmorphous);
                        report.stuck_amorphous += 1;
                    } else if u < plan.stuck_amorphous + plan.stuck_crystalline {
                        bank.inject_ring_fault(r, c, GstFault::StuckCrystalline);
                        report.stuck_crystalline += 1;
                    }
                    if plan.dead_rings > 0.0 && rng.gen_bool(plan.dead_rings) {
                        bank.mask_ring(r, c);
                        report.dead_rings += 1;
                    }
                }
            }
            if plan.drift_years > 0.0 {
                bank.advance_years(plan.drift_years);
            }
        }
        let stuck = report.stuck_amorphous + report.stuck_crystalline;
        obs::add(obs::Counter::FaultInjectEvents, stuck as u64);
        obs::add(obs::Counter::FaultMaskEvents, report.dead_rings as u64);
        self.fault_tolerant_writes = true;
        Ok(report)
    }

    /// Advance every bank's degradation clock by `delta` of deployment
    /// time under its degradation law: statistical power-law drift with
    /// the statistical device layer, crystallinity relaxation otherwise.
    pub fn advance_deployment(&mut self, delta: Hours) {
        let _span = obs::span("engine.advance_deployment");
        for pe in self.pes_mut() {
            pe.bank_mut().advance_hours(delta);
        }
    }

    /// One drift-calibration pass on every bank (a reference-column read
    /// each) to update its compensation gain. The probe energy lands in
    /// each bank's `"drift calibration"` ledger entry and is returned;
    /// zero without the statistical layer.
    pub fn calibrate_drift_compensation(&mut self) -> EnergyPj {
        let _span = obs::span("engine.drift_calibration");
        self.pes_mut().fold(EnergyPj::ZERO, |spent, pe| {
            spent + pe.bank_mut().calibrate_compensation()
        })
    }

    /// Open every bank's drift-compensation loop (gain back to unity) for
    /// a reprogramming campaign; see
    /// [`WeightBank::disengage_compensation`](crate::bank::WeightBank::disengage_compensation).
    pub fn disengage_drift_compensation(&mut self) {
        for pe in self.pes_mut() {
            pe.bank_mut().disengage_compensation();
        }
    }

    /// PEs on the chip, one per 16×16 tile.
    pub fn pe_count(&self) -> usize {
        self.pes().count()
    }

    /// Whether any bank runs the statistical device layer.
    pub fn stat_enabled(&self) -> bool {
        self.pes().any(|pe| pe.bank().stat_enabled())
    }

    /// Whether weight writes run through the closed-loop verified path.
    pub fn fault_tolerant_writes(&self) -> bool {
        self.fault_tolerant_writes
    }

    /// Writes rejected by stuck cells or failed by verify.
    pub fn write_failures(&self) -> u64 {
        self.pes().map(|pe| pe.bank().write_failures()).sum()
    }

    /// Faulty or worn cells remapped onto spare rings.
    pub fn remapped_rings(&self) -> u64 {
        self.pes().map(|pe| pe.bank().remapped_count()).sum()
    }

    /// Dead slots masked out of the optics.
    pub fn masked_rings(&self) -> usize {
        self.pes().map(|pe| pe.bank().masked_count()).sum()
    }

    /// GST programming energy of every PE.
    pub fn programming_energy(&self) -> EnergyPj {
        self.pes().map(|pe| pe.energy().get("gst write")).sum()
    }

    /// Every PE's energy as one flat sum in grid order, plus the digital
    /// side's.
    pub(crate) fn total_energy(&self) -> EnergyPj {
        self.pes().map(|pe| pe.energy().total()).sum::<EnergyPj>() + self.ldsu.energy.total()
    }

    /// Simulated time of every PE, one flat sum in grid order.
    pub(crate) fn pe_elapsed(&self) -> Nanoseconds {
        self.pes().map(ProcessingElement::elapsed).sum()
    }

    /// The itemised ledger: the digital side's charges plus every PE's,
    /// merged in grid order.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.ldsu.energy.clone();
        for pe in self.pes() {
            ledger.absorb(pe.energy());
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use crate::conv_engine::PhotonicCnn;
    use crate::engine::{EngineOptions, PhotonicMlp};
    use crate::faults::{FaultPlan, FaultReport};
    use crate::transformer::{PhotonicTransformer, TransformerConfig};
    use crate::Chip;

    const DEAD: FaultPlan = FaultPlan {
        stuck_amorphous: 0.02,
        stuck_crystalline: 0.01,
        dead_rings: 0.2,
        drift_years: 0.0,
        laser_droop: 0.05,
        seed: 9,
    };

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Build two copies of an engine, strike both with [`DEAD`], and
    /// check the chip masked rings and both copies agree bit for bit.
    fn faults_are_reproducible<E>(
        mut build: impl FnMut() -> E,
        chip: impl Fn(&mut E) -> &mut Chip,
        mut forward: impl FnMut(&mut E) -> Vec<f64>,
    ) {
        let mut run = || -> (FaultReport, Vec<u64>) {
            let mut engine = build();
            let report = chip(&mut engine).inject_faults(&DEAD).unwrap();
            assert!(chip(&mut engine).fault_tolerant_writes());
            assert!(chip(&mut engine).masked_rings() > 0, "dead rings must be masked");
            (report, bits(&forward(&mut engine)))
        };
        let (a, b) = (run(), run());
        assert!(a.0.dead_rings > 0 && a.0.total_rings > 0);
        assert_eq!(a, b, "the same plan must inject the same faults and outputs");
    }

    #[test]
    fn mlp_chip_faults_are_reproducible() {
        let x: Vec<f64> = (0..40).map(|i| (i % 7) as f64 / 7.0).collect();
        faults_are_reproducible(
            || PhotonicMlp::try_with_options(&[40, 20, 4], EngineOptions::default()).unwrap(),
            PhotonicMlp::chip_mut,
            |mlp| mlp.try_forward(&x).unwrap(),
        );
    }

    #[test]
    fn cnn_chip_faults_are_reproducible() {
        let image: Vec<f64> = (0..64).map(|i| (i % 5) as f64 / 5.0).collect();
        faults_are_reproducible(
            || PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8),
            PhotonicCnn::chip_mut,
            |cnn| {
                // Training after injection runs the closed-loop writes.
                cnn.train_sample(&image, 3, 0.1);
                cnn.forward(&image)
            },
        );
    }

    #[test]
    fn transformer_chip_faults_are_reproducible() {
        let cfg = TransformerConfig::tiny_vit();
        let x: Vec<f64> = (0..cfg.input_width()).map(|i| (i % 9) as f64 / 9.0 - 0.4).collect();
        faults_are_reproducible(
            || PhotonicTransformer::try_new(cfg.clone()).unwrap(),
            PhotonicTransformer::chip_mut,
            |tx| tx.try_forward_classify(&x).unwrap(),
        );
    }

    #[test]
    fn cnn_ledger_itemises_its_total() {
        let image: Vec<f64> = (0..64).map(|i| (i % 3) as f64 / 3.0).collect();
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        cnn.train_sample(&image, 1, 0.1);
        cnn.forward(&image);
        let ledger = cnn.chip().energy_ledger().total().value();
        let total = cnn.total_energy().value();
        assert!(total > 0.0);
        assert!((ledger - total).abs() <= 1e-9 * total, "ledger {ledger} vs total {total}");
    }
}
