//! The chip: the tile grids one model is lowered onto, its digital side,
//! and every operation on the physical hardware rather than on one
//! network (§I, §IV-D): fault injection, the write path, deployment
//! aging, drift calibration, and the ring and energy tallies. The MLP,
//! the CNN and the transformer each own one [`Chip`], so these work on
//! every model. Chip-wide walks visit every PE of every grid in
//! construction order.

use crate::config::TridentConfig;
use crate::error::ArchError;
use crate::faults::{FaultPlan, FaultReport};
use crate::pe::ProcessingElement;
use crate::tile::TileGemm;
use trident_obs as obs;
use trident_pcm::gst::{GstFault, WriteVerifyPolicy};
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Hours, Nanoseconds};
use trident_streams::{
    member_identity, seeded_u64, unit_open, STREAM_DEVICE_DEAD, STREAM_DEVICE_STUCK,
};

/// The tile grids of one model, in construction order, plus its digital
/// side and weight-write path.
#[derive(Debug)]
pub struct Chip {
    pub(crate) grids: Vec<TileGemm>,
    pub(crate) ldsu: Ldsu,
    /// Set by [`Chip::inject_faults`]: writes then run closed-loop.
    fault_tolerant_writes: bool,
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
    /// A healthy chip around `grids`. Every bank's device identity must
    /// be unique within the chip: it addresses the bank's fault sampling
    /// and write jitter.
    pub(crate) fn new(grids: Vec<TileGemm>) -> Self {
        Self { grids, ldsu: Ldsu::default(), fault_tolerant_writes: false }
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

    /// The dense forward step on grid `g`: the AGC-scaled, clamped-lane
    /// unsigned MVM ([`TileGemm::gemv_unsigned`]) into `y`, billing its
    /// cross-tile partial sums.
    pub(crate) fn gemv_unsigned(&mut self, g: usize, x: &[f64], y: &mut [f64]) {
        let psums = self.grids[g].gemv_unsigned(x, y);
        self.charge_psums(psums);
    }

    /// Signed MVM of grid `g` into `y` (overwritten), billing its
    /// cross-tile partial sums.
    pub(crate) fn gemv_signed(&mut self, g: usize, x: &[f64], y: &mut [f64]) {
        let psums = self.grids[g].gemv_signed(x, y);
        self.charge_psums(psums);
    }

    /// Bill `n` cross-tile partial-sum accumulates at the configuration's
    /// psum price, one add each after one ledger lookup; the two MVMs
    /// above are the only MVM entry points, so every path bills.
    fn charge_psums(&mut self, n: usize) {
        let psum = TridentConfig::paper().psum_energy;
        self.ldsu.energy.charge_times("psum accumulate", psum, n);
    }

    /// Table II gradient-vector mode on grid `g`: program `wᵀ` (`w` is
    /// the grid's `out × in` matrix, row-major) and replace each `δ` with
    /// the billed signed MVM `wᵀ·δ`. The grid holds `wᵀ` until the next
    /// [`Chip::program`].
    pub(crate) fn gradient_vectors(&mut self, g: usize, w: &[f64], deltas: &mut [Vec<f64>]) {
        self.grids[g].program_transposed(w);
        let inp = self.grids[g].dims().1;
        for delta in deltas {
            let mut v = vec![0.0; inp];
            self.gemv_signed(g, delta, &mut v);
            *delta = v;
        }
    }

    /// Program grid `g` with `w` (`out × in`, row-major): open-loop on a
    /// healthy chip, closed-loop program-and-verify once faults are
    /// injected. The banks absorb per-cell failures (remap, then mask) and
    /// tally them, so only caller bugs error here.
    pub(crate) fn program(&mut self, g: usize, w: &[f64]) -> Result<(), ArchError> {
        if self.fault_tolerant_writes {
            let policy = WriteVerifyPolicy::default();
            self.grids[g].program_verified(w, &policy)
        } else {
            self.grids[g].program(w);
            Ok(())
        }
    }

    /// Inject a sampled fault population into every PE and switch writes
    /// to the closed-loop path. Deterministic in `plan.seed`; an
    /// out-of-range plan (see [`FaultPlan::validate`]) touches nothing.
    ///
    /// Ring `i` of a bank is stuck or dead by draw `i` of two streams
    /// addressed by the plan's seed and the bank's device identity, so
    /// a bank's faults do not depend on the size or order of the other
    /// banks on the chip.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, ArchError> {
        plan.validate()?;
        let _span = obs::span("engine.inject_faults");
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
            let seed = member_identity(plan.seed, bank.identity());
            for r in 0..rows {
                for c in 0..cols {
                    report.total_rings += 1;
                    let ring = (r * cols + c) as u64;
                    let u = unit_open(seeded_u64(seed, STREAM_DEVICE_STUCK, ring));
                    if u < plan.stuck_amorphous {
                        bank.inject_ring_fault(r, c, GstFault::StuckAmorphous);
                        report.stuck_amorphous += 1;
                    } else if u < plan.stuck_amorphous + plan.stuck_crystalline {
                        bank.inject_ring_fault(r, c, GstFault::StuckCrystalline);
                        report.stuck_crystalline += 1;
                    }
                    if unit_open(seeded_u64(seed, STREAM_DEVICE_DEAD, ring)) < plan.dead_rings {
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
    /// each PE's `"drift calibration"` ledger entry, so the chip's totals
    /// carry it, and is returned; zero without the statistical layer.
    pub fn calibrate_drift_compensation(&mut self) -> EnergyPj {
        let _span = obs::span("engine.drift_calibration");
        self.pes_mut().fold(EnergyPj::ZERO, |spent, pe| spent + pe.calibrate_drift())
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
    /// side's — every engine's total.
    pub fn total_energy(&self) -> EnergyPj {
        self.pes().map(|pe| pe.energy().total()).sum::<EnergyPj>() + self.ldsu.energy.total()
    }

    /// Every PE's simulated time as one flat sum in grid order (the
    /// sequential-tile upper bound), plus the digital side's.
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.pes().map(ProcessingElement::elapsed).sum::<Nanoseconds>() + self.ldsu.elapsed
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
    use crate::dfa::DfaFeedback;
    use crate::engine::{EngineOptions, PhotonicMlp};
    use crate::faults::{FaultPlan, FaultReport};
    use crate::transformer::{PhotonicTransformer, TransformerConfig};
    use crate::Chip;
    use trident_pcm::gst::GstFault;
    use trident_pcm::stat::StatParams;
    use trident_photonics::units::Hours;

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
    fn negative_pixel_forwards_like_a_dark_one() {
        // The one dense step clamps lanes at zero: a negative input is a
        // dark channel, not an out-of-range laser power, on every engine
        // — even when it outweighs every positive input.
        let image: Vec<f64> = (0..64).map(|i| (i % 10) as f64 / 10.0).collect();
        let (mut dark, mut negative) = (image.clone(), image);
        dark[9] = 0.0;
        negative[9] = -0.95;
        let cnn = || PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let want = cnn().forward(&dark);
        assert_eq!(bits(&cnn().try_forward_batch(&[&negative]).unwrap()[0]), bits(&want));
        let mlp = || PhotonicMlp::try_with_options(&[64, 16, 10], EngineOptions::default());
        let want = mlp().unwrap().try_forward(&dark).unwrap();
        assert_eq!(bits(&mlp().unwrap().try_forward(&negative).unwrap()), bits(&want));
    }

    /// Per-ring `(fault, masked)` of every bank in grid `g`.
    fn ring_faults(chip: &Chip, g: usize) -> Vec<(Option<GstFault>, bool)> {
        let banks = chip.grids[g].pes().iter().map(|pe| pe.bank());
        banks
            .flat_map(|b| {
                let rings = (0..b.rows()).flat_map(move |r| (0..b.cols()).map(move |c| (r, c)));
                rings.map(move |(r, c)| (b.fault(r, c), b.is_masked(r, c)))
            })
            .collect()
    }

    #[test]
    fn a_banks_faults_do_not_depend_on_the_banks_before_it() {
        // Layer 1 is 16 → 10 in both nets and built from the same
        // options, so it has the same bank identity; layer 0 differs.
        let plan = FaultPlan { dead_rings: 0.05, ..FaultPlan::stuck_cells(0.1, 4) };
        let faults = |dims: &[usize]| {
            let mut mlp = PhotonicMlp::try_with_options(dims, EngineOptions::default()).unwrap();
            mlp.chip_mut().inject_faults(&plan).unwrap();
            ring_faults(mlp.chip(), 1)
        };
        let wide = faults(&[64, 16, 10]);
        assert!(wide.iter().any(|f| f.0.is_some()) && wide.iter().any(|f| f.1));
        assert_eq!(wide, faults(&[32, 16, 10]));
    }

    #[test]
    fn a_banks_write_jitter_does_not_depend_on_other_writes() {
        // Per bank of layer 1: (write pulses, write energy bits) of one
        // closed-loop program, after an optional layer-0 reprogram.
        let layer1_writes = |reprogram_layer0: bool| {
            let opts = EngineOptions { variation_seed: 3, ..EngineOptions::default() };
            let mut mlp = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
            mlp.chip_mut().inject_faults(&FaultPlan::stuck_cells(0.05, 8)).unwrap();
            let chip = mlp.chip_mut();
            if reprogram_layer0 {
                let w0: Vec<f64> = (0..16 * 64).map(|i| (i % 11) as f64 / 5.5 - 1.0).collect();
                chip.program(0, &w0).unwrap();
            }
            let before: Vec<(u64, f64)> = chip.grids[1]
                .pes()
                .iter()
                .map(|pe| (pe.bank().ring_writes(), pe.energy().get("gst write").value()))
                .collect();
            let w1: Vec<f64> = (0..10 * 16).map(|i| (i % 7) as f64 / 3.5 - 1.0).collect();
            chip.program(1, &w1).unwrap();
            let pes = chip.grids[1].pes().iter().zip(before);
            let delta = pes.map(|(pe, (writes, pj))| {
                let spent = pe.energy().get("gst write").value() - pj;
                (pe.bank().ring_writes() - writes, spent.to_bits())
            });
            delta.collect::<Vec<_>>()
        };
        let alone = layer1_writes(false);
        assert!(alone.iter().all(|&(pulses, _)| pulses > 0));
        assert_eq!(alone, layer1_writes(true));
    }

    /// Psum charges on `chip` so far (0.1 pJ each).
    fn psums(chip: &Chip) -> usize {
        (chip.energy_ledger().get("psum accumulate").value() / 0.1).round() as usize
    }

    #[test]
    fn every_mvm_route_bills_its_partial_sums() {
        // Each route runs on a grid with more than one column tile and
        // bills rows × (col_tiles − 1) accumulates per MVM.
        let opts = EngineOptions::default();
        let routes = [
            ("mlp forward", {
                let mut mlp = PhotonicMlp::try_with_options(&[40, 4], opts).unwrap();
                mlp.try_forward(&[0.5; 40]).unwrap();
                (psums(mlp.chip()), 4 * 2)
            }),
            ("cnn head", {
                // 54 pooled features: the 10-row head has 4 column tiles.
                let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
                cnn.forward(&[0.5; 64]);
                (psums(cnn.chip()), 10 * 3)
            }),
            ("batched Wᵀ", {
                // Layer 1's Wᵀ is 8 × 20, two column tiles; one batch of
                // two samples, and no other grid has a second column tile.
                let mut mlp = PhotonicMlp::try_with_options(&[4, 8, 20], opts).unwrap();
                let xs = vec![vec![0.5, 0.25, 1.0, 0.0]; 2];
                mlp.try_train_batched(&xs, &[3, 17], 0.1, 1, 2).unwrap();
                (psums(mlp.chip()), 2 * 8)
            }),
            ("dfa projection", {
                let mlp = PhotonicMlp::try_with_options(&[4, 8, 20], opts).unwrap();
                let mut fb = DfaFeedback::for_engine(&mlp, 3);
                fb.project(0, &[0.1; 20]);
                (psums(&fb.chip), 8)
            }),
        ];
        for (route, (billed, want)) in routes {
            assert_eq!(billed, want, "{route}");
        }
    }

    #[test]
    fn drift_calibration_reaches_the_chip_totals() {
        let opts = EngineOptions { stat: Some(StatParams::default()), ..Default::default() };
        let mut mlp = PhotonicMlp::try_with_options(&[64, 16, 10], opts).unwrap();
        mlp.advance_deployment(Hours(720.0));
        let before = mlp.total_energy().value();
        let spent = mlp.calibrate_drift_compensation().value();
        assert!(spent > 0.0);
        let itemised = mlp.energy_ledger().get("drift calibration").value();
        assert!((itemised - spent).abs() <= 1e-12 * spent, "ledger {itemised} vs spent {spent}");
        let grown = mlp.total_energy().value() - before;
        assert!((grown - spent).abs() <= 1e-9 * before, "total grew {grown}, spent {spent}");
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
