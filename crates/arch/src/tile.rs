//! The one photonic GEMM primitive every model lowers onto.
//!
//! Trident runs every layer on the same hardware: a 16×16 PCM-MRR weight
//! bank per PE. A [`TileGemm`] owns the row-major grid of PEs that holds
//! one logical `out × in` matrix — an MLP layer, the CNN's filter bank or
//! dense head, every transformer projection and K/Vᵀ cache bank, a DFA
//! feedback matrix — and is the only place a matrix is cut into bank
//! tiles or cross-tile partial sums are accumulated.
//!
//! Tile `(r, c)` of the held matrix lives on PE `r·⌈cols/16⌉ + c`. The
//! forward matrix `W` is tiled with `⌈in/16⌉` columns; after
//! [`TileGemm::program_transposed`] the same PEs hold `Wᵀ` (Table II's
//! gradient-vector mode) with `⌈out/16⌉` columns — both grids have the
//! same tile count, so the re-indexing never leaves the PE vector.
//!
//! Partial sums accumulate digitally, `k`-ascending: every output row
//! receives its column tiles' contributions in column-tile order, so
//! results are bitwise reproducible. The MVMs return how many cross-tile
//! accumulations they made, and [`crate::chip::Chip`] bills every one.

use crate::error::ArchError;
use crate::pe::ProcessingElement;
use trident_pcm::gst::WriteVerifyPolicy;
use trident_pcm::stat::StatParams;
use trident_photonics::units::EnergyPj;

/// Rows and columns of every PCM-MRR weight bank.
pub(crate) const TILE: usize = 16;

/// How to build one tile's PE. The default is an ideal PE: no receiver
/// noise, no fabrication variation, deterministic device model.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeSpec {
    /// Receiver-noise seed (`None` = ideal detectors).
    pub noise_seed: Option<u64>,
    /// Per-ring Gaussian resonance offset σ (nm).
    pub resonance_sigma_nm: f64,
    /// The bank's device identity, unique within its chip: it addresses
    /// the fabrication offsets, fault sampling and write-verify jitter.
    pub identity: u64,
    /// Statistical device layer and this bank's identity seed.
    pub stat: Option<(StatParams, u64)>,
}

/// One logical `out × in` matrix on its grid of 16×16 PEs.
#[derive(Debug)]
pub(crate) struct TileGemm {
    out: usize,
    inp: usize,
    /// Whether the banks currently hold `Wᵀ` rather than `W`.
    transposed: bool,
    /// Row-major tiles of the held matrix.
    pes: Vec<ProcessingElement>,
}

impl TileGemm {
    /// A grid whose tile `t` (row-major) is built from `spec(t)`, called
    /// once per tile in tile order.
    pub(crate) fn with_pes(out: usize, inp: usize, mut spec: impl FnMut(usize) -> PeSpec) -> Self {
        let pes = (0..out.div_ceil(TILE) * inp.div_ceil(TILE))
            .map(|t| {
                let s = spec(t);
                let mut pe = ProcessingElement::with_variation(
                    TILE,
                    TILE,
                    s.noise_seed,
                    s.resonance_sigma_nm,
                    s.identity,
                );
                if let Some((params, identity)) = s.stat {
                    pe.bank_mut().enable_stat(params, identity);
                }
                pe
            })
            .collect();
        Self { out, inp, transposed: false, pes }
    }

    /// The logical matrix shape `(out, in)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.out, self.inp)
    }

    /// The grid's PEs, row-major.
    pub(crate) fn pes(&self) -> &[ProcessingElement] {
        &self.pes
    }

    /// The grid's PEs, row-major, mutably.
    pub(crate) fn pes_mut(&mut self) -> &mut [ProcessingElement] {
        &mut self.pes
    }

    /// `(rows, cols, col_tiles)` of the matrix the banks hold now.
    fn held(&self) -> (usize, usize, usize) {
        let (rows, cols) = if self.transposed { (self.inp, self.out) } else { (self.out, self.inp) };
        (rows, cols, cols.div_ceil(TILE))
    }

    /// Tile `t` of the held matrix cut from `w` (the logical `out × in`
    /// matrix, row-major), zero-padded and staged on the stack: band
    /// reprogramming runs per decode step, so this must not touch the heap.
    fn tile(&self, w: &[f64], t: usize) -> [f64; TILE * TILE] {
        let (rows, cols, col_tiles) = self.held();
        let (rt, ct) = (t / col_tiles, t % col_tiles);
        let mut tile = [0.0; TILE * TILE];
        for r in 0..TILE {
            let i = rt * TILE + r;
            if i >= rows {
                break;
            }
            for c in 0..TILE {
                let j = ct * TILE + c;
                if j >= cols {
                    break;
                }
                // Element (i, j) of Wᵀ is element (j, i) of W.
                tile[r * TILE + c] =
                    if self.transposed { w[j * self.inp + i] } else { w[i * self.inp + j] };
            }
        }
        tile
    }

    /// Program every tile with `w` (`out × in`, row-major), tile by tile
    /// in row-major order.
    pub(crate) fn program(&mut self, w: &[f64]) {
        self.transposed = false;
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t);
            self.pes[t].program(&tile);
        }
    }

    /// Program `Wᵀ` for the Table II gradient-vector mode: tile `(r, c)`
    /// of `Wᵀ` lands on PE `r·⌈out/16⌉ + c`. MVMs then run over `Wᵀ`
    /// until the next [`TileGemm::program`].
    pub(crate) fn program_transposed(&mut self, w: &[f64]) {
        self.transposed = true;
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t);
            self.pes[t].program(&tile);
        }
    }

    /// [`TileGemm::program`] through the banks' closed-loop
    /// program-and-verify path. Per-cell failures are absorbed by the
    /// banks' remap/mask degradation, so only shape bugs error here.
    pub(crate) fn program_verified(
        &mut self,
        w: &[f64],
        policy: &WriteVerifyPolicy,
    ) -> Result<(), ArchError> {
        self.transposed = false;
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t);
            self.pes[t].program_verified(&tile, policy)?;
        }
        Ok(())
    }

    /// (Re)program the tiles covering logical rows `[rt·16, (rt+1)·16)`
    /// of `w`. A cell asked for the weight it already holds is skipped by
    /// its bank's write memo (no pulse, no LUT search), so re-banding
    /// costs write energy and row refreshes only for the cells that
    /// changed; the rest is staging and comparing each 16×16 tile.
    /// Returns the write energy spent.
    pub(crate) fn program_row_band(&mut self, w: &[f64], rt: usize) -> EnergyPj {
        let col_tiles = self.inp.div_ceil(TILE);
        (0..col_tiles).map(|ct| self.program_tile(w, rt * col_tiles + ct)).sum()
    }

    /// (Re)program the tiles covering logical columns `[ct·16, (ct+1)·16)`
    /// of `w`, at the same cost as [`TileGemm::program_row_band`].
    /// Returns the write energy spent.
    pub(crate) fn program_col_band(&mut self, w: &[f64], ct: usize) -> EnergyPj {
        let col_tiles = self.inp.div_ceil(TILE);
        (0..self.out.div_ceil(TILE)).map(|rt| self.program_tile(w, rt * col_tiles + ct)).sum()
    }

    fn program_tile(&mut self, w: &[f64], t: usize) -> EnergyPj {
        let tile = self.tile(w, t);
        let pe = &mut self.pes[t];
        let before = pe.energy().get("gst write");
        pe.program(&tile);
        pe.energy().get("gst write") - before
    }

    /// Unsigned MVM of the held matrix into `y` (overwritten; one entry
    /// per held row), the dense forward step. The electronic AGC divides
    /// `x` by its largest entry (floored at 1e-12) onto the lasers, a
    /// negative entry drives its lane dark, and each detected partial is
    /// multiplied back by that scale before it accumulates. Returns the
    /// number of cross-tile accumulations.
    pub(crate) fn gemv_unsigned(&mut self, x: &[f64], y: &mut [f64]) -> usize {
        let scale = x.iter().fold(0.0f64, |m, &v| m.max(v)).max(1e-12);
        self.gemv(x, |v| (v / scale).max(0.0), scale, false, y)
    }

    /// Signed MVM of the held matrix (two optical passes per tile) into
    /// `y` (overwritten). Returns the number of cross-tile accumulations.
    pub(crate) fn gemv_signed(&mut self, x: &[f64], y: &mut [f64]) -> usize {
        self.gemv(x, |v| v, 1.0, true, y)
    }

    fn gemv(
        &mut self,
        x: &[f64],
        lane: impl Fn(f64) -> f64,
        scale: f64,
        signed: bool,
        y: &mut [f64],
    ) -> usize {
        let (rows, cols, col_tiles) = self.held();
        assert_eq!(y.len(), rows, "output width mismatch");
        y.fill(0.0);
        let width = cols.min(x.len());
        let mut lanes = [0.0; TILE];
        let mut partial = [0.0; TILE];
        let mut psums = 0;
        for ct in 0..col_tiles {
            lanes.fill(0.0);
            for (c, l) in lanes.iter_mut().enumerate() {
                let j = ct * TILE + c;
                if j < width {
                    *l = lane(x[j]);
                }
            }
            for rt in 0..rows.div_ceil(TILE) {
                let pe = &mut self.pes[rt * col_tiles + ct];
                if signed {
                    pe.mvm_signed_into(&lanes, &mut partial);
                } else {
                    pe.mvm_unsigned_into(&lanes, &mut partial);
                }
                for (i, &p) in partial.iter().enumerate() {
                    let row = rt * TILE + i;
                    if row < rows {
                        y[row] += p * scale;
                        if ct > 0 {
                            psums += 1;
                        }
                    }
                }
            }
        }
        psums
    }

    /// Fire every forward row band's GST activation cells on the logits
    /// `h` (`out` wide) into `act`; the band's first column tile's PE
    /// serves its rows.
    pub(crate) fn activate_rows(&mut self, h: &[f64], act: &mut [f64]) {
        let col_tiles = self.inp.div_ceil(TILE);
        for rt in 0..self.out.div_ceil(TILE) {
            let rows = rt * TILE..(rt * TILE + TILE).min(self.out);
            let fired = self.pes[rt * col_tiles].latch_and_activate(&h[rows.clone()]);
            act[rows].copy_from_slice(&fired);
        }
    }

    /// Table II outer-product mode, tile by tile: add `δW = δh ⊗ y`,
    /// divided by `n` (the batch size), into `grad` (row-major, `in`
    /// wide). `y` enters the banks as weights, so it is normalised by its
    /// largest magnitude and restored after readout. `δh` is `out` wide,
    /// or shorter on a one-row-tile grid: the CNN streams one filter's
    /// error per position into that filter's row of `grad`.
    pub(crate) fn outer_product(&mut self, dh: &[f64], y: &[f64], n: f64, grad: &mut [f64]) {
        let y_scale = y.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-12);
        let col_tiles = self.inp.div_ceil(TILE);
        for (t, pe) in self.pes.iter_mut().enumerate() {
            let (dh_lo, y_lo) = (t / col_tiles * TILE, t % col_tiles * TILE);
            let dh_slice = &dh[dh_lo..(dh_lo + TILE).min(dh.len())];
            let y_tile = &y[y_lo..(y_lo + TILE).min(self.inp)];
            let mut y_slice = [0.0; TILE];
            for (s, &v) in y_slice.iter_mut().zip(y_tile) {
                *s = v / y_scale;
            }
            let products = pe.outer_product(dh_slice, &y_slice[..y_tile.len()]);
            for (i, row) in products.iter().enumerate() {
                for (j, &p) in row.iter().enumerate() {
                    grad[(dh_lo + i) * self.inp + (y_lo + j)] += p * y_scale / n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A grid of ideal PEs for an `out × in` matrix.
    fn ideal(out: usize, inp: usize) -> TileGemm {
        TileGemm::with_pes(out, inp, |_| PeSpec::default())
    }

    fn noisy(seed: u64) -> impl FnMut(usize) -> PeSpec {
        move |t| PeSpec { noise_seed: Some(seed + t as u64), ..PeSpec::default() }
    }

    fn matrix(rng: &mut StdRng, n: usize, lo: f64) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(lo..1.0)).collect()
    }

    /// The per-tile lowering every model used to carry: tiles cut in
    /// row-major order, one input slice per `(r, c)` tile, partial sums
    /// accumulated row tile by row tile.
    struct Reference {
        pes: Vec<ProcessingElement>,
        rows: usize,
        cols: usize,
    }

    impl Reference {
        fn new(rows: usize, cols: usize, seed: u64, m: &[f64]) -> Self {
            let (rt, ct) = (rows.div_ceil(TILE), cols.div_ceil(TILE));
            let mut pes = Vec::new();
            for t in 0..rt * ct {
                let mut pe = ProcessingElement::new(TILE, TILE, Some(seed + t as u64));
                let mut tile = vec![0.0; TILE * TILE];
                for r in 0..TILE {
                    for c in 0..TILE {
                        let (i, j) = ((t / ct) * TILE + r, (t % ct) * TILE + c);
                        if i < rows && j < cols {
                            tile[r * TILE + c] = m[i * cols + j];
                        }
                    }
                }
                pe.program(&tile);
                pes.push(pe);
            }
            Self { pes, rows, cols }
        }

        fn mvm(&mut self, x: &[f64], scale: f64, signed: bool) -> (Vec<f64>, usize) {
            let (rt, ct) = (self.rows.div_ceil(TILE), self.cols.div_ceil(TILE));
            let mut y = vec![0.0; self.rows];
            let mut psums = 0;
            for r in 0..rt {
                for c in 0..ct {
                    let mut slice = vec![0.0; TILE];
                    for j in 0..TILE {
                        if c * TILE + j < self.cols {
                            slice[j] = x[c * TILE + j];
                        }
                    }
                    let pe = &mut self.pes[r * ct + c];
                    let partial = if signed { pe.mvm_signed(&slice) } else { pe.mvm_unsigned(&slice) };
                    for (i, &p) in partial.iter().enumerate() {
                        if r * TILE + i < self.rows {
                            y[r * TILE + i] += p * scale;
                            psums += usize::from(c > 0);
                        }
                    }
                }
            }
            (y, psums)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn transpose(w: &[f64], out: usize, inp: usize) -> Vec<f64> {
        (0..inp * out).map(|n| w[(n % out) * inp + n / out]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Signed and unsigned MVMs, plain and transposed, equal the
        /// naive per-tile loop bit for bit, psum count included.
        #[test]
        fn gemv_matches_naive_tile_loop(out in 1usize..=40, inp in 1usize..=40, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = matrix(&mut rng, out * inp, -1.0);
            let x = matrix(&mut rng, inp, 0.0);
            let delta = matrix(&mut rng, out, -1.0);

            let mut gemm = TileGemm::with_pes(out, inp, noisy(seed));
            gemm.program(&w);
            let mut reference = Reference::new(out, inp, seed, &w);
            let mut y = vec![0.0; out];
            let n = gemm.gemv_unsigned(&x, &mut y);
            let scale = x.iter().fold(0.0f64, |m, &v| m.max(v)).max(1e-12);
            let lanes: Vec<f64> = x.iter().map(|v| v / scale).collect();
            let (want, want_n) = reference.mvm(&lanes, scale, false);
            prop_assert_eq!(bits(&y), bits(&want));
            prop_assert_eq!(n, want_n);
            let n = gemm.gemv_signed(&x, &mut y);
            let (want, want_n) = reference.mvm(&x, 1.0, true);
            prop_assert_eq!(bits(&y), bits(&want));
            prop_assert_eq!(n, want_n);

            let mut t_gemm = TileGemm::with_pes(out, inp, noisy(seed));
            t_gemm.program_transposed(&w);
            let mut t_ref = Reference::new(inp, out, seed, &transpose(&w, out, inp));
            let mut v = vec![0.0; inp];
            let n = t_gemm.gemv_signed(&delta, &mut v);
            let (want, want_n) = t_ref.mvm(&delta, 1.0, true);
            prop_assert_eq!(bits(&v), bits(&want));
            prop_assert_eq!(n, want_n);
        }
    }

    #[test]
    fn transposed_tile_lands_on_reindexed_pe() {
        let (out, inp) = (20, 40);
        let w: Vec<f64> = (0..out * inp).map(|n| (n % 19) as f64 / 9.5 - 1.0).collect();
        let mut gemm = ideal(out, inp);
        gemm.program_transposed(&w);
        let col_tiles = out.div_ceil(TILE);
        for r in 0..inp.div_ceil(TILE) {
            for c in 0..col_tiles {
                // Tile (r, c) of Wᵀ: its element (i, j) is W[c·16 + j][r·16 + i].
                let mut tile = vec![0.0; TILE * TILE];
                for i in 0..TILE {
                    for j in 0..TILE {
                        let (row, col) = (c * TILE + j, r * TILE + i);
                        if row < out && col < inp {
                            tile[i * TILE + j] = w[row * inp + col];
                        }
                    }
                }
                let mut expected = ProcessingElement::new(TILE, TILE, None);
                expected.program(&tile);
                let got = &gemm.pes_mut()[r * col_tiles + c];
                for i in 0..TILE {
                    for j in 0..TILE {
                        assert_eq!(
                            got.bank().weight(i, j).to_bits(),
                            expected.bank().weight(i, j).to_bits(),
                            "tile ({r}, {c}) cell ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reprogramming_an_unchanged_band_writes_nothing() {
        let (out, inp) = (24, 40);
        let w: Vec<f64> = (0..out * inp).map(|n| (n % 13) as f64 / 6.5 - 1.0).collect();
        let mut gemm = ideal(out, inp);
        gemm.program(&w);
        let written = |g: &TileGemm| g.pes().iter().map(|pe| pe.energy().get("gst write")).sum();
        let before: EnergyPj = written(&gemm);
        assert!(before.value() > 0.0);
        for band in 0..2 {
            assert_eq!(gemm.program_row_band(&w, band), EnergyPj::ZERO);
        }
        for band in 0..3 {
            assert_eq!(gemm.program_col_band(&w, band), EnergyPj::ZERO);
        }
        assert_eq!(written(&gemm), before);
    }
}
