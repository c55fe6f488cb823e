//! Convolutional networks on the photonic hardware.
//!
//! The paper evaluates CNNs; this module runs one *functionally*. A
//! convolution maps onto the MRR weight bank through the same im2col
//! lowering the performance model assumes (`workload::layer::GemmView`):
//! the filter bank `[out_c × in_c·k·k]` is programmed once, and every
//! output position streams its receptive-field patch through the bank as
//! one WDM vector — weight-stationary, exactly §IV's dataflow.
//!
//! Training follows Table II with one extension the paper leaves
//! implicit: a convolution produces many output positions per row, so
//! `f'(h)` is one bit *per position*, not per row. We model the LDSU
//! with a one-bit-per-position latch FIFO spilled to the PE's L1 (64
//! positions = 8 bytes — negligible next to the 16 kB cache), and note
//! this as a reproduction decision in DESIGN.md.
//!
//! The demo topology is `conv(k×k) → GST activation → 2×2 maxpool →
//! flatten → dense`, enough to classify the synthetic digit images
//! end-to-end on simulated optics.

use crate::chip::Chip;
use crate::engine::{
    accuracy_of, apply_update, argmax, check_set, check_widths, grow_slots, refill,
    reserve_slots, softmax_grad,
};
use crate::error::ArchError;
use crate::pe::{spilled_hadamard, GST_SLOPE, LOGIT_THRESHOLD};
use crate::tile::{TileGemm, TILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_photonics::units::{EnergyPj, Nanoseconds};

/// Chip grids: the `out_c × in_c·k·k` filter bank, the dense head.
const CONV: usize = 0;
const DENSE: usize = 1;

/// A small photonic CNN: one conv layer, GST activation, 2×2 maxpool,
/// and a dense classifier head.
///
/// Working memory follows the MLP engine's rule (DESIGN.md §15): the
/// im2col matrix, conv logits, feature map, pool routing and pooled
/// features are sized from the geometry at construction and double as
/// the backward pass's caches; only the per-sample output slots grow,
/// tallied in [`PhotonicCnn::hot_path_allocs`].
pub struct PhotonicCnn {
    in_h: usize,
    in_w: usize,
    in_c: usize,
    kernel: usize,
    out_c: usize,
    classes: usize,
    /// Conv filters, row-major `[out_c × in_c·k·k]` (master copy).
    conv_weights: Vec<f64>,
    /// Dense head, row-major `[classes × features]`.
    dense_weights: Vec<f64>,
    /// The filter bank and the dense head ([`CONV`], [`DENSE`]).
    chip: Chip,
    weight_bits: u8,
    /// im2col matrix of the latest image: one `in_c·k·k` patch row per
    /// output position.
    patches: Vec<f64>,
    /// Conv logits of the latest image, one `out_c` row per position.
    conv_logits: Vec<f64>,
    /// Post-activation conv feature map, `out_c × conv_h·conv_w`.
    activ: Vec<f64>,
    /// Feature-map index each pooled feature was taken from.
    pool_argmax: Vec<usize>,
    /// Pooled features entering the dense head.
    features: Vec<f64>,
    /// Per-sample logits of the latest forward.
    outputs: Vec<Vec<f64>>,
    /// Growth events on `outputs` since construction.
    heap_allocs: u64,
}

impl PhotonicCnn {
    /// Build a CNN for `in_c × in_h × in_w` inputs: `out_c` filters of
    /// `kernel × kernel`, stride 1, no padding, then 2×2 pool and a dense
    /// head to `classes`, trained on a `weight_bits`-bit grid in `2..=8`
    /// (the MLP's range).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kernel: usize,
        classes: usize,
        seed: u64,
        weight_bits: u8,
    ) -> Self {
        assert!(in_h > kernel && in_w > kernel, "image too small for the kernel");
        let patch = in_c * kernel * kernel;
        assert!(patch <= TILE, "receptive field must fit the bank's channels");
        assert!(out_c <= TILE, "filters must fit the bank's rows");
        assert!((2..=8).contains(&weight_bits), "weight_bits {weight_bits} outside 2..=8");
        let (conv_h, conv_w) = (in_h - kernel + 1, in_w - kernel + 1);
        let (pool_h, pool_w) = (conv_h / 2, conv_w / 2);
        let features = out_c * pool_h * pool_w;
        let positions = conv_h * conv_w;

        let mut rng = StdRng::seed_from_u64(seed);
        let conv_limit = (6.0 / (patch + out_c) as f64).sqrt().min(1.0);
        let conv_weights: Vec<f64> =
            (0..out_c * patch).map(|_| rng.gen_range(-conv_limit..conv_limit)).collect();
        let dense_limit = (6.0 / (features + classes) as f64).sqrt().min(1.0);
        let dense_weights: Vec<f64> =
            (0..classes * features).map(|_| rng.gen_range(-dense_limit..dense_limit)).collect();

        let grids = vec![TileGemm::new(out_c, patch), TileGemm::new(classes, features)];
        let mut cnn = Self {
            in_h,
            in_w,
            in_c,
            kernel,
            out_c,
            classes,
            conv_weights,
            dense_weights,
            chip: Chip::new(grids, seed),
            weight_bits,
            patches: vec![0.0; positions * patch],
            conv_logits: vec![0.0; positions * out_c],
            activ: vec![0.0; out_c * positions],
            pool_argmax: vec![0; features],
            features: vec![0.0; features],
            outputs: Vec::new(),
            heap_allocs: 0,
        };
        cnn.program_all();
        cnn
    }

    /// Convolution output spatial size.
    pub fn conv_hw(&self) -> (usize, usize) {
        (self.in_h - self.kernel + 1, self.in_w - self.kernel + 1)
    }

    /// Pooled feature-map spatial size.
    pub fn pool_hw(&self) -> (usize, usize) {
        let (h, w) = self.conv_hw();
        (h / 2, w / 2)
    }

    /// Flattened feature count entering the dense head.
    pub fn feature_count(&self) -> usize {
        let (h, w) = self.pool_hw();
        self.out_c * h * w
    }

    /// The chip both banks run on: faults, aging, drift, ring tallies.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The chip, mutably.
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// Program both banks through the chip's write path. Only a caller bug
    /// fails a write, and the clipped, quantized masters rule those out.
    fn program_all(&mut self) {
        let written = self.chip.program(CONV, &self.conv_weights);
        let written = written.and_then(|()| self.chip.program(DENSE, &self.dense_weights));
        assert!(written.is_ok(), "CNN weight write failed: {written:?}");
    }

    /// Forward one image (`in_c·in_h·in_w` values in `[0, 1]`; a negative
    /// value drives its laser lane at zero, as in the MLP). Returns class
    /// logits. Caches everything the backward pass needs.
    pub fn forward(&mut self, image: &[f64]) -> Vec<f64> {
        assert_eq!(image.len(), self.in_c * self.in_h * self.in_w, "image size mismatch");
        self.sweep(&[image])[0].clone()
    }

    /// Forward a batch of images into the engine's reusable per-sample
    /// output slots. The sweep is sample-major — identical PE call order
    /// to calling [`PhotonicCnn::forward`] per image, so outputs are
    /// bitwise identical to the sequential path.
    ///
    /// Returns per-sample logits in input order; the slice borrows the
    /// engine's output slots and is valid until the next forward.
    pub fn try_forward_batch<S: AsRef<[f64]>>(
        &mut self,
        inputs: &[S],
    ) -> Result<&[Vec<f64>], ArchError> {
        check_widths(inputs, self.in_c * self.in_h * self.in_w)?;
        Ok(self.sweep(inputs))
    }

    /// The one forward sweep behind both entry points.
    fn sweep<S: AsRef<[f64]>>(&mut self, inputs: &[S]) -> &[Vec<f64>] {
        let n = inputs.len();
        let mut outputs = std::mem::take(&mut self.outputs);
        grow_slots(&mut outputs, n, &mut self.heap_allocs);
        for (slot, x) in outputs.iter_mut().zip(inputs) {
            self.forward_image(x.as_ref(), slot);
        }
        self.outputs = outputs;
        &self.outputs[..n]
    }

    /// One image through im2col, the filter bank, the GST activation,
    /// the pool and the dense head, refilling the caches on the way and
    /// writing the logits into `out`.
    fn forward_image(&mut self, image: &[f64], out: &mut Vec<f64>) {
        let (conv_h, conv_w) = self.conv_hw();
        let positions = conv_h * conv_w;
        let patch_len = self.in_c * self.kernel * self.kernel;
        let out_c = self.out_c;

        // im2col gather: one `patch_len`-wide row per output position.
        for oy in 0..conv_h {
            for ox in 0..conv_w {
                let mut i = (oy * conv_w + ox) * patch_len;
                for c in 0..self.in_c {
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            self.patches[i] =
                                image[(c * self.in_h + oy + ky) * self.in_w + ox + kx];
                            i += 1;
                        }
                    }
                }
            }
        }

        // Conv: stream each im2col row through the filter bank, fire the
        // GST activation per position (per-position f' bits cached to L1).
        let mut fired = [0.0; TILE];
        for pos in 0..positions {
            let patch = &self.patches[pos * patch_len..(pos + 1) * patch_len];
            let logits = &mut self.conv_logits[pos * out_c..(pos + 1) * out_c];
            self.chip.gemv_unsigned(CONV, patch, logits);
            self.chip.grids[CONV].activate_rows(logits, &mut fired[..out_c]);
            for (f, &y) in fired[..out_c].iter().enumerate() {
                self.activ[f * positions + pos] = y;
            }
            // One bit per row per position spilled to L1.
            self.chip.ldsu.energy.charge("ldsu fifo", EnergyPj(0.01 * out_c as f64));
        }

        // 2×2 max pool with argmax routing cached.
        let (pool_h, pool_w) = self.pool_hw();
        for f in 0..out_c {
            for py in 0..pool_h {
                for px in 0..pool_w {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx =
                                (f * conv_h + 2 * py + dy) * conv_w + 2 * px + dx;
                            if self.activ[idx] > best {
                                best = self.activ[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let out_idx = (f * pool_h + py) * pool_w + px;
                    self.features[out_idx] = best;
                    self.pool_argmax[out_idx] = best_idx;
                }
            }
        }

        // Dense head: the same chip step as an MLP layer.
        refill(out, &mut self.heap_allocs, |out| {
            out.resize(self.classes, 0.0);
            self.chip.gemv_unsigned(DENSE, &self.features, out);
        });
    }

    /// Pre-grow `batch` per-sample output slots so steady-state forwards
    /// perform no engine-side heap allocation. Growth here is warm-up,
    /// not counted in [`PhotonicCnn::hot_path_allocs`].
    pub fn reserve_forward_scratch(&mut self, batch: usize) {
        reserve_slots(&mut self.outputs, batch, self.classes);
    }

    /// Output-slot growth events since construction. Zero across a
    /// window of warm forwards is the zero-allocation claim.
    pub fn hot_path_allocs(&self) -> u64 {
        self.heap_allocs
    }

    /// Digital float reference of the same network with the convolution
    /// lowered to **im2col + the blocked GEMM** from `trident_nn::linalg`
    /// (the lowering `workload::layer::GemmView` assumes), then the pool
    /// and dense head in plain floats. This is the software-fallback conv
    /// path the `cnn_forward_im2col_gemm` bench measures against
    /// [`PhotonicCnn::digital_forward_naive`].
    pub fn digital_forward(&self, image: &[f64]) -> Vec<f64> {
        use trident_nn::{linalg, Tensor};
        let (conv_h, conv_w) = self.conv_hw();
        let positions = conv_h * conv_w;
        let patch_len = self.in_c * self.kernel * self.kernel;
        // im2col: [positions, patch_len] patch matrix.
        let mut cols = Tensor::zeros(&[positions, patch_len]);
        {
            let data = cols.data_mut();
            for oy in 0..conv_h {
                for ox in 0..conv_w {
                    let mut i = (oy * conv_w + ox) * patch_len;
                    for c in 0..self.in_c {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                data[i] = image
                                    [(c * self.in_h + oy + ky) * self.in_w + ox + kx]
                                    as f32;
                                i += 1;
                            }
                        }
                    }
                }
            }
        }
        // Filters transposed to [patch_len, out_c] so one GEMM produces
        // all positions × all filters.
        let mut wt = Tensor::zeros(&[patch_len, self.out_c]);
        {
            let data = wt.data_mut();
            for f in 0..self.out_c {
                for j in 0..patch_len {
                    data[j * self.out_c + f] = self.conv_weights[f * patch_len + j] as f32;
                }
            }
        }
        let h = linalg::matmul(&cols, &wt); // [positions, out_c]
        let mut activ = vec![0.0f32; self.out_c * positions];
        for pos in 0..positions {
            for f in 0..self.out_c {
                let v = h.data()[pos * self.out_c + f];
                let threshold = LOGIT_THRESHOLD as f32;
                activ[f * positions + pos] =
                    if v >= threshold { GST_SLOPE as f32 * (v - threshold) } else { 0.0 };
            }
        }
        self.digital_head(&activ)
    }

    /// Digital float reference with the convolution as direct per-pixel
    /// loops (no im2col, no GEMM) — the naive baseline for the
    /// `cnn_forward_im2col_gemm` bench.
    pub fn digital_forward_naive(&self, image: &[f64]) -> Vec<f64> {
        let (conv_h, conv_w) = self.conv_hw();
        let positions = conv_h * conv_w;
        let patch_len = self.in_c * self.kernel * self.kernel;
        let mut activ = vec![0.0f32; self.out_c * positions];
        for f in 0..self.out_c {
            for oy in 0..conv_h {
                for ox in 0..conv_w {
                    let mut v = 0.0f32;
                    for c in 0..self.in_c {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let w = self.conv_weights
                                    [f * patch_len + (c * self.kernel + ky) * self.kernel + kx]
                                    as f32;
                                let px = image
                                    [(c * self.in_h + oy + ky) * self.in_w + ox + kx]
                                    as f32;
                                v += w * px;
                            }
                        }
                    }
                    let threshold = LOGIT_THRESHOLD as f32;
                    activ[f * positions + oy * conv_w + ox] =
                        if v >= threshold { GST_SLOPE as f32 * (v - threshold) } else { 0.0 };
                }
            }
        }
        self.digital_head(&activ)
    }

    /// Shared pool + dense head of the digital reference paths. `activ`
    /// is `[out_c × conv_h·conv_w]` feature-major.
    fn digital_head(&self, activ: &[f32]) -> Vec<f64> {
        let (conv_h, conv_w) = self.conv_hw();
        let (pool_h, pool_w) = self.pool_hw();
        let feature_total = self.feature_count();
        let mut features = vec![0.0f32; feature_total];
        for f in 0..self.out_c {
            for py in 0..pool_h {
                for px in 0..pool_w {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = f * conv_h * conv_w
                                + (2 * py + dy) * conv_w
                                + (2 * px + dx);
                            best = best.max(activ[idx]);
                        }
                    }
                    features[(f * pool_h + py) * pool_w + px] = best;
                }
            }
        }
        (0..self.classes)
            .map(|class| {
                (0..feature_total)
                    .map(|j| self.dense_weights[class * feature_total + j] * f64::from(features[j]))
                    .sum()
            })
            .collect()
    }

    /// Predicted class for one image (NaN-safe, see [`argmax`]).
    pub fn try_predict(&mut self, image: &[f64]) -> Result<usize, ArchError> {
        Ok(argmax(&self.try_forward_batch(&[image])?[0]))
    }

    /// Accuracy over a labelled set; an unpaired, empty or mislabelled
    /// set is a typed error before the first forward.
    pub fn try_accuracy(
        &mut self,
        images: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<f64, ArchError> {
        check_set(images, labels, self.in_c * self.in_h * self.in_w, self.classes)?;
        accuracy_of(images, labels, |x| Ok(self.forward(x)))
    }

    /// One in-situ training step. The dense head's backward is the MLP's
    /// layer steps (outer product, billed `Wᵀ` MVM); the conv gradient
    /// accumulates per-position outer products of the pooled-and-routed
    /// error with the cached patches.
    pub fn train_sample(&mut self, image: &[f64], label: usize, lr: f64) -> f64 {
        let logits = self.forward(image);
        let (loss, mut delta) = softmax_grad(&logits, label);
        let mut dense_grad = vec![0.0; self.dense_weights.len()];
        self.chip.grids[DENSE].outer_product(&delta, &self.features, 1.0, &mut dense_grad);
        // δ ← Wᵀ δ, the pooled features' error. The head stays transposed
        // until the update's `program_all` restores it: restoring here as
        // well would rewrite the whole head every step.
        self.chip.gradient_vectors(DENSE, &self.dense_weights, std::slice::from_mut(&mut delta));

        // Unpool: route each feature's error to its argmax position, then
        // apply its per-position spilled `f'(h)` bit.
        let (conv_h, conv_w) = self.conv_hw();
        let patch_len = self.in_c * self.kernel * self.kernel;
        let mut conv_grad = vec![0.0; self.out_c * patch_len];
        for (out_idx, &src_idx) in self.pool_argmax.iter().enumerate() {
            let d = delta[out_idx];
            if d == 0.0 {
                continue;
            }
            // src_idx = f·positions + pos, pos = oy·conv_w + ox
            let (f, pos) = (src_idx / (conv_h * conv_w), src_idx % (conv_h * conv_w));
            let h = self.conv_logits[pos * self.out_c + f];
            if h < LOGIT_THRESHOLD {
                continue;
            }
            // Per-position outer product row: δW_conv[f] += δh · patch.
            let patch = &self.patches[pos * patch_len..(pos + 1) * patch_len];
            let row = &mut conv_grad[f * patch_len..(f + 1) * patch_len];
            self.chip.grids[CONV].outer_product(&[spilled_hadamard(d, h)], patch, 1.0, row);
        }

        // Eq. 1 updates + reprogram.
        apply_update(&mut self.dense_weights, &dense_grad, lr, self.weight_bits);
        apply_update(&mut self.conv_weights, &conv_grad, lr, self.weight_bits);
        self.program_all();
        loss
    }

    /// Train over a dataset, checked as [`PhotonicCnn::try_accuracy`]
    /// checks it before the chip is touched; returns per-epoch mean losses.
    pub fn try_train(
        &mut self,
        images: &[Vec<f64>],
        labels: &[usize],
        lr: f64,
        epochs: usize,
    ) -> Result<Vec<f64>, ArchError> {
        check_set(images, labels, self.in_c * self.in_h * self.in_w, self.classes)?;
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, &l) in images.iter().zip(labels) {
                total += self.train_sample(x, l, lr);
            }
            history.push(total / images.len() as f64);
        }
        Ok(history)
    }

    /// Total optical energy spent so far.
    pub fn total_energy(&self) -> EnergyPj {
        self.chip.total_energy()
    }

    /// Simulated time across both banks ([`Chip::total_elapsed`]).
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.chip.total_elapsed()
    }

    /// Conv filter weights (master copy, for verification).
    pub fn conv_weights(&self) -> &[f64] {
        &self.conv_weights
    }

    /// Dense-head weights (master copy, for verification).
    pub fn dense_weights(&self) -> &[f64] {
        &self.dense_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_nn::data::synthetic_digits;

    fn digit_images(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 13);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn shapes_are_consistent() {
        let cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 1, 8);
        assert_eq!(cnn.conv_hw(), (6, 6));
        assert_eq!(cnn.pool_hw(), (3, 3));
        assert_eq!(cnn.feature_count(), 54);
    }

    #[test]
    fn forward_matches_float_reference() {
        let mut cnn = PhotonicCnn::new(1, 8, 8, 4, 3, 10, 2, 8);
        let (xs, _) = digit_images(1);
        let image = &xs[0];
        let logits = cnn.forward(image);
        assert_eq!(logits.len(), 10);

        // Float mirror of the same pipeline.
        let patch_len = 9;
        let (conv_h, conv_w) = cnn.conv_hw();
        let mut activ = vec![0.0; 4 * conv_h * conv_w];
        for oy in 0..conv_h {
            for ox in 0..conv_w {
                for f in 0..4 {
                    let mut h = 0.0;
                    for ky in 0..3 {
                        for kx in 0..3 {
                            h += cnn.conv_weights()[f * patch_len + ky * 3 + kx]
                                * image[(oy + ky) * 8 + ox + kx];
                        }
                    }
                    let y = if h >= LOGIT_THRESHOLD { GST_SLOPE * (h - LOGIT_THRESHOLD) } else { 0.0 };
                    activ[(f * conv_h + oy) * conv_w + ox] = y;
                }
            }
        }
        let (pool_h, pool_w) = cnn.pool_hw();
        let mut features = vec![0.0; cnn.feature_count()];
        for f in 0..4 {
            for py in 0..pool_h {
                for px in 0..pool_w {
                    let mut best = f64::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            best = best.max(
                                activ[(f * conv_h + 2 * py + dy) * conv_w + 2 * px + dx],
                            );
                        }
                    }
                    features[(f * pool_h + py) * pool_w + px] = best;
                }
            }
        }
        let ft = cnn.feature_count();
        for class in 0..10 {
            let exact: f64 =
                (0..ft).map(|j| cnn.dense_weights[class * ft + j] * features[j]).sum();
            // 54 analog accumulations (quantization + crosstalk per
            // feature) widen the budget relative to the MLP tests.
            assert!(
                (logits[class] - exact).abs() < 0.2,
                "class {class}: photonic {} vs float {exact}",
                logits[class]
            );
        }
    }

    #[test]
    fn cnn_trains_on_digits() {
        let (xs, labels) = digit_images(3);
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let history = cnn.try_train(&xs, &labels, 0.1, 10).unwrap();
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "conv training loss should fall: {history:?}"
        );
        let acc = cnn.try_accuracy(&xs, &labels).unwrap();
        assert!(acc > 0.5, "photonic CNN accuracy {acc}");
        assert!(cnn.total_energy().value() > 0.0);
    }

    #[test]
    #[should_panic]
    fn oversized_receptive_field_rejected() {
        // 3 channels × 3×3 = 27 > 16 channels.
        let _ = PhotonicCnn::new(3, 8, 8, 4, 3, 10, 1, 8);
    }

    #[test]
    #[should_panic(expected = "weight_bits 1 outside 2..=8")]
    fn one_bit_weights_rejected() {
        // One bit leaves a single level: quantize would divide by zero.
        let _ = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 1);
    }

    #[test]
    #[should_panic(expected = "weight_bits 0 outside 2..=8")]
    fn zero_bit_weights_rejected() {
        let _ = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 0);
    }

    #[test]
    fn bad_sets_are_typed_errors_before_the_chip_is_touched() {
        let (xs, mut labels) = digit_images(1);
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let untouched = cnn.total_energy().value().to_bits();
        assert!(matches!(
            cnn.try_accuracy(&[], &[]),
            Err(ArchError::InvalidParameter { name: "samples", value: 0, .. })
        ));
        labels[3] = 10;
        assert!(matches!(
            cnn.try_train(&xs, &labels, 0.1, 1),
            Err(ArchError::LabelOutOfRange { label: 10, classes: 10 })
        ));
        assert!(matches!(
            cnn.try_accuracy(&xs[..2], &labels[..1]),
            Err(ArchError::ShapeMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            cnn.try_predict(&[0.5; 63]),
            Err(ArchError::ShapeMismatch { expected: 64, got: 63 })
        ));
        assert_eq!(cnn.total_energy().value().to_bits(), untouched, "no set reached the chip");
        let class = cnn.try_predict(&xs[0]).unwrap();
        assert_eq!(class, argmax(&cnn.forward(&xs[0])));
    }

    #[test]
    fn batched_forward_is_bitwise_identical_to_sequential() {
        let (xs, _) = digit_images(2);
        let xs = &xs[..6];
        let mut sequential = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let expected: Vec<Vec<f64>> = xs.iter().map(|x| sequential.forward(x)).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // A one-sample batch is the single-image call, bit for bit.
        let mut one = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        assert_eq!(bits(&one.try_forward_batch(&xs[..1]).unwrap()[0]), bits(&expected[0]));
        let mut batched = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let got = batched.try_forward_batch(xs).unwrap();
        for (s, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(bits(g), bits(e), "sample {s}: batched CNN output must be bitwise equal");
        }
        assert_eq!(
            sequential.total_energy().value().to_bits(),
            batched.total_energy().value().to_bits()
        );
    }

    #[test]
    fn warm_cnn_forwards_without_heap_allocs() {
        let (xs, _) = digit_images(1);
        let xs = &xs[..4];
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 7, 8);
        cnn.reserve_forward_scratch(xs.len());
        let warm = cnn.hot_path_allocs();
        for _ in 0..3 {
            cnn.try_forward_batch(xs).unwrap();
            cnn.forward(&xs[0]);
        }
        assert_eq!(
            cnn.hot_path_allocs(),
            warm,
            "steady-state CNN forwards must not grow engine scratch"
        );
    }

    #[test]
    fn im2col_gemm_reference_matches_naive_conv() {
        let (xs, _) = digit_images(2);
        let cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 9, 8);
        for x in &xs[..8] {
            let gemm = cnn.digital_forward(x);
            let naive = cnn.digital_forward_naive(x);
            assert_eq!(gemm.len(), naive.len());
            for (class, (&g, &n)) in gemm.iter().zip(&naive).enumerate() {
                assert!(
                    (g - n).abs() < 1e-4,
                    "class {class}: im2col+GEMM {g} vs naive {n}"
                );
            }
        }
    }
}
