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
//! end-to-end on simulated optics. It is a conv-pool layer and a dense
//! head on the one network engine ([`PhotonicMlp`]), whose sweep and
//! backward walk run it, and whose digital twin is this network's float
//! reference; this module keeps the geometry and the public face.

use crate::chip::Chip;
use crate::engine::{EngineOptions, Layer, PhotonicMlp, CNN_SPANS};
use crate::error::ArchError;
use crate::tile::TILE;
use trident_photonics::units::{EnergyPj, Nanoseconds};

/// A stride-1, unpadded `kernel × kernel` convolution of `in_c × in_h ×
/// in_w` images into `out_c` filters, then a 2×2 max pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeometry {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    kernel: usize,
    pub(crate) out_c: usize,
}

impl ConvGeometry {
    fn conv_hw(&self) -> (usize, usize) {
        (self.in_h - self.kernel + 1, self.in_w - self.kernel + 1)
    }

    fn pool_hw(&self) -> (usize, usize) {
        let (h, w) = self.conv_hw();
        (h / 2, w / 2)
    }

    /// One im2col patch's width: the filter bank's columns.
    pub(crate) fn patch_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Output positions of the convolution.
    pub(crate) fn positions(&self) -> usize {
        let (h, w) = self.conv_hw();
        h * w
    }

    /// Pooled features, `out_c × pool_h·pool_w` filter-major.
    pub(crate) fn features(&self) -> usize {
        let (h, w) = self.pool_hw();
        self.out_c * h * w
    }

    /// im2col gather of `image` into `cols`: one `patch_len`-wide row per
    /// output position, row-major, each value through `cast`.
    pub(crate) fn im2col<T>(&self, image: &[f64], cols: &mut [T], cast: impl Fn(f64) -> T) {
        let (conv_h, conv_w) = self.conv_hw();
        let mut i = 0;
        for oy in 0..conv_h {
            for ox in 0..conv_w {
                for c in 0..self.in_c {
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            cols[i] = cast(image[(c * self.in_h + oy + ky) * self.in_w + ox + kx]);
                            i += 1;
                        }
                    }
                }
            }
        }
    }

    /// 2×2 max pool of a `positions × out_c` activation map: `emit`
    /// receives each pooled feature's index (filter-major), value, and the
    /// map index it was taken from (the first of a tie; 0 when nothing
    /// beats `lowest`).
    pub(crate) fn pool<T>(&self, activ: &[T], lowest: T, mut emit: impl FnMut(usize, T, usize))
    where
        T: Copy + PartialOrd,
    {
        let conv_w = self.conv_hw().1;
        let (pool_h, pool_w) = self.pool_hw();
        for f in 0..self.out_c {
            for py in 0..pool_h {
                for px in 0..pool_w {
                    let (mut best, mut at) = (lowest, 0);
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = ((2 * py + dy) * conv_w + 2 * px + dx) * self.out_c + f;
                            if activ[idx] > best {
                                (best, at) = (activ[idx], idx);
                            }
                        }
                    }
                    emit((f * pool_h + py) * pool_w + px, best, at);
                }
            }
        }
    }
}

/// A small photonic CNN: one conv layer, GST activation, 2×2 maxpool,
/// and a dense classifier head.
///
/// Working memory follows the engine's rule (DESIGN.md §15): the conv
/// layer's tape holds the batch's im2col patches, conv logits and
/// activation maps, and only it, the head's tape and the per-sample
/// output slots grow, tallied in [`PhotonicCnn::hot_path_allocs`].
pub struct PhotonicCnn {
    geometry: ConvGeometry,
    /// The conv-pool layer and the dense head on the one network engine.
    net: PhotonicMlp,
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
        let geometry = ConvGeometry { in_c, in_h, in_w, kernel, out_c };
        assert!(geometry.patch_len() <= TILE, "receptive field must fit the bank's channels");
        assert!(out_c <= TILE, "filters must fit the bank's rows");
        assert!((2..=8).contains(&weight_bits), "weight_bits {weight_bits} outside 2..=8");
        let dims = [in_c * in_h * in_w, geometry.features(), classes];
        let layers = vec![Layer::ConvPool(geometry), Layer::Dense];
        let opts = EngineOptions { seed, weight_bits, ..EngineOptions::default() };
        Self { geometry, net: PhotonicMlp::build(&dims, layers, opts, &CNN_SPANS) }
    }

    /// Convolution output spatial size.
    pub fn conv_hw(&self) -> (usize, usize) {
        self.geometry.conv_hw()
    }

    /// Pooled feature-map spatial size.
    pub fn pool_hw(&self) -> (usize, usize) {
        self.geometry.pool_hw()
    }

    /// Flattened feature count entering the dense head.
    pub fn feature_count(&self) -> usize {
        self.geometry.features()
    }

    /// The chip both banks run on: faults, aging, drift, ring tallies.
    pub fn chip(&self) -> &Chip {
        self.net.chip()
    }

    /// The chip, mutably.
    pub fn chip_mut(&mut self) -> &mut Chip {
        self.net.chip_mut()
    }

    /// Forward one image (`in_c·in_h·in_w` values in `[0, 1]`; a negative
    /// value drives its laser lane at zero, as in the MLP). Returns class
    /// logits and keeps everything the backward walk needs.
    pub fn forward(&mut self, image: &[f64]) -> Vec<f64> {
        let logits = self.net.try_forward(image);
        assert!(logits.is_ok(), "image size mismatch: {logits:?}");
        logits.unwrap_or_default()
    }

    /// Forward a batch of images into the engine's reusable per-sample
    /// output slots. The sweep is layer-major, and each PE belongs to one
    /// layer, so every PE sees the call order of calling
    /// [`PhotonicCnn::forward`] per image: outputs are bitwise identical
    /// to the sequential path.
    ///
    /// Returns per-sample logits in input order; the slice borrows the
    /// engine's output slots and is valid until the next forward.
    pub fn try_forward_batch<S: AsRef<[f64]>>(
        &mut self,
        inputs: &[S],
    ) -> Result<&[Vec<f64>], ArchError> {
        self.net.try_forward_batch(inputs, true)
    }

    /// Pre-grow `batch` output slots and the layer tapes so steady-state
    /// forwards perform no engine-side heap allocation. Growth here is
    /// warm-up, not counted in [`PhotonicCnn::hot_path_allocs`].
    pub fn reserve_forward_scratch(&mut self, batch: usize) {
        self.net.reserve_forward_scratch(batch);
    }

    /// Tape and output-slot growth events since construction. Zero
    /// across a window of warm forwards is the zero-allocation claim.
    pub fn hot_path_allocs(&self) -> u64 {
        self.net.hot_path_allocs()
    }

    /// The engine's digital twin of this network
    /// ([`PhotonicMlp::digital_forward`]): the conv-pool layer and the
    /// dense head in f64 over the master weights.
    pub fn digital_forward(&self, image: &[f64]) -> Result<Vec<f64>, ArchError> {
        self.net.digital_forward(image)
    }

    /// Predicted class for one image (NaN-safe, see
    /// [`argmax`](crate::engine::argmax)).
    pub fn try_predict(&mut self, image: &[f64]) -> Result<usize, ArchError> {
        self.net.try_predict(image)
    }

    /// Accuracy over a labelled set; an unpaired, empty or mislabelled
    /// set is a typed error before the first forward.
    pub fn try_accuracy(
        &mut self,
        images: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<f64, ArchError> {
        self.net.accuracy(images, labels)
    }

    /// One in-situ training step: the engine's backward walk over a batch
    /// of one. The dense head's backward is the MLP's layer steps (outer
    /// product, billed `Wᵀ` MVM); the conv gradient accumulates
    /// per-position outer products of the pooled-and-routed error with
    /// the taped patches. Returns the sample loss.
    pub fn train_sample(&mut self, image: &[f64], label: usize, lr: f64) -> f64 {
        let loss = self.net.try_train_sample(image, label, lr);
        assert!(loss.is_ok(), "CNN training step failed: {loss:?}");
        loss.unwrap_or(f64::NAN)
    }

    /// Train over a dataset, one Eq. 1 update per `batch_size` images,
    /// checked as [`PhotonicCnn::try_accuracy`] checks it before the chip
    /// is touched; returns per-epoch mean losses.
    pub fn try_train_batched(
        &mut self,
        images: &[Vec<f64>],
        labels: &[usize],
        lr: f64,
        epochs: usize,
        batch_size: usize,
    ) -> Result<Vec<f64>, ArchError> {
        self.net.train_epochs(images, labels, lr, epochs, batch_size, None)
    }

    /// Total optical energy spent so far.
    pub fn total_energy(&self) -> EnergyPj {
        self.net.total_energy()
    }

    /// Simulated time across both banks ([`Chip::total_elapsed`]).
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.net.total_elapsed()
    }

    /// Conv filter weights (master copy, for verification).
    pub fn conv_weights(&self) -> &[f64] {
        self.net.layer_weights(0)
    }

    /// Dense-head weights (master copy, for verification).
    pub fn dense_weights(&self) -> &[f64] {
        self.net.layer_weights(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::argmax;
    use crate::pe::{GST_SLOPE, LOGIT_THRESHOLD};
    use crate::training::DualAdaptiveTrainer;
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
        let twin = cnn.digital_forward(image).unwrap();
        for class in 0..10 {
            let exact: f64 =
                (0..ft).map(|j| cnn.dense_weights()[class * ft + j] * features[j]).sum();
            assert!(
                (twin[class] - exact).abs() < 1e-12,
                "class {class}: twin {} vs float mirror {exact}",
                twin[class]
            );
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
        let history = cnn.try_train_batched(&xs, &labels, 0.1, 10, 1).unwrap();
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
            cnn.try_train_batched(&xs, &labels, 0.1, 1, 1),
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
    fn batched_training_does_not_depend_on_sample_order() {
        // Ideal PEs read without history, so a batch's update is the same
        // in any sample order up to the batch mean's summation order; a
        // walk that read another sample's slice of a tape would not be.
        let (xs, labels) = digit_images(1);
        let train = |order: [usize; 3]| {
            let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
            let batch: Vec<Vec<f64>> = order.iter().map(|&i| xs[i].clone()).collect();
            let batch_labels = order.map(|i| labels[i]);
            let loss = cnn.try_train_batched(&batch, &batch_labels, 0.5, 1, 3).unwrap()[0];
            (loss, [cnn.conv_weights().to_vec(), cnn.dense_weights().to_vec()].concat())
        };
        let (first, shuffled) = (train([0, 1, 2]), train([2, 0, 1]));
        assert!((first.0 - shuffled.0).abs() < 1e-12, "losses {} vs {}", first.0, shuffled.0);
        assert_eq!(first.1, shuffled.1, "weights after one batch of three");
    }

    #[test]
    fn error_model_learns_on_the_cnn_layer_list() {
        // Dual adaptive training reads the engine's twin, so it runs on
        // the conv-pool layer list as on a dense one.
        let (xs, _) = digit_images(1);
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
        let model = DualAdaptiveTrainer::default().learn_error_model(&mut cnn.net, &xs[..4]).unwrap();
        assert_eq!(model.bias().len(), 10);
        assert_eq!(model.update_count(), 4);
        assert!(model.bias().iter().all(|b| b.abs() < 0.2), "ideal chip vs twin: {:?}", model.bias());
    }
}
