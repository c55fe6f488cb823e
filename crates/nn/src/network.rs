//! Sequential model container: the float training reference.

use crate::error::NnError;
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// A stack of layers trained with backpropagation.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass over a batch: the first layer whose shape check fails
    /// reports a typed [`NnError`].
    pub fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.try_forward(&h)?;
        }
        Ok(h)
    }

    /// Backward pass from an output gradient; returns the input gradient.
    pub fn try_backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.try_backward(&g)?;
        }
        Ok(g)
    }

    /// Apply accumulated gradients.
    pub fn update(&mut self, opt: &Sgd) {
        for layer in &mut self.layers {
            layer.update(opt);
        }
    }

    /// One supervised step on a batch: forward, cross-entropy, backward,
    /// update. Returns the batch loss; shape violations anywhere in the
    /// stack surface as typed errors before any parameter is touched.
    pub fn try_train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &Sgd,
    ) -> Result<f32, NnError> {
        let logits = self.try_forward(x)?;
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.try_backward(&grad)?;
        self.update(opt);
        Ok(loss)
    }

    /// Predicted class per batch row (NaN-safe argmax: a row of NaNs
    /// predicts class 0 rather than panicking).
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.try_forward(x)?;
        Ok((0..logits.shape()[0])
            .map(|r| {
                let row = logits.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect())
    }

    /// Classification accuracy on a labelled batch.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
        let preds = self.predict(x)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len() as f64)
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, Dataset};
    use crate::init::seeded_rng;
    use crate::layers::{Activation, ActivationLayer, Dense};

    fn tiny_mlp(seed: u64, inputs: usize, hidden: usize, classes: usize) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new()
            .push(Dense::new(hidden, inputs, &mut rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(Dense::new(classes, hidden, &mut rng))
    }

    #[test]
    fn network_shapes_flow() {
        let mut net = tiny_mlp(1, 4, 8, 3);
        let x = Tensor::zeros(&[5, 4]);
        let y = net.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.param_count(), 8 * 4 + 3 * 8);
    }

    #[test]
    fn training_reduces_loss_on_blobs() {
        let data = gaussian_blobs(3, 60, 4, 0.3, 42);
        let mut net = tiny_mlp(7, 4, 16, 3);
        let opt = Sgd::new(0.1);
        let first_loss = net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        let mut last = first_loss;
        for _ in 0..120 {
            last = net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        }
        assert!(
            last < first_loss * 0.3,
            "loss should fall substantially: {first_loss} → {last}"
        );
        assert!(net.accuracy(&data.inputs, &data.labels).unwrap() > 0.9);
    }

    #[test]
    fn gst_activation_network_also_trains() {
        // The paper's claim that the GST nonlinearity suffices for learning:
        // same task, GST activation instead of ReLU.
        let data = gaussian_blobs(3, 60, 4, 0.3, 43);
        let mut rng = seeded_rng(9);
        let mut net = Sequential::new()
            .push(Dense::new(16, 4, &mut rng))
            .push(ActivationLayer::new(Activation::gst_paper()))
            .push(Dense::new(3, 16, &mut rng));
        // The 0.34 slope attenuates signals; a higher lr compensates.
        let opt = Sgd::new(0.3);
        for _ in 0..200 {
            net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        }
        let acc = net.accuracy(&data.inputs, &data.labels).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn predict_agrees_with_argmax() {
        let mut net = tiny_mlp(1, 2, 4, 2);
        let x = Tensor::from_vec(&[1, 2], vec![0.3, -0.7]);
        let logits = net.try_forward(&x).unwrap();
        let manual = if logits.at2(0, 0) >= logits.at2(0, 1) { 0 } else { 1 };
        assert_eq!(net.predict(&x).unwrap()[0], manual);
    }

    #[test]
    fn sequential_propagates_layer_errors() {
        let mut net = tiny_mlp(5, 4, 8, 3);
        let wrong = Tensor::zeros(&[2, 7]);
        match net.try_forward(&wrong) {
            Err(NnError::ShapeMismatch { layer: "dense", got, .. }) => {
                assert_eq!(got, vec![2, 7]);
            }
            other => panic!("expected a dense shape error, got {other:?}"),
        }
        assert!(net.accuracy(&wrong, &[0, 1]).is_err(), "accuracy reports the shape error");
        // A valid batch still flows after the rejected one.
        let ok = net.try_forward(&Tensor::zeros(&[2, 4])).expect("valid shape");
        assert_eq!(ok.shape(), &[2, 3]);
    }

    #[test]
    fn dataset_helper_is_consistent() {
        let Dataset { inputs, labels } = gaussian_blobs(2, 10, 3, 0.1, 1);
        assert_eq!(inputs.shape(), &[20, 3]);
        assert_eq!(labels.len(), 20);
    }
}
