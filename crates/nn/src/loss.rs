//! Loss functions with gradients.

use crate::tensor::Tensor;

/// Numerically stable softmax over the last axis of a `[batch, classes]`
/// tensor.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "softmax expects [batch, classes]");
    let mut out = logits.clone();
    let classes = logits.shape()[1];
    for r in 0..logits.shape()[0] {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
        debug_assert_eq!(row.len(), classes);
    }
    out
}

/// Mean softmax cross-entropy over a batch with integer labels.
///
/// Returns `(loss, dL/dlogits)` with the usual fused gradient
/// `softmax(logits) − one_hot(label)` scaled by `1/batch`.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape()[0], labels.len(), "batch/label count mismatch");
    let probs = softmax(logits);
    let batch = labels.len();
    let classes = logits.shape()[1];
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let p = probs.at2(r, label).max(1e-12);
        loss -= p.ln();
        *grad.at2_mut(r, label) -= 1.0;
    }
    let scale = 1.0 / batch as f32;
    (loss * scale, grad.map(|g| g * scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax(&l);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[1, 3], vec![101.0, 102.0, 103.0]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let l = Tensor::from_vec(&[1, 3], vec![10.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&l, &[0]);
        assert!(loss < 0.01, "loss {loss}");
        let (bad_loss, _) = softmax_cross_entropy(&l, &[2]);
        assert!(bad_loss > 5.0, "loss {bad_loss}");
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let l = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&l, &labels);
        let eps = 1e-3;
        for i in 0..l.len() {
            let mut lp = l.clone();
            lp.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "grad mismatch at {i}: fd={fd} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax − one_hot sums to zero per row.
        let l = Tensor::from_vec(&[1, 4], vec![0.3, 0.1, -0.5, 0.9]);
        let (_, g) = softmax_cross_entropy(&l, &[1]);
        assert!(g.row(0).iter().sum::<f32>().abs() < 1e-6);
    }
}
