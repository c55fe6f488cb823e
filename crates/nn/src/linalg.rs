//! Dense linear algebra for the float reference, as plain sequential
//! loops.
//!
//! `matmul` runs the i-k-j loop (skipping zero `A` entries), so `k`
//! ascends into every output element; `matvec` is one [`dot`] per row and
//! `outer` fills one row per `u` entry. Every result is a fixed sequence
//! of float operations, the same at any thread count (DESIGN.md §11).

use crate::tensor::Tensor;

/// `C = A × B` for row-major matrices `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    if n == 0 {
        return out;
    }
    let (a_data, b_data) = (a.data(), b.data());
    for (i, row) in out.data_mut().chunks_exact_mut(n).enumerate() {
        for (p, &a_ip) in a_data[i * k..(i + 1) * k].iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            for (c, &b_pc) in row.iter_mut().zip(&b_data[p * n..(p + 1) * n]) {
                *c += a_ip * b_pc;
            }
        }
    }
    out
}

/// `y = A × x` for `A: [m, k]`, `x: [k]`.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.ndim(), 2, "matvec lhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(x.len(), k, "matvec dimension mismatch");
    (0..m).map(|i| dot(a.row(i), x)).collect()
}

/// Outer product `u ⊗ v` as an `[len(u), len(v)]` matrix.
pub fn outer(u: &[f32], v: &[f32]) -> Tensor {
    let (m, n) = (u.len(), v.len());
    let mut out = Tensor::zeros(&[m, n]);
    if n == 0 {
        return out;
    }
    for (row, &ui) in out.data_mut().chunks_exact_mut(n).zip(u) {
        for (slot, &vj) in row.iter_mut().zip(v) {
            *slot = ui * vj;
        }
    }
    out
}

/// Dot product.
pub fn dot(u: &[f32], v: &[f32]) -> f32 {
    assert_eq!(u.len(), v.len(), "dot dimension mismatch");
    u.iter().zip(v).map(|(&a, &b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_answer() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(&[2, 2], vec![3., 1., 4., 1.]);
        let eye = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &eye).data(), a.data());
    }

    #[test]
    fn large_matmul_parallel_matches_sequential_shape() {
        // A larger product, checked against explicit dot products.
        let m = 83;
        let k = 70;
        let n = 91;
        let a = Tensor::from_vec(&[m, k], (0..m * k).map(|x| (x % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec(&[k, n], (0..k * n).map(|x| (x % 7) as f32 * 0.2).collect());
        let c = matmul(&a, &b);
        for &(i, j) in &[(0, 0), (82, 90), (40, 45), (13, 71)] {
            let col: Vec<f32> = (0..k).map(|p| b.at2(p, j)).collect();
            let expected = dot(a.row(i), &col);
            assert!((c.at2(i, j) - expected).abs() < 1e-3, "mismatch at ({i},{j})");
        }
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive_triple_loop() {
        // `k` ascends into every output element — exact float equality
        // against the i-k-j reference.
        let (m, k, n) = (21, 130, 17);
        let a = Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|x| ((x * 31 % 997) as f32 - 498.0) / 499.0).collect(),
        );
        let b = Tensor::from_vec(
            &[k, n],
            (0..k * n).map(|x| ((x * 17 % 883) as f32 - 441.0) / 442.0).collect(),
        );
        let c = matmul(&a, &b);
        let mut reference = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for p in 0..k {
                let a_ip = a.at2(i, p);
                if a_ip == 0.0 {
                    continue;
                }
                for j in 0..n {
                    *reference.at2_mut(i, j) += a_ip * b.at2(p, j);
                }
            }
        }
        for (got, want) in c.data().iter().zip(reference.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_mismatched_inner() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let x = [0.5, -1.0];
        let y = matvec(&a, &x);
        assert_eq!(y, vec![-1.5, -2.5, -3.5]);
    }

    #[test]
    fn large_matvec_parallel_matches_sequential() {
        // Each row is bit-for-bit its own sequential dot.
        let (m, k) = (70, 90);
        let a = Tensor::from_vec(&[m, k], (0..m * k).map(|x| (x % 11) as f32 * 0.3).collect());
        let x: Vec<f32> = (0..k).map(|i| (i % 5) as f32 * 0.7).collect();
        let y = matvec(&a, &x);
        assert_eq!(y.len(), m);
        for i in 0..m {
            assert_eq!(y[i].to_bits(), dot(a.row(i), &x).to_bits(), "row {i}");
        }
    }

    #[test]
    fn outer_product_shape_and_values() {
        let o = outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.data(), &[3., 4., 5., 6., 8., 10.]);
    }

    #[test]
    fn large_outer_parallel_matches_sequential() {
        let u: Vec<f32> = (0..80).map(|i| (i % 9) as f32 * 0.4 - 1.0).collect();
        let v: Vec<f32> = (0..70).map(|i| (i % 6) as f32 * 0.5 - 1.2).collect();
        let o = outer(&u, &v);
        assert_eq!(o.shape(), &[80, 70]);
        for (i, &ui) in u.iter().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                assert_eq!(o.at2(i, j).to_bits(), (ui * vj).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_dimensions_are_handled() {
        assert_eq!(matmul(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[3, 2])).len(), 0);
        assert_eq!(matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[3, 0])).len(), 0);
        assert!(matvec(&Tensor::zeros(&[0, 4]), &[0.0; 4]).is_empty());
        assert_eq!(outer(&[], &[1.0]).len(), 0);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
    }
}
