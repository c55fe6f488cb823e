//! Rayon-parallel dense linear algebra.
//!
//! Per the session's HPC guides, the hot loops parallelise over output rows
//! with `par_chunks_mut`, which keeps each thread writing a disjoint slice
//! (data-race freedom by construction) and the inner loops contiguous for
//! the autovectoriser.
//!
//! GEMM is blocked two ways: output rows are handed to the pool in
//! `ROW_BLOCK`-row tiles (fewer, fatter tasks), and the shared `B` matrix
//! is walked one `K_BLOCK`-row panel at a time so the panel stays hot in
//! cache across every row of the tile (B-panel reuse). Blocking never
//! reorders the additions into any output element — `k` ascends for each
//! `(i, c)` pair exactly as in the naive triple loop — so results are
//! bitwise identical to the unblocked, single-threaded kernel at any
//! thread count (the repo-wide determinism guarantee, DESIGN.md §11).

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Work-size threshold below which the kernels stay sequential (threading
/// overhead wins). Applied to `m·k·n` for GEMM and `m·k` / `m·n` for the
/// rank-1 and matrix-vector kernels — all three honour it.
const PAR_THRESHOLD: usize = 64 * 64;

/// Output rows per parallel GEMM task.
const ROW_BLOCK: usize = 8;

/// Rows of `B` per cache panel: 64 × n f32 ≈ 16 KiB at n = 64, sized to
/// sit in L1 alongside the row tile being produced.
const K_BLOCK: usize = 64;

/// `C = A × B` written into a caller-owned `out: [m, n]` (zero-filled
/// first): the blocked kernel behind [`matmul`], for callers that reuse
/// `out`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
    assert_eq!(out.shape(), &[m, n], "matmul output buffer must be [{m}, {n}]");
    if m * n == 0 {
        return;
    }
    out.zero_();
    let a_data = a.data();
    let b_data = b.data();

    // One task: a ROW_BLOCK-row tile of C, accumulated panel by panel so
    // each B panel is reused across every row of the tile before the next
    // panel is touched.
    let kernel = |tile: &mut [f32], tile_idx: usize| {
        let row0 = tile_idx * ROW_BLOCK;
        let rows = tile.len() / n;
        for k0 in (0..k).step_by(K_BLOCK) {
            let k1 = (k0 + K_BLOCK).min(k);
            for r in 0..rows {
                let i = row0 + r;
                let a_panel = &a_data[i * k + k0..i * k + k1];
                let row = &mut tile[r * n..(r + 1) * n];
                for (dk, &a_ip) in a_panel.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let p = k0 + dk;
                    let b_row = &b_data[p * n..(p + 1) * n];
                    for (c, &b_pc) in b_row.iter().enumerate() {
                        row[c] += a_ip * b_pc;
                    }
                }
            }
        }
    };

    if m * n * k >= PAR_THRESHOLD {
        out.data_mut()
            .par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(t, tile)| kernel(tile, t));
    } else {
        for (t, tile) in out.data_mut().chunks_mut(ROW_BLOCK * n).enumerate() {
            kernel(tile, t);
        }
    }
}

/// `C = A × B` for row-major matrices `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let mut out = Tensor::zeros(&[a.shape()[0], b.shape()[1]]);
    matmul_into(a, b, &mut out);
    out
}

/// `y = A × x` for `A: [m, k]`, `x: [k]`.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.ndim(), 2, "matvec lhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(x.len(), k, "matvec dimension mismatch");
    let row_dot = |i: usize| -> f32 { a.row(i).iter().zip(x).map(|(&w, &xi)| w * xi).sum() };
    if m * k >= PAR_THRESHOLD {
        (0..m).into_par_iter().map(row_dot).collect()
    } else {
        (0..m).map(row_dot).collect()
    }
}

/// Outer product `u ⊗ v` as an `[len(u), len(v)]` matrix.
pub fn outer(u: &[f32], v: &[f32]) -> Tensor {
    let (m, n) = (u.len(), v.len());
    let mut out = Tensor::zeros(&[m, n]);
    if m * n == 0 {
        return out;
    }
    let fill = |row: &mut [f32], i: usize| {
        let ui = u[i];
        for (slot, &vj) in row.iter_mut().zip(v) {
            *slot = ui * vj;
        }
    };
    if m * n >= PAR_THRESHOLD {
        out.data_mut().par_chunks_mut(n).enumerate().for_each(|(i, row)| fill(row, i));
    } else {
        for (i, row) in out.data_mut().chunks_mut(n).enumerate() {
            fill(row, i);
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
        // Exercise the parallel blocked path and check against explicit
        // dot products. Sizes straddle ROW_BLOCK/K_BLOCK boundaries.
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
        // The blocking must never reorder additions into an output
        // element — exact float equality against the i-k-j reference.
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
        // Above PAR_THRESHOLD the parallel path must agree bit-for-bit
        // with per-row sequential dots.
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

    /// Deterministic pseudo-random fill straddling zero (exercises the
    /// kernels' zero-skip branch).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 - 1000.0) / 997.0
            })
            .collect()
    }

    #[test]
    fn matmul_into_reused_buffer_matches_matmul() {
        let a = Tensor::from_vec(&[21, 34], fill(21 * 34, 3));
        let b = Tensor::from_vec(&[34, 13], fill(34 * 13, 4));
        let want = matmul(&a, &b);
        // Poison the reused buffer to prove the zero-fill resets it.
        let mut out = Tensor::full(&[21, 13], f32::NAN);
        matmul_into(&a, &b, &mut out);
        for (got, want) in out.data().iter().zip(want.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
