//! A minimal dense tensor: row-major `f32` storage with explicit shape.
//!
//! Deliberately small — the substrate needs correct forward/backward math,
//! batched 2-D and 4-D indexing, and nothing else. Higher-rank generality,
//! broadcasting and views are out of scope; the photonic engine consumes
//! plain matrices and vectors.

use std::fmt;

/// Dense row-major tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![0.0; len] }
    }

    /// Tensor filled with one value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; len] }
    }

    /// Build from existing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?} ({} elements)",
            data.len(),
            shape,
            expected
        );
        Self { shape: shape.to_vec(), data }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self { shape: vec![data.len()], data: data.to_vec() }
    }

    /// Shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable data access.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data access.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshape in place (same element count).
    ///
    /// # Panics
    /// Panics when the element count changes.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape to {shape:?} changes element count");
        self.shape = shape.to_vec();
        self
    }

    /// 2-D element access `(row, col)`.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable 2-D element access.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }


    /// Row `r` of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row access for a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise combination of two same-shape tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place scaled addition `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Fill with zeros (reuse allocation between training steps).
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Transpose a 2-D tensor.
    pub fn transposed(&self) -> Self {
        assert_eq!(self.ndim(), 2, "transpose requires a matrix");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                *out.at2_mut(j, i) = self.at2(i, j);
            }
        }
        out
    }

    /// Maximum absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of a 1-D tensor (argmax).
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.ndim(), 2);
        let u = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn transpose_swaps_indices() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.at2(i, j), tt.at2(j, i));
            }
        }
    }

    #[test]
    fn map_zip_axpy() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[0.5, -1.0, 1.5]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[2.0, -1.0, 4.0]);
    }

    #[test]
    fn argmax_and_max_abs() {
        let t = Tensor::from_slice(&[0.1, -5.0, 3.0]);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.max_abs(), 5.0);
        assert!((t.sum() - (-1.9)).abs() < 1e-6);
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }
}
