//! Dense row-major multidimensional fields for structured-grid data.
//!
//! `Field2<T>` stores an `ni × nj` array contiguously with `j` fastest
//! (row-major, C order): element `(i, j)` lives at `i * nj + j`. This layout
//! means a fixed-`i` "grid line" is contiguous, which is what the line-implicit
//! solvers and `rayon::par_chunks_mut` over lines want.

use std::ops::{Index, IndexMut};

/// A dense 2-D field with row-major layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Field2<T> {
    ni: usize,
    nj: usize,
    data: Vec<T>,
}

impl<T: Clone> Field2<T> {
    /// Create an `ni × nj` field filled with `value`.
    ///
    /// # Panics
    /// Panics if `ni * nj` overflows.
    #[must_use]
    pub fn new(ni: usize, nj: usize, value: T) -> Self {
        let len = ni.checked_mul(nj).expect("Field2 size overflow");
        Self {
            ni,
            nj,
            data: vec![value; len],
        }
    }

    /// Build a field by evaluating `f(i, j)` at every point.
    pub fn from_fn(ni: usize, nj: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(ni * nj);
        for i in 0..ni {
            for j in 0..nj {
                data.push(f(i, j));
            }
        }
        Self { ni, nj, data }
    }
}

impl<T> Field2<T> {
    /// Number of points along the first (slow) axis.
    #[must_use]
    pub fn ni(&self) -> usize {
        self.ni
    }

    /// Number of points along the second (fast) axis.
    #[must_use]
    pub fn nj(&self) -> usize {
        self.nj
    }

    /// `(ni, nj)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.ni, self.nj)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Contiguous slice of the whole field.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable contiguous slice of the whole field.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The contiguous line at fixed `i` (all `j`).
    ///
    /// # Panics
    /// Panics if `i >= ni`.
    #[must_use]
    pub fn line(&self, i: usize) -> &[T] {
        assert!(i < self.ni, "line index {i} out of range {}", self.ni);
        &self.data[i * self.nj..(i + 1) * self.nj]
    }

    /// Iterator over `(i, line)` pairs.
    pub fn lines(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.data.chunks_exact(self.nj.max(1)).enumerate()
    }

    /// Mutable iterator over lines; pairs naturally with
    /// `rayon::prelude::ParallelSliceMut::par_chunks_exact_mut` via
    /// [`Field2::as_mut_slice`].
    pub fn lines_mut(&mut self) -> impl Iterator<Item = (usize, &mut [T])> {
        self.data.chunks_exact_mut(self.nj.max(1)).enumerate()
    }
}

impl Field2<f64> {
    /// An `ni × nj` field of zeros.
    #[must_use]
    pub fn zeros(ni: usize, nj: usize) -> Self {
        Self::new(ni, nj, 0.0)
    }

    /// Maximum absolute value over the field (0 for an empty field).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// L2 norm of the field treated as a flat vector.
    #[must_use]
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl<T> Index<(usize, usize)> for Field2<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.ni && j < self.nj, "index ({i},{j}) out of range");
        &self.data[i * self.nj + j]
    }
}

impl<T> IndexMut<(usize, usize)> for Field2<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.ni && j < self.nj, "index ({i},{j}) out of range");
        &mut self.data[i * self.nj + j]
    }
}

/// A dense 3-D field, row-major with `k` fastest: `(i, j, k)` lives at
/// `(i * nj + j) * nk + k`. Used for per-cell state vectors (e.g. `nk` =
/// number of conserved variables).
#[derive(Clone, Debug, PartialEq)]
pub struct Field3<T> {
    ni: usize,
    nj: usize,
    nk: usize,
    data: Vec<T>,
}

impl<T: Clone> Field3<T> {
    /// Create an `ni × nj × nk` field filled with `value`.
    ///
    /// # Panics
    /// Panics if the total size overflows.
    #[must_use]
    pub fn new(ni: usize, nj: usize, nk: usize, value: T) -> Self {
        let len = ni
            .checked_mul(nj)
            .and_then(|x| x.checked_mul(nk))
            .expect("Field3 size overflow");
        Self {
            ni,
            nj,
            nk,
            data: vec![value; len],
        }
    }
}

impl<T> Field3<T> {
    /// `(ni, nj, nk)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.ni, self.nj, self.nk)
    }

    /// Number of points along the first axis.
    #[must_use]
    pub fn ni(&self) -> usize {
        self.ni
    }

    /// Number of points along the second axis.
    #[must_use]
    pub fn nj(&self) -> usize {
        self.nj
    }

    /// Number of points along the third (fastest) axis.
    #[must_use]
    pub fn nk(&self) -> usize {
        self.nk
    }

    /// The contiguous `nk`-vector at `(i, j)`.
    #[must_use]
    pub fn vector(&self, i: usize, j: usize) -> &[T] {
        assert!(i < self.ni && j < self.nj, "vector ({i},{j}) out of range");
        let base = (i * self.nj + j) * self.nk;
        &self.data[base..base + self.nk]
    }

    /// Mutable contiguous `nk`-vector at `(i, j)`.
    pub fn vector_mut(&mut self, i: usize, j: usize) -> &mut [T] {
        assert!(i < self.ni && j < self.nj, "vector ({i},{j}) out of range");
        let base = (i * self.nj + j) * self.nk;
        &mut self.data[base..base + self.nk]
    }

    /// Contiguous slice of the whole field.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable contiguous slice of the whole field.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl Field3<f64> {
    /// An all-zero field.
    #[must_use]
    pub fn zeros(ni: usize, nj: usize, nk: usize) -> Self {
        Self::new(ni, nj, nk, 0.0)
    }
}

impl<T> Index<(usize, usize, usize)> for Field3<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &T {
        debug_assert!(
            i < self.ni && j < self.nj && k < self.nk,
            "index ({i},{j},{k}) out of range"
        );
        &self.data[(i * self.nj + j) * self.nk + k]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Field3<T> {
    #[inline]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut T {
        debug_assert!(
            i < self.ni && j < self.nj && k < self.nk,
            "index ({i},{j},{k}) out of range"
        );
        &mut self.data[(i * self.nj + j) * self.nk + k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field2_roundtrip() {
        let mut f = Field2::zeros(3, 4);
        f[(2, 3)] = 7.5;
        f[(0, 0)] = -1.0;
        assert_eq!(f[(2, 3)], 7.5);
        assert_eq!(f[(0, 0)], -1.0);
        assert_eq!(f.shape(), (3, 4));
        assert_eq!(f.len(), 12);
    }

    #[test]
    fn field2_line_is_contiguous() {
        let f = Field2::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(f.line(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn field2_lines_mut_cover_all() {
        let mut f = Field2::zeros(5, 3);
        for (i, line) in f.lines_mut() {
            for v in line.iter_mut() {
                *v = i as f64;
            }
        }
        assert_eq!(f[(4, 2)], 4.0);
        assert_eq!(f[(0, 1)], 0.0);
    }

    #[test]
    fn field2_norms() {
        let f = Field2::from_fn(1, 3, |_, j| [3.0, -4.0, 0.0][j]);
        assert!((f.norm_l2() - 5.0).abs() < 1e-14);
        assert_eq!(f.max_abs(), 4.0);
    }

    #[test]
    fn field3_vector_access() {
        let mut f = Field3::zeros(2, 2, 3);
        f.vector_mut(1, 0).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.vector(1, 0), &[1.0, 2.0, 3.0]);
        assert_eq!(f[(1, 0, 2)], 3.0);
        assert_eq!(f[(0, 0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn field2_line_out_of_range_panics() {
        let f = Field2::zeros(2, 2);
        let _ = f.line(2);
    }
}
