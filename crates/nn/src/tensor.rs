//! Dense row-major matrices and the multiply-accumulate kernels the plan-GCN
//! runs on, forward and backward.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a closure of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[cfg(test)]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    #[cfg(test)]
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Kaiming/He-style initialization: N(0, sqrt(2/fan_in)) via Box–Muller.
    pub fn he_init(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        Self::from_fn(rows, cols, |_, _| {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[cfg(test)]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[cfg(test)]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose, built once per training batch so that each
    /// backward product `δ·Wᵀ` is one `row_matmul_acc` against it.
    pub(crate) fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// `self · other`, one `row_matmul_acc` per row (ikj loop order for
    /// cache friendliness): the tape's `MatMul`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[cfg(test)]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            row_matmul_acc(self.row(i), &other.data, out_row);
        }
        out
    }

    /// `self · otherᵀ` without building the transpose: what a
    /// [`Matrix::matmul`] against the explicit transpose computes, to the
    /// bit — element
    /// `(i, m)` is [`row_matmul_acc`] of row `i` of `self` against row `m`
    /// of `other` read as a column.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[cfg(test)]
    pub(crate) fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        Matrix::from_fn(self.rows, other.rows, |i, m| {
            let mut acc = 0.0;
            row_matmul_acc(self.row(i), other.row(m), std::slice::from_mut(&mut acc));
            acc
        })
    }

    /// `selfᵀ · other` without building the transpose: what the explicit
    /// transpose's [`Matrix::matmul`] computes, to the bit — row `m` of
    /// the output is [`row_matmul_acc`] of column `m` of `self` against
    /// `other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[cfg(test)]
    pub(crate) fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let mut column = vec![0.0; self.rows];
        for m in 0..self.cols {
            for (i, x) in column.iter_mut().enumerate() {
                *x = self.get(i, m);
            }
            let out_row = &mut out.data[m * other.cols..(m + 1) * other.cols];
            row_matmul_acc(&column, &other.data, out_row);
        }
        out
    }

    /// Elementwise sum into self. A shape mismatch is a programmer error:
    /// debug builds assert, release builds sum the overlapping prefix.
    #[cfg(test)]
    pub fn add_assign(&mut self, other: &Matrix) {
        debug_assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements in place.
    #[cfg(test)]
    pub fn scale_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }
}

/// `out += a · B` for one row `a` (`1×k`) against row-major `B`
/// (`k × out.len()`): the one multiply-accumulate loop in the crate, shared
/// by the forward and the backward's `δ·Wᵀ` (against a transpose), so
/// neither can drift from the other by a rounding. `k` runs ascending and
/// exact-zero entries of `a` are skipped (post-ReLU rows are mostly
/// zeros); a length mismatch multiplies the overlapping prefix instead of
/// panicking.
pub(crate) fn row_matmul_acc(a: &[f64], b: &[f64], out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    for (&x, b_row) in a.iter().zip(b.chunks_exact(out.len())) {
        if x == 0.0 {
            continue;
        }
        for (o, &w) in out.iter_mut().zip(b_row) {
            *o += x * w;
        }
    }
}

/// `grad += xᵀ · g`, the outer product of one input row and one output
/// gradient (`grad` is `x.len() × g.len()`, row-major): a weight's gradient
/// from one use. Rows whose `x` entry is exactly zero are skipped, as
/// [`row_matmul_acc`] skips them when the same product is taken as a
/// matrix product from `+0.0`, so adding it here straight onto the running
/// sum rounds the same.
pub(crate) fn outer_acc(x: &[f64], g: &[f64], grad: &mut [f64]) {
    if g.is_empty() {
        return;
    }
    for (&xi, row) in x.iter().zip(grad.chunks_exact_mut(g.len())) {
        if xi == 0.0 {
            continue;
        }
        for (o, &gj) in row.iter_mut().zip(g) {
            *o += xi * gj;
        }
    }
}

/// `acc += g`, elementwise: a bias's gradient from one use.
pub(crate) fn add_acc(acc: &mut [f64], g: &[f64]) {
    for (a, &x) in acc.iter_mut().zip(g) {
        *a += x;
    }
}

/// Elementwise `max(x, 0)` in place — the eval-mode twin of the tape's
/// `Relu` op.
pub(crate) fn relu_assign(xs: &mut [f64]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    /// The zero-skip is part of the kernel's contract, not only a speed-up:
    /// it is what makes `0 · ∞` contribute nothing instead of a NaN, and
    /// with finite weights it is invisible (`x + 0·w == x` to the bit), so
    /// this is the one place that pins it.
    #[test]
    fn kernel_skips_zero_inputs_and_accumulates_in_k_order() {
        let b = [f64::INFINITY, f64::NAN, 2.0, 3.0];
        let mut out = [1.0, 10.0];
        row_matmul_acc(&[0.0, 1.0], &b, &mut out);
        assert_eq!(out, [3.0, 13.0]);
        row_matmul_acc(&[-0.0], &b, &mut out);
        assert_eq!(out, [3.0, 13.0]);
        // k ascending: (1 + 1e-16) + 1e-16 rounds back to 1 twice, while
        // 1 + (1e-16 + 1e-16) would not.
        let mut acc = [0.0];
        row_matmul_acc(&[1.0, 1.0, 1.0], &[1.0, 1e-16, 1e-16], &mut acc);
        assert_eq!(acc, [1.0]);
        // Mismatched lengths use the overlapping prefix; no width, no work.
        row_matmul_acc(&[1.0, 1.0, 1.0], &[1.0, 1.0], &mut out);
        assert_eq!(out, [4.0, 14.0]);
        row_matmul_acc(&[1.0], &b, &mut []);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    /// The backward pass's two products against a transpose, held to the
    /// bit to the matmul over an explicit transpose that they replace:
    /// random shapes, exact zeros (skipped), and sums whose rounding
    /// depends on the accumulation order.
    #[test]
    fn transposed_products_match_matmul_over_a_transpose_to_the_bit() {
        let transpose = Matrix::transposed;
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(5);
        let mut draw = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u32..4) {
                0 => 0.0,
                1 => rng.gen_range(-1e-8..1e-8),
                _ => rng.gen_range(-3.0..3.0) * 1e8,
            })
        };
        for (r, k, c) in [(1, 48, 48), (1, 7, 1), (3, 5, 4), (6, 1, 2), (1, 1, 1)] {
            let (a, b) = (draw(r, k), draw(c, k));
            let want = a.matmul(&transpose(&b));
            assert_eq!(bits(&a.matmul_transposed(&b)), bits(&want));
            let (a, g) = (draw(r, k), draw(r, c));
            let want = transpose(&a).matmul(&g);
            assert_eq!(bits(&a.transposed_matmul(&g)), bits(&want));
        }
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0, 33.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[5.5, 11.0, 16.5]);
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::he_init(100, 100, &mut rng);
        let mean: f64 = m.data().iter().sum::<f64>() / 10_000.0;
        let var: f64 = m.data().iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.01, "mean={mean}");
        // Expected var = 2/100 = 0.02.
        assert!((var - 0.02).abs() < 0.005, "var={var}");
    }

    #[test]
    fn row_vector_shape() {
        let v = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!((v.rows(), v.cols()), (1, 2));
        assert_eq!(v.row(0), &[1.0, 2.0]);
    }
}
