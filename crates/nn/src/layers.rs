//! Parameter storage and the Linear / MLP modules.

use crate::graph::{Graph, Var};
use crate::tensor::{relu_assign, row_matmul_acc, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Owns all parameter tensors and their gradient accumulators.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor, returning its id.
    pub fn add(&mut self, value: Matrix) -> usize {
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.values.len() - 1
    }

    /// Parameter value.
    pub fn value(&self, pid: usize) -> &Matrix {
        &self.values[pid]
    }

    /// Mutable parameter value (used by optimizers).
    pub fn value_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.values[pid]
    }

    /// Accumulated gradient.
    pub fn grad(&self, pid: usize) -> &Matrix {
        &self.grads[pid]
    }

    /// Mutable gradient accumulator.
    pub fn grad_mut(&mut self, pid: usize) -> &mut Matrix {
        &mut self.grads[pid]
    }

    /// Adds a tape's parameter gradients ([`Graph::backward`]) to the
    /// accumulators; `None` entries leave theirs untouched.
    pub fn add_grads(&mut self, grads: Vec<Option<Matrix>>) {
        for (acc, g) in self.grads.iter_mut().zip(grads) {
            if let Some(g) = g {
                acc.add_assign(&g);
            }
        }
    }

    /// Zeroes all gradients (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Number of parameter tensors.
    pub fn n_tensors(&self) -> usize {
        self.values.len()
    }

    /// Total number of scalar parameters.
    pub fn n_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }

    /// Approximate in-memory size in bytes (values + grads).
    pub fn approx_size_bytes(&self) -> usize {
        self.n_scalars() * 2 * std::mem::size_of::<f64>()
    }
}

/// A fully connected layer `y = x·W + b`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    w: usize,
    b: usize,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Allocates He-initialized weights in `store`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let w = store.add(Matrix::he_init(in_dim, out_dim, rng));
        let b = store.add(Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass on the tape.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        debug_assert_eq!(g.value(x).cols(), self.in_dim);
        let w = g.param(self.w);
        let b = g.param(self.b);
        let h = g.matmul(x, w);
        g.add_row_broadcast(h, b)
    }

    /// Tape-free `out = x·W + b` for one row, rounding exactly as
    /// [`Linear::forward`] does: the product accumulates from zero, the
    /// bias is added last.
    pub(crate) fn eval_into(&self, store: &ParamStore, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        row_matmul_acc(x, store.value(self.w).data(), out);
        for (o, b) in out.iter_mut().zip(store.value(self.b).data()) {
            *o += b;
        }
    }
}

/// A multi-layer perceptron: Linear → ReLU (→ Dropout) …, with a linear
/// output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: f64,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[33, 64, 64, 1]`.
    ///
    /// # Panics
    /// Panics with fewer than two widths.
    pub fn new(store: &mut ParamStore, widths: &[usize], dropout: f64, rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Self { layers, dropout }
    }

    /// Forward pass; ReLU + dropout after every layer except the last.
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool, rng: &mut StdRng) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h);
            if i < last {
                h = g.relu(h);
                h = g.dropout(h, self.dropout, training, rng);
            }
        }
        h
    }

    /// Tape-free eval-mode forward for one row: what [`Mlp::forward`]
    /// computes with `training == false` (dropout is then `× 1.0`, an
    /// identity on every value a ReLU can produce).
    pub(crate) fn eval(&self, store: &ParamStore, x: Vec<f64>) -> Vec<f64> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = vec![0.0; layer.out_dim];
            layer.eval_into(store, &h, &mut out);
            if i + 1 < self.layers.len() {
                relu_assign(&mut out);
            }
            h = out;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use rand::{Rng, SeedableRng};

    #[test]
    fn store_bookkeeping() {
        let mut s = ParamStore::new();
        let a = s.add(Matrix::zeros(2, 3));
        let b = s.add(Matrix::zeros(1, 4));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.n_tensors(), 2);
        assert_eq!(s.n_scalars(), 10);
        assert!(s.approx_size_bytes() >= 160);
        s.grad_mut(a).set(1, 1, 5.0);
        s.zero_grads();
        assert_eq!(s.grad(a).get(1, 1), 0.0);
    }

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let lin = Linear::new(&mut s, 3, 5, &mut rng);
        let mut g = Graph::new(&s);
        let x = g.input(Matrix::zeros(2, 3));
        let y = lin.forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (2, 5));
    }

    #[test]
    fn mlp_learns_xor_like_function() {
        // y = 1 if exactly one input > 0.5 else 0: non-linearly separable.
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &[2, 16, 16, 1], 0.0, &mut rng);
        let mut adam = Adam::new(&store, 0.01);
        let data: Vec<([f64; 2], f64)> = (0..200)
            .map(|_| {
                let a: f64 = rng.gen_range(0.0..1.0);
                let b: f64 = rng.gen_range(0.0..1.0);
                let y = if (a > 0.5) ^ (b > 0.5) { 1.0 } else { 0.0 };
                ([a, b], y)
            })
            .collect();
        let mut last_loss = f64::INFINITY;
        for _epoch in 0..300 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let mut terms = Vec::new();
            for (x, y) in &data {
                let xin = g.input(Matrix::row_vector(x));
                let out = mlp.forward(&mut g, xin, true, &mut rng);
                terms.push(g.squared_error(out, *y));
            }
            let loss = g.mean_scalars(&terms);
            last_loss = g.value(loss).get(0, 0);
            let grads = g.backward(loss);
            store.add_grads(grads);
            adam.step(&mut store);
        }
        assert!(last_loss < 0.05, "XOR loss did not converge: {last_loss}");
        // Spot-check the four corners.
        let mut eval = |x: [f64; 2]| -> f64 {
            let mut g = Graph::new(&store);
            let xin = g.input(Matrix::row_vector(&x));
            let out = mlp.forward(&mut g, xin, false, &mut rng);
            g.value(out).get(0, 0)
        };
        assert!(eval([0.9, 0.1]) > 0.7);
        assert!(eval([0.1, 0.9]) > 0.7);
        assert!(eval([0.9, 0.9]) < 0.3);
        assert!(eval([0.1, 0.1]) < 0.3);
    }

    #[test]
    #[should_panic(expected = "input and output widths")]
    fn mlp_rejects_single_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        Mlp::new(&mut s, &[3], 0.0, &mut rng);
    }
}
