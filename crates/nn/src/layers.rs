//! Parameter storage and the Linear / MLP modules: their one forward
//! (dropout on for training, off for inference) and their hand-written
//! backward.

#[cfg(test)]
use crate::graph::{Graph, Var};
use crate::tensor::{add_acc, outer_acc, relu_assign, row_matmul_acc, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Owns all parameter tensors. Their gradients are the trainer's
/// (`PlanGcn::fit`), not the model's.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Matrix>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor, returning its id.
    pub fn add(&mut self, value: Matrix) -> usize {
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

    /// A zero matrix of every parameter's shape, by id: a gradient
    /// accumulator or an optimizer moment.
    pub(crate) fn zeros_like(&self) -> Vec<Matrix> {
        let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        self.values.iter().map(zeros).collect()
    }

    /// Number of parameter tensors.
    pub fn n_tensors(&self) -> usize {
        self.values.len()
    }

    /// Total number of scalar parameters.
    pub fn n_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }

    /// Approximate in-memory size in bytes: the values.
    pub fn approx_size_bytes(&self) -> usize {
        self.n_scalars() * std::mem::size_of::<f64>()
    }

    /// Checks a deserialized store: every matrix's data exactly
    /// `rows × cols` long, and every value finite.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (pid, v) in self.values.iter().enumerate() {
            if v.rows().checked_mul(v.cols()) != Some(v.data().len()) {
                return Err(format!(
                    "parameter {pid}: {} values for a {}x{} matrix",
                    v.data().len(),
                    v.rows(),
                    v.cols()
                ));
            }
            if !v.data().iter().all(|x| x.is_finite()) {
                return Err(format!("parameter {pid} has a non-finite weight"));
            }
        }
        Ok(())
    }

    /// Parameter `pid`'s `(rows, cols)`; fails if there is no such
    /// parameter.
    pub(crate) fn shape(&self, pid: usize) -> Result<(usize, usize), String> {
        match self.values.get(pid) {
            Some(m) => Ok((m.rows(), m.cols())),
            None => Err(format!(
                "parameter id {pid} out of range ({} parameters)",
                self.values.len()
            )),
        }
    }

    /// Fails unless parameter `pid` exists with shape `rows × cols`.
    pub(crate) fn expect_shape(&self, pid: usize, rows: usize, cols: usize) -> Result<(), String> {
        match self.shape(pid)? {
            (r, c) if (r, c) == (rows, cols) => Ok(()),
            (r, c) => Err(format!("parameter {pid} is {r}x{c}, not {rows}x{cols}")),
        }
    }

    /// Every parameter's transpose, by id: what one training batch's
    /// backward reads its `δ·Wᵀ` products from.
    pub(crate) fn transposed_values(&self) -> Vec<Matrix> {
        self.values.iter().map(Matrix::transposed).collect()
    }
}

/// Inverted dropout over one row, drawn as the tape drew it: one
/// `gen_range(0.0..1.0)` per element in order, the mask `0` where the draw
/// is below `p` and `1/(1-p)` elsewhere, and `h = act × mask`. Without an
/// RNG dropout is off: nothing is drawn, `mask` is not touched and
/// `h = act`.
pub(crate) fn dropout_row(
    act: &[f64],
    p: f64,
    rng: Option<&mut StdRng>,
    mask: &mut [f64],
    h: &mut [f64],
) {
    let Some(rng) = rng else {
        h.copy_from_slice(act);
        return;
    };
    let keep = 1.0 / (1.0 - p);
    for ((m, o), &a) in mask.iter_mut().zip(h.iter_mut()).zip(act) {
        // `keep × 1` or `keep × 0`: the tape's two mask values exactly,
        // without a branch on a draw that goes either way (≈ 2× faster).
        let draw: f64 = rng.gen_range(0.0..1.0);
        *m = keep * f64::from(u8::from(draw >= p));
        *o = a * *m;
    }
}

/// Backward through ReLU then [`dropout_row`] for one row: `gz = g × mask`
/// where the ReLU let its input through (`act > 0`), else `0` (an empty
/// mask is dropout off). Returns whether any of `gz` is non-zero: an
/// all-zero gradient sends nothing further.
pub(crate) fn relu_dropout_backward(g: &[f64], act: &[f64], mask: &[f64], gz: &mut [f64]) -> bool {
    for (j, (z, &a)) in gz.iter_mut().zip(act).enumerate() {
        *z = match (a > 0.0, mask.get(j)) {
            (false, _) => 0.0,
            (true, Some(m)) => g[j] * m,
            (true, None) => g[j],
        };
    }
    gz.iter().any(|&z| z != 0.0)
}

/// A fully connected layer `y = x·W + b`: its widths are W's shape.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    w: usize,
    b: usize,
}

impl Linear {
    /// Allocates He-initialized weights in `store`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let w = store.add(Matrix::he_init(in_dim, out_dim, rng));
        let b = store.add(Matrix::zeros(1, out_dim));
        Self { w, b }
    }

    /// `(in_dim, out_dim)`: W's shape.
    pub(crate) fn shape(&self, store: &ParamStore) -> (usize, usize) {
        let w = store.value(self.w);
        (w.rows(), w.cols())
    }

    /// Forward pass on the tape.
    #[cfg(test)]
    pub fn tape_forward(&self, g: &mut Graph, x: Var) -> Var {
        let w = g.param(self.w);
        debug_assert_eq!(g.value(x).cols(), g.value(w).rows());
        let b = g.param(self.b);
        let h = g.matmul(x, w);
        g.add_row_broadcast(h, b)
    }

    /// Tape-free `out = x·W + b` for one row, rounding exactly as the
    /// tape does: the product accumulates from zero, the bias is added
    /// last.
    pub(crate) fn eval_into(&self, store: &ParamStore, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        row_matmul_acc(x, store.value(self.w).data(), out);
        for (o, b) in out.iter_mut().zip(store.value(self.b).data()) {
            *o += b;
        }
    }

    /// Backward of [`Linear::eval_into`] for one row, given `g` = ∂loss/∂y
    /// (not all zero): `g` adds into b's gradient in `grads` (one per
    /// parameter, by id), the outer product `xᵀ·g` into W's, and `dx`
    /// (unless empty, as for a layer whose input takes no gradient) is set
    /// to `g·Wᵀ`, accumulated from `+0.0` against `wt[w]`, this batch's
    /// transpose of W.
    pub(crate) fn backward(
        &self,
        grads: &mut [Matrix],
        wt: &[Matrix],
        x: &[f64],
        g: &[f64],
        dx: &mut [f64],
    ) {
        add_acc(grads[self.b].data_mut(), g);
        outer_acc(x, g, grads[self.w].data_mut());
        dx.fill(0.0);
        row_matmul_acc(g, wt[self.w].data(), dx);
    }

    /// Fails unless W is in `store` and the bias is one row as wide as W;
    /// returns the layer's `(in_dim, out_dim)`.
    pub(crate) fn validate(&self, store: &ParamStore) -> Result<(usize, usize), String> {
        let (in_dim, out_dim) = store.shape(self.w)?;
        store.expect_shape(self.b, 1, out_dim)?;
        Ok((in_dim, out_dim))
    }
}

/// One row's forward through an [`Mlp`], kept for [`Mlp::backward`]: per
/// layer its input, and for every layer but the last its post-ReLU output
/// and dropout mask (empty with dropout off).
#[derive(Debug, Default)]
pub(crate) struct MlpTrace {
    steps: Vec<MlpStep>,
    /// The output layer's row.
    out: Vec<f64>,
}

#[derive(Debug, Default)]
struct MlpStep {
    x: Vec<f64>,
    act: Vec<f64>,
    mask: Vec<f64>,
}

/// A multi-layer perceptron: Linear → ReLU (→ Dropout) …, with a linear
/// output layer. The dropout probability is the forward's argument.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[33, 64, 64, 1]`.
    ///
    /// # Panics
    /// Panics with fewer than two widths.
    pub fn new(store: &mut ParamStore, widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Input width: the first layer's.
    pub(crate) fn in_dim(&self, store: &ParamStore) -> usize {
        self.layers.first().map_or(0, |l| l.shape(store).0)
    }

    /// Forward pass on the tape; ReLU + dropout `p` after every layer
    /// except the last.
    #[cfg(test)]
    pub fn tape_forward(
        &self,
        g: &mut Graph,
        x: Var,
        p: f64,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.tape_forward(g, h);
            if i < last {
                h = g.relu(h);
                h = g.dropout(h, p, training, rng);
            }
        }
        h
    }

    /// Forward for one row, everything the backward needs kept in `t`:
    /// ReLU after every hidden layer, then dropout `p` drawn from `rng`
    /// ([`dropout_row`]) when training, none when `rng` is `None` — the
    /// tape's `training == false`, whose `× 1.0` is an identity. Returns
    /// the first output.
    pub(crate) fn forward(
        &self,
        store: &ParamStore,
        x: &[f64],
        p: f64,
        rng: Option<&mut StdRng>,
        t: &mut MlpTrace,
    ) -> f64 {
        let mut rng = rng.filter(|_| p > 0.0);
        t.steps.resize_with(self.layers.len(), MlpStep::default);
        if let Some(first) = t.steps.first_mut() {
            first.x.clear();
            first.x.extend_from_slice(x);
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = t.steps.split_at_mut(i + 1);
            let step = &mut done[i];
            let (_, out_dim) = layer.shape(store);
            let Some(next) = rest.first_mut() else {
                t.out.resize(out_dim, 0.0);
                layer.eval_into(store, &step.x, &mut t.out);
                break;
            };
            step.act.resize(out_dim, 0.0);
            layer.eval_into(store, &step.x, &mut step.act);
            relu_assign(&mut step.act);
            let width = if rng.is_some() { out_dim } else { 0 };
            step.mask.resize(width, 0.0);
            next.x.resize(out_dim, 0.0);
            let r = rng.as_deref_mut();
            dropout_row(&step.act, p, r, &mut step.mask, &mut next.x);
        }
        t.out.first().copied().unwrap_or(0.0)
    }

    /// Backward of [`Mlp::forward`] from `g_out` = ∂loss/∂output (a
    /// one-output head), last layer first, every weight's gradient added
    /// into `grads`. Returns ∂loss/∂x, or `None` once a gradient is all
    /// zero (then nothing reaches `x`).
    pub(crate) fn backward(
        &self,
        store: &ParamStore,
        grads: &mut [Matrix],
        wt: &[Matrix],
        t: &MlpTrace,
        g_out: f64,
    ) -> Option<Vec<f64>> {
        let mut g = vec![g_out];
        let mut gz = Vec::new();
        for (i, (layer, step)) in self.layers.iter().zip(&t.steps).enumerate().rev() {
            gz.resize(g.len(), 0.0);
            let live = if i + 1 < self.layers.len() {
                relu_dropout_backward(&g, &step.act, &step.mask, &mut gz)
            } else {
                gz.copy_from_slice(&g);
                gz.iter().any(|&z| z != 0.0)
            };
            if !live {
                return None;
            }
            g.resize(layer.shape(store).0, 0.0);
            layer.backward(grads, wt, &step.x, &gz, &mut g);
        }
        Some(g)
    }

    /// Fails unless every layer is well formed ([`Linear::validate`]),
    /// each reads as many inputs as the one before it writes, and the last
    /// writes `out_dim`; returns the first layer's input width.
    pub(crate) fn validate(&self, store: &ParamStore, out_dim: usize) -> Result<usize, String> {
        let shapes: Vec<_> = self
            .layers
            .iter()
            .map(|l| l.validate(store))
            .collect::<Result<_, _>>()?;
        if let Some(w) = shapes.windows(2).find(|w| w[0].1 != w[1].0) {
            return Err(format!(
                "a {}-input layer after a {}-output one",
                w[1].0, w[0].1
            ));
        }
        match (shapes.first(), shapes.last()) {
            (Some(&(in_dim, _)), Some(&(_, last))) if last == out_dim => Ok(in_dim),
            _ => Err(format!("the MLP does not end in {out_dim} outputs")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::graph::add_grads;
    use rand::{Rng, SeedableRng};

    #[test]
    fn store_bookkeeping() {
        let mut s = ParamStore::new();
        let a = s.add(Matrix::zeros(2, 3));
        let b = s.add(Matrix::zeros(1, 4));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.n_tensors(), 2);
        assert_eq!(s.n_scalars(), 10);
        assert_eq!(s.approx_size_bytes(), 80);
    }

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        let lin = Linear::new(&mut s, 3, 5, &mut rng);
        let mut g = Graph::new(&s);
        let x = g.input(Matrix::zeros(2, 3));
        let y = lin.tape_forward(&mut g, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (2, 5));
    }

    #[test]
    fn mlp_learns_xor_like_function() {
        // y = 1 if exactly one input > 0.5 else 0: non-linearly separable.
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &[2, 16, 16, 1], &mut rng);
        let mut adam = Adam::new(&store);
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
            let mut grads = store.zeros_like();
            let mut g = Graph::new(&store);
            let mut terms = Vec::new();
            for (x, y) in &data {
                let xin = g.input(Matrix::row_vector(x));
                let out = mlp.tape_forward(&mut g, xin, 0.0, true, &mut rng);
                terms.push(g.squared_error(out, *y));
            }
            let loss = g.mean_scalars(&terms);
            last_loss = g.value(loss).get(0, 0);
            add_grads(&mut grads, g.backward(loss));
            adam.step(&mut store, &grads, 0.01);
        }
        assert!(last_loss < 0.05, "XOR loss did not converge: {last_loss}");
        // Spot-check the four corners.
        let mut eval = |x: [f64; 2]| -> f64 {
            let mut g = Graph::new(&store);
            let xin = g.input(Matrix::row_vector(&x));
            let out = mlp.tape_forward(&mut g, xin, 0.0, false, &mut rng);
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
        Mlp::new(&mut s, &[3], &mut rng);
    }
}
