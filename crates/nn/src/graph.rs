//! Tape-based reverse-mode automatic differentiation: the reference
//! implementation of the plan-GCN's gradients, compiled for tests only.
//!
//! A [`Graph`] is a define-by-run tape: every operation appends a node
//! holding its output value; [`Graph::backward`] walks the tape in reverse,
//! propagating gradients, and returns the parameters' gradients for
//! [`ParamStore::add_grads`]. A fresh graph is built per mini-batch, which
//! keeps the implementation small and auditable.
//!
//! The library does not use it. `PlanGcn::fit` runs a hand-written forward
//! and backward over flat row buffers, and `PlanGcn::predict` a tape-free
//! forward (see `gcn.rs`). Both are held to this tape by `to_bits`: the
//! trainer's gradients for whole batches, and predict's answers. The tape
//! fixes the order of every rounding the trainer must repeat: samples are
//! walked back from the last to the first, each node in reverse creation
//! order, an all-zero incoming gradient sends nothing, and every product
//! accumulates from `+0.0` with `k` ascending and exact-zero inputs
//! skipped (`tensor::row_matmul_acc`, which both call).
//!
//! The tape borrows the [`ParamStore`] it was built on: a parameter node
//! ([`Graph::param`]) holds only its id and reads the weights in place,
//! forward and backward. Gradients exist only while backward needs them: a
//! node's buffer is allocated when the first gradient reaches it and
//! dropped once the node has passed it on, and inputs take none.

use crate::layers::ParamStore;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// External input (takes no gradient).
    Input,
    /// Parameter `pid`, read in place from the store; its gradient is
    /// returned by backward.
    Param(usize),
    /// `a · b`.
    MatMul(Var, Var),
    /// Elementwise `a + b` (same shape).
    Add(Var, Var),
    /// `x (n×c) + bias (1×c)` broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// Elementwise `max(x, 0)`.
    Relu(Var),
    /// Inverted dropout; the retained mask (`1/(1-p)` or `0`) is stored.
    Dropout(Var, Vec<f64>),
    /// Stack k row vectors (each `1×c`) into a `k×c` matrix.
    StackRows(Vec<Var>),
    /// Column-mean over rows: `k×c → 1×c`.
    MeanRows(Var),
    /// Concatenate two row vectors along columns.
    ConcatCols(Var, Var),
    /// `s · x`.
    Scale(Var, f64),
    /// `(x[0,0] − target)²` as a `1×1` scalar.
    SquaredError(Var, f64),
}

struct Node {
    op: Op,
    /// The output; empty (no allocation) for a parameter node, whose value
    /// is the store's.
    value: Matrix,
}

/// The autodiff tape over one [`ParamStore`]. See the module docs.
pub struct Graph<'p> {
    params: &'p ParamStore,
    nodes: Vec<Node>,
}

impl<'p> Graph<'p> {
    /// Empty tape over `params`.
    pub fn new(params: &'p ParamStore) -> Self {
        Self {
            params,
            nodes: Vec::new(),
        }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        let node = &self.nodes[v.0];
        match node.op {
            Op::Param(pid) => self.params.value(pid),
            _ => &node.value,
        }
    }

    /// Registers an external input.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, value)
    }

    /// Registers a use of parameter `pid`; its gradient is returned by
    /// [`Graph::backward`].
    pub fn param(&mut self, pid: usize) -> Var {
        self.push(Op::Param(pid), Matrix::zeros(0, 0))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), value)
    }

    /// Elementwise sum of same-shaped vars.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.add_assign(self.value(b));
        self.push(Op::Add(a, b), value)
    }

    /// Adds a `1×c` bias row to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let xv = self.value(x);
        let bv = self.value(bias);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(xv.cols(), bv.cols(), "bias width mismatch");
        let value = Matrix::from_fn(xv.rows(), xv.cols(), |r, c| xv.get(r, c) + bv.get(0, c));
        self.push(Op::AddRowBroadcast(x, bias), value)
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let value = Matrix::from_fn(xv.rows(), xv.cols(), |r, c| xv.get(r, c).max(0.0));
        self.push(Op::Relu(x), value)
    }

    /// Inverted dropout: during training, zeroes each element with
    /// probability `p` and scales survivors by `1/(1-p)`; identity when
    /// `training` is false or `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f64, training: bool, rng: &mut StdRng) -> Var {
        if !training || p <= 0.0 {
            // Identity via Scale keeps the tape uniform.
            return self.scale(x, 1.0);
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let xv = self.value(x);
        let keep = 1.0 / (1.0 - p);
        let mask: Vec<f64> = (0..xv.rows() * xv.cols())
            .map(|_| {
                if rng.gen_range(0.0..1.0) < p {
                    0.0
                } else {
                    keep
                }
            })
            .collect();
        let value = Matrix::from_vec(
            xv.rows(),
            xv.cols(),
            xv.data().iter().zip(&mask).map(|(v, m)| v * m).collect(),
        );
        self.push(Op::Dropout(x, mask), value)
    }

    /// Stacks k row vectors into a `k×c` matrix.
    ///
    /// # Panics
    /// Panics if `rows` is empty or widths differ.
    pub fn stack_rows(&mut self, rows: &[Var]) -> Var {
        assert!(!rows.is_empty(), "stack_rows needs at least one row");
        let cols = self.value(rows[0]).cols();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for &v in rows {
            let m = self.value(v);
            assert_eq!(m.rows(), 1, "stack_rows expects row vectors");
            assert_eq!(m.cols(), cols, "stack_rows width mismatch");
            data.extend_from_slice(m.data());
        }
        let value = Matrix::from_vec(rows.len(), cols, data);
        self.push(Op::StackRows(rows.to_vec()), value)
    }

    /// Column-mean over rows.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let k = xv.rows() as f64;
        let value = Matrix::from_fn(1, xv.cols(), |_, c| {
            (0..xv.rows()).map(|r| xv.get(r, c)).sum::<f64>() / k
        });
        self.push(Op::MeanRows(x), value)
    }

    /// Concatenates two row vectors along columns.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.rows(), 1);
        assert_eq!(bv.rows(), 1);
        let mut data = av.data().to_vec();
        data.extend_from_slice(bv.data());
        let value = Matrix::from_vec(1, av.cols() + bv.cols(), data);
        self.push(Op::ConcatCols(a, b), value)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, s: f64) -> Var {
        let mut value = self.value(x).clone();
        value.scale_assign(s);
        self.push(Op::Scale(x, s), value)
    }

    /// `(x[0,0] − target)²` as a `1×1` loss term.
    pub fn squared_error(&mut self, x: Var, target: f64) -> Var {
        let d = self.value(x).get(0, 0) - target;
        self.push(
            Op::SquaredError(x, target),
            Matrix::from_vec(1, 1, vec![d * d]),
        )
    }

    /// Sums a list of `1×1` scalars and divides by their count (batch-mean
    /// loss). Returns the last element unchanged for a single term.
    pub fn mean_scalars(&mut self, terms: &[Var]) -> Var {
        assert!(!terms.is_empty());
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = self.add(acc, t);
        }
        self.scale(acc, 1.0 / terms.len() as f64)
    }

    /// Adds `g` to the gradient of `to`, allocating it on first arrival.
    /// Inputs take no gradient, so nothing is computed for them.
    fn send(&self, grads: &mut [Option<Matrix>], to: Var, g: impl FnOnce() -> Matrix) {
        if matches!(self.nodes[to.0].op, Op::Input) {
            return;
        }
        let g = g();
        let (rows, cols) = (self.value(to).rows(), self.value(to).cols());
        grads[to.0]
            .get_or_insert_with(|| Matrix::zeros(rows, cols))
            .add_assign(&g);
    }

    /// Reverse pass from `loss` (must be `1×1`). Returns the gradient of
    /// every parameter the tape used, indexed by parameter id (`None` for
    /// one it never reached); [`ParamStore::add_grads`] accumulates them.
    /// Consumes the tape: each node's gradient is dropped as soon as the
    /// node has passed it on.
    pub fn backward(self, loss: Var) -> Vec<Option<Matrix>> {
        let l = self.value(loss);
        assert_eq!((l.rows(), l.cols()), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        let mut param_grads: Vec<Option<Matrix>> = vec![None; self.params.n_tensors()];
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            // A gradient that never arrived, or summed to zero, moves
            // nothing.
            let Some(gout) = grads[i].take() else {
                continue;
            };
            if gout.data().iter().all(|&g| g == 0.0) {
                continue;
            }
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(pid) => {
                    let p = self.params.value(*pid);
                    param_grads[*pid]
                        .get_or_insert_with(|| Matrix::zeros(p.rows(), p.cols()))
                        .add_assign(&gout);
                }
                &Op::MatMul(a, b) => {
                    self.send(&mut grads, a, || gout.matmul_transposed(self.value(b)));
                    self.send(&mut grads, b, || self.value(a).transposed_matmul(&gout));
                }
                &Op::Add(a, b) => {
                    self.send(&mut grads, a, || gout.clone());
                    self.send(&mut grads, b, || gout.clone());
                }
                &Op::AddRowBroadcast(x, bias) => {
                    self.send(&mut grads, x, || gout.clone());
                    self.send(&mut grads, bias, || {
                        Matrix::from_fn(1, gout.cols(), |_, c| {
                            (0..gout.rows()).map(|r| gout.get(r, c)).sum()
                        })
                    });
                }
                &Op::Relu(x) => {
                    let xv = self.value(x);
                    self.send(&mut grads, x, || {
                        Matrix::from_fn(gout.rows(), gout.cols(), |r, c| {
                            if xv.get(r, c) > 0.0 {
                                gout.get(r, c)
                            } else {
                                0.0
                            }
                        })
                    });
                }
                Op::Dropout(x, mask) => {
                    self.send(&mut grads, *x, || {
                        Matrix::from_vec(
                            gout.rows(),
                            gout.cols(),
                            gout.data().iter().zip(mask).map(|(g, m)| g * m).collect(),
                        )
                    });
                }
                Op::StackRows(rows) => {
                    for (r, &v) in rows.iter().enumerate() {
                        self.send(&mut grads, v, || Matrix::row_vector(gout.row(r)));
                    }
                }
                &Op::MeanRows(x) => {
                    let k = self.value(x).rows();
                    self.send(&mut grads, x, || {
                        Matrix::from_fn(k, gout.cols(), |_, c| gout.get(0, c) / k as f64)
                    });
                }
                &Op::ConcatCols(a, b) => {
                    let ca = self.value(a).cols();
                    self.send(&mut grads, a, || Matrix::row_vector(&gout.row(0)[..ca]));
                    self.send(&mut grads, b, || Matrix::row_vector(&gout.row(0)[ca..]));
                }
                &Op::Scale(x, s) => {
                    self.send(&mut grads, x, || {
                        let mut gx = gout.clone();
                        gx.scale_assign(s);
                        gx
                    });
                }
                &Op::SquaredError(x, target) => {
                    let d = self.value(x).get(0, 0) - target;
                    self.send(&mut grads, x, || {
                        Matrix::from_vec(1, 1, vec![2.0 * d * gout.get(0, 0)])
                    });
                }
            }
        }
        param_grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Numerical-gradient check for a scalar function of one parameter.
    fn check_param_grad(build: impl Fn(&mut Graph) -> Var, store: &mut ParamStore, pid: usize) {
        // Analytic gradient.
        store.zero_grads();
        let mut g = Graph::new(store);
        let loss = build(&mut g);
        let grads = g.backward(loss);
        store.add_grads(grads);
        let analytic = store.grad(pid).clone();

        // Numerical gradient.
        let eps = 1e-5;
        let (rows, cols) = (analytic.rows(), analytic.cols());
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(pid).get(r, c);
                store.value_mut(pid).set(r, c, orig + eps);
                let mut gp = Graph::new(store);
                let vp = build(&mut gp);
                let lp = gp.value(vp).get(0, 0);
                store.value_mut(pid).set(r, c, orig - eps);
                let mut gm = Graph::new(store);
                let vm = build(&mut gm);
                let lm = gm.value(vm).get(0, 0);
                store.value_mut(pid).set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 1e-4 * (1.0 + a.abs()),
                    "grad mismatch at ({r},{c}): analytic={a} numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn matmul_grad_check() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.1]));
        check_param_grad(
            |g| {
                let x = g.input(Matrix::row_vector(&[1.0, 2.0]));
                let wp = g.param(w);
                let h = g.matmul(x, wp);
                // loss = (h·[1;1] - 3)^2 via matmul with constant
                let ones = g.input(Matrix::from_vec(2, 1, vec![1.0, 1.0]));
                let y = g.matmul(h, ones);
                g.squared_error(y, 3.0)
            },
            &mut store,
            w,
        );
    }

    #[test]
    fn mlp_like_grad_check() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let w1 = store.add(Matrix::he_init(3, 4, &mut rng));
        let b1 = store.add(Matrix::zeros(1, 4));
        let w2 = store.add(Matrix::he_init(4, 1, &mut rng));
        let build = |g: &mut Graph| {
            let x = g.input(Matrix::row_vector(&[0.5, -1.0, 2.0]));
            let w1v = g.param(w1);
            let b1v = g.param(b1);
            let w2v = g.param(w2);
            let h = g.matmul(x, w1v);
            let h = g.add_row_broadcast(h, b1v);
            let h = g.relu(h);
            let y = g.matmul(h, w2v);
            g.squared_error(y, 1.5)
        };
        for pid in [w1, b1, w2] {
            check_param_grad(build, &mut store, pid);
        }
    }

    #[test]
    fn stack_mean_concat_grad_check() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let w = store.add(Matrix::he_init(2, 2, &mut rng));
        let head = store.add(Matrix::he_init(4, 1, &mut rng));
        let build = |g: &mut Graph| {
            let wv = g.param(w);
            let x1 = g.input(Matrix::row_vector(&[1.0, 0.0]));
            let x2 = g.input(Matrix::row_vector(&[0.0, 1.0]));
            let h1 = g.matmul(x1, wv);
            let h2 = g.matmul(x2, wv);
            let stacked = g.stack_rows(&[h1, h2]);
            let agg = g.mean_rows(stacked);
            let cat = g.concat_cols(agg, h1);
            let hv = g.param(head);
            let y = g.matmul(cat, hv);
            g.squared_error(y, 0.7)
        };
        for pid in [w, head] {
            check_param_grad(build, &mut store, pid);
        }
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![-2.0]));
        let mut g = Graph::new(&store);
        let x = g.input(Matrix::row_vector(&[1.0]));
        let wv = g.param(w);
        let h = g.matmul(x, wv); // -2, relu -> 0
        let r = g.relu(h);
        let loss = g.squared_error(r, 5.0);
        // The gradient dies at the ReLU and never reaches the weight.
        assert!(g.backward(loss)[w].is_none());
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.input(Matrix::row_vector(&[1.0, 2.0, 3.0]));
        let d = g.dropout(x, 0.5, false, &mut rng);
        assert_eq!(g.value(d).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_train_mode_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = g.input(Matrix::from_vec(1, n, vec![1.0; n]));
        let d = g.dropout(x, 0.3, true, &mut rng);
        let mean: f64 = g.value(d).data().iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
        // Every surviving element is scaled by 1/0.7.
        for &v in g.value(d).data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_scalars_averages() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.input(Matrix::from_vec(1, 1, vec![2.0]));
        let b = g.input(Matrix::from_vec(1, 1, vec![4.0]));
        let c = g.input(Matrix::from_vec(1, 1, vec![6.0]));
        let m = g.mean_scalars(&[a, b, c]);
        assert!((g.value(m).get(0, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // One linear neuron fitting y = 3x: a few GD steps must reduce loss.
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![0.0]));
        let loss_at = |store: &ParamStore| -> f64 {
            let mut g = Graph::new(store);
            let x = g.input(Matrix::row_vector(&[2.0]));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let l = g.squared_error(y, 6.0);
            g.value(l).get(0, 0)
        };
        let initial = loss_at(&store);
        for _ in 0..50 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let x = g.input(Matrix::row_vector(&[2.0]));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let l = g.squared_error(y, 6.0);
            let grads = g.backward(l);
            store.add_grads(grads);
            let grad = store.grad(w).get(0, 0);
            let v = store.value(w).get(0, 0);
            store.value_mut(w).set(0, 0, v - 0.05 * grad);
        }
        let final_loss = loss_at(&store);
        assert!(final_loss < 1e-3 * initial.max(1.0), "final={final_loss}");
        assert!((store.value(w).get(0, 0) - 3.0).abs() < 0.05);
    }
}
