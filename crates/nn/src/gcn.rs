//! The plan-GCN: Stage's global-model architecture (paper §4.4, Fig. 5).
//!
//! Pipeline per query plan:
//!
//! 1. **Node embedding** — each node's feature vector goes through a linear
//!    layer + ReLU into a `hidden`-dim embedding.
//! 2. **Directed message passing** — `gcn_layers` rounds of child→parent
//!    convolution: `h'ᵥ = ReLU(hᵥ·W_self + mean(h_children)·W_child + b)`.
//!    Information flows bottom-up, so after enough rounds the root embedding
//!    summarizes the entire plan.
//! 3. **Readout** — the root embedding is concatenated with a *system
//!    feature vector* (plan summary, instance type, node count, memory,
//!    concurrency — supplied by the caller) and an MLP head regresses the
//!    target (Stage trains in `ln(1+secs)` space).
//!
//! The paper's production model uses hidden size 512 and 8 layers on GPUs;
//! defaults here are CPU-scaled (64/3) and both are configurable.
//! A model is its weights: its widths (node, hidden, system) and round
//! count are read from the parameter shapes and `convs.len()`.
//!
//! Training ([`PlanGcn::fit`]) and inference ([`PlanGcn::predict`]) run
//! one forward over flat `n × hidden` row buffers and the weights as they
//! sit in the model's parameter store, dropout on for the first and off
//! for the second; the backward is written by hand, into gradients that
//! `fit` owns. Both run on the
//! multiply-accumulate loop in `tensor.rs`, so every answer and every
//! trained weight is what the reference autodiff tape (`graph.rs`,
//! compiled for tests only) computes, to the bit.

use crate::adam::Adam;
#[cfg(test)]
use crate::graph::{Graph, Var};
use crate::layers::{dropout_row, relu_dropout_backward, Linear, Mlp, MlpTrace, ParamStore};
use crate::tensor::{add_acc, outer_acc, relu_assign, row_matmul_acc, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A plan tree prepared for the GCN: per-node feature vectors, child lists,
/// the root index, system features, and the regression target.
#[derive(Debug, Clone)]
pub struct TreeSample {
    /// One feature vector per node; all must share the configured width.
    pub node_feats: Vec<Vec<f64>>,
    /// Children of each node (indices into `node_feats`).
    pub children: Vec<Vec<usize>>,
    /// Root node index.
    pub root: usize,
    /// System feature vector (shared by all nodes of the plan).
    pub sys_feats: Vec<f64>,
    /// Regression target (label space chosen by the caller).
    pub target: f64,
}

impl TreeSample {
    /// Checks structural consistency: child indices in range, no child
    /// listed twice, every non-root node reachable from the root, and the
    /// graph is acyclic (tree/DAG shaped).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_feats.len();
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.children.len() != n {
            return Err("children list length mismatch".into());
        }
        if self.root >= n {
            return Err("root out of range".into());
        }
        let mut in_degree = vec![0usize; n];
        for (v, kids) in self.children.iter().enumerate() {
            for &k in kids {
                if k >= n {
                    return Err(format!("node {v} has out-of-range child {k}"));
                }
                in_degree[k] += 1;
            }
        }
        if in_degree[self.root] != 0 {
            return Err("root appears as a child (cycle)".into());
        }
        for (v, &d) in in_degree.iter().enumerate() {
            if v != self.root && d != 1 {
                return Err(format!(
                    "node {v} has in-degree {d}; a plan tree requires exactly 1"
                ));
            }
        }
        if self.topo_order().len() != n {
            return Err("tree has unreachable nodes or a cycle".into());
        }
        Ok(())
    }

    /// Post-order over the tree from the root (children before parents).
    /// On cyclic or partially unreachable input the returned order is
    /// truncated, which [`TreeSample::validate`] uses for detection. An
    /// out-of-range child id or a missing children list is skipped, and an
    /// out-of-range root gives an empty order.
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.node_feats.len();
        let mut order = Vec::with_capacity(n);
        if self.root >= n {
            return order;
        }
        let mut state = vec![0u8; n]; // 0 unseen, 1 on stack, 2 done
        let mut stack = vec![(self.root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                state[v] = 2;
                order.push(v);
                continue;
            }
            if state[v] != 0 {
                continue; // already visited or cycle — skip
            }
            state[v] = 1;
            stack.push((v, true));
            for c in self.kids(v) {
                if state[c] == 0 {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Node `v`'s children, in order, without the ids that name no node
    /// (none, once [`TreeSample::validate`] passes).
    fn kids(&self, v: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        let n = self.node_feats.len();
        let listed = self.children.get(v).into_iter().flatten();
        listed.copied().filter(move |&c| c < n)
    }
}

/// GCN architecture and training hyper-parameters: the one settings struct
/// of the global tier (`stage_core::GlobalModelConfig` names it too).
#[derive(Debug, Clone)]
pub struct GcnConfig {
    /// Hidden embedding size (paper: 512; CPU default: 64).
    pub hidden: usize,
    /// Message-passing rounds (paper: 8; CPU default: 3).
    pub gcn_layers: usize,
    /// Dropout probability on hidden activations (paper: 0.2).
    pub dropout: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (plans per gradient step).
    pub batch_size: usize,
    /// RNG seed (weights, shuffling, dropout).
    pub seed: u64,
}

impl Default for GcnConfig {
    /// CPU-scaled defaults.
    fn default() -> Self {
        Self {
            hidden: 64,
            gcn_layers: 3,
            dropout: 0.2,
            lr: 1e-3,
            epochs: 25,
            batch_size: 32,
            seed: 42,
        }
    }
}

/// Per-layer message-passing parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConvLayer {
    w_self: usize,
    w_child: usize,
    bias: usize,
}

impl ConvLayer {
    /// One node's round, rounded as the tape rounds it:
    /// `out = ReLU(h_v·W_self + agg·W_child + b)`, each product accumulated
    /// from `+0.0`, the child term (none for a leaf, whose `agg` is `None`)
    /// added to the self term, then the bias. `child_term` is scratch.
    fn eval_row(
        &self,
        store: &ParamStore,
        h_v: &[f64],
        agg: Option<&[f64]>,
        child_term: &mut [f64],
        out: &mut [f64],
    ) {
        out.fill(0.0);
        row_matmul_acc(h_v, store.value(self.w_self).data(), out);
        if let Some(agg) = agg {
            child_term.fill(0.0);
            row_matmul_acc(agg, store.value(self.w_child).data(), child_term);
            add_acc(out, child_term);
        }
        for (o, b) in out.iter_mut().zip(store.value(self.bias).data()) {
            *o = (*o + b).max(0.0);
        }
    }
}

/// The mean of rows `kids` of `h` (each `agg.len()` wide) into `agg`, as the
/// tape rounds it: per column summed in child order, then divided by the
/// child count. Returns `false`, leaving `agg` alone, when there are none.
fn mean_row(h: &[f64], kids: impl Iterator<Item = usize> + Clone, agg: &mut [f64]) -> bool {
    let (hidden, k) = (agg.len(), kids.clone().count());
    if k == 0 {
        return false;
    }
    for (j, a) in agg.iter_mut().enumerate() {
        *a = kids.clone().map(|c| h[c * hidden + j]).sum::<f64>() / k as f64;
    }
    true
}

/// One sample's forward, kept for its backward: the tape's node order and,
/// per round (0 is the embedding), flat `n × hidden` buffers whose row `v`
/// is node `v`'s.
#[derive(Debug, Default)]
struct Trace {
    /// Post-order, children before parents.
    order: Vec<usize>,
    /// Each node's distance from the root, in edges.
    depth: Vec<usize>,
    rounds: Vec<Round>,
    /// Scratch for [`ConvLayer::eval_row`].
    child_term: Vec<f64>,
    /// The head's input: the root's last-round row ⊕ the system features.
    cat: Vec<f64>,
    head: MlpTrace,
    /// ∂(batch loss)/∂output: `2·(output − target)/batch`.
    g_out: f64,
}

/// One round's rows. A row that cannot reach the readout holds whatever
/// an earlier sample left there (zero in a fresh trace): no output depends
/// on it, and it takes no gradient.
#[derive(Debug, Default)]
struct Round {
    /// Post-ReLU rows, before dropout.
    act: Vec<f64>,
    /// Dropout masks; empty in round 0 and with dropout off.
    mask: Vec<f64>,
    /// What the next round and the readout read: `act × mask`.
    h: Vec<f64>,
    /// Each node's mean child row (rounds ≥ 1; a leaf's row is unused).
    agg: Vec<f64>,
}

/// Buffers one [`PlanGcn::fit`] reuses from batch to batch: a trace per
/// sample of the batch, the backward's gradient rows, and the batch's
/// gradient of every parameter, by id, which Adam steps from.
#[derive(Debug)]
struct Workspace {
    traces: Vec<Trace>,
    rows: GradRows,
    grads: Vec<Matrix>,
}

impl Workspace {
    /// Empty buffers and one zero gradient per parameter of `store`.
    fn new(store: &ParamStore) -> Self {
        Self {
            traces: Vec::new(),
            rows: GradRows::default(),
            grads: store.zeros_like(),
        }
    }
}

#[derive(Debug, Default)]
struct GradRows {
    /// ∂loss/∂rows of the round being walked back, and of the one below.
    g: Vec<f64>,
    g_below: Vec<f64>,
    /// One row: a node's gradient past its ReLU and dropout, and scratch.
    gz: Vec<f64>,
    tmp: Vec<f64>,
}

/// The trainable plan-GCN model: its weights and nothing else.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanGcn {
    store: ParamStore,
    embed: Linear,
    convs: Vec<ConvLayer>,
    head: Mlp,
}

// A trained plan-GCN is immutable at inference time and is shared across
// replay worker threads behind an `Arc` (via `stage_core::GlobalModel`);
// this compile-time check pins that contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlanGcn>();
    assert_send_sync::<TreeSample>();
};

impl PlanGcn {
    /// Initializes a model with random weights drawn from `config.seed`,
    /// reading `node_feat_dim` node and `sys_feat_dim` system features.
    pub fn new(config: &GcnConfig, node_feat_dim: usize, sys_feat_dim: usize) -> Self {
        let hidden = config.hidden;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let embed = Linear::new(&mut store, node_feat_dim, hidden, &mut rng);
        let convs = (0..config.gcn_layers)
            .map(|_| ConvLayer {
                w_self: store.add(Matrix::he_init(hidden, hidden, &mut rng)),
                w_child: store.add(Matrix::he_init(hidden, hidden, &mut rng)),
                bias: store.add(Matrix::zeros(1, hidden)),
            })
            .collect();
        let head = Mlp::new(&mut store, &[hidden + sys_feat_dim, hidden, 1], &mut rng);
        Self {
            store,
            embed,
            convs,
            head,
        }
    }

    /// Hidden width: the embedding's output width.
    fn hidden(&self) -> usize {
        self.embed.shape(&self.store).1
    }

    /// System feature width: what the head reads beyond the root's row.
    pub fn sys_feat_dim(&self) -> usize {
        self.head.in_dim(&self.store).saturating_sub(self.hidden())
    }

    /// Forward pass for one sample on the reference tape, dropout `p` when
    /// `training`, which the tests hold [`PlanGcn::predict`] (eval mode)
    /// and the trainer's gradients (training mode) to, bit for bit. Returns
    /// the `1×1` prediction var.
    #[cfg(test)]
    fn tape_forward(
        &self,
        g: &mut Graph,
        sample: &TreeSample,
        p: f64,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let order = sample.topo_order();
        let n = sample.node_feats.len();

        // 1. Embed every node.
        let mut h: Vec<Option<Var>> = vec![None; n];
        for &v in &order {
            let x = g.input(Matrix::row_vector(&sample.node_feats[v]));
            let e = self.embed.tape_forward(g, x);
            h[v] = Some(g.relu(e));
        }

        // 2. Message passing; `next` is built from the previous round's
        // `h` only, so the order within a round does not matter.
        for conv in &self.convs {
            let mut next: Vec<Option<Var>> = vec![None; n];
            for &v in &order {
                // The topo order covers every node of a validated sample,
                // so every `h[..]` below is `Some`.
                let Some(hv) = h[v] else { continue };
                let w_self = g.param(conv.w_self);
                let self_term = g.matmul(hv, w_self);
                let kids: Vec<Var> = sample.children[v].iter().filter_map(|&c| h[c]).collect();
                let combined = if kids.is_empty() {
                    self_term
                } else {
                    let stacked = g.stack_rows(&kids);
                    let agg = g.mean_rows(stacked);
                    let w_child = g.param(conv.w_child);
                    let child_term = g.matmul(agg, w_child);
                    g.add(self_term, child_term)
                };
                let b = g.param(conv.bias);
                let biased = g.add_row_broadcast(combined, b);
                let activated = g.relu(biased);
                next[v] = Some(g.dropout(activated, p, training, rng));
            }
            h = next;
        }

        // 3. Readout: root ⊕ system features → head (a zero vector stands
        // in for a root embedding that is not there).
        let root_h = h
            .get(sample.root)
            .copied()
            .flatten()
            .unwrap_or_else(|| g.input(Matrix::row_vector(&vec![0.0; self.hidden()])));
        let sys = g.input(Matrix::row_vector(&sample.sys_feats));
        let cat = g.concat_cols(root_h, sys);
        self.head.tape_forward(g, cat, p, training, rng)
    }

    /// Predicts the target for one sample: the forward [`PlanGcn::fit`]
    /// trains through, with dropout off, so the answer is the tape's
    /// eval-mode one, to the bit.
    /// Never panics on a sample [`TreeSample::validate`] would reject: the
    /// walk covers the nodes reachable from an in-range root (so
    /// unreachable nodes and cycles need no special case), an out-of-range
    /// child id is left out of its parent's mean, and a root without a row
    /// reads out from a zero one.
    pub fn predict(&self, sample: &TreeSample) -> f64 {
        self.forward(sample, 0.0, None, &mut Trace::default())
    }

    /// The forward for one sample, in the tape's order: nodes in
    /// post-order, only the rows that reach the readout, and — when `rng`
    /// is given and `p > 0` — dropout `p` drawn after every round and
    /// every hidden head layer ([`dropout_row`]). Fills `t` for
    /// [`PlanGcn::backward`] and returns the output.
    fn forward(&self, sample: &TreeSample, p: f64, rng: Option<&mut StdRng>, t: &mut Trace) -> f64 {
        let hidden = self.hidden();
        let mut rng = rng.filter(|_| p > 0.0);
        let n = sample.node_feats.len();
        let row = |v: usize| v * hidden..(v + 1) * hidden;
        t.order = sample.topo_order();
        t.rounds.resize_with(self.convs.len() + 1, Round::default);
        for (r, round) in t.rounds.iter_mut().enumerate() {
            let width = if r == 0 { 0 } else { n * hidden };
            round.act.resize(n * hidden, 0.0);
            round.h.resize(n * hidden, 0.0);
            round.agg.resize(width, 0.0);
            let masked = if rng.is_some() { width } else { 0 };
            round.mask.resize(masked, 0.0);
        }
        t.child_term.resize(hidden, 0.0);
        // Round r's row for a node more than `gcn_layers − r` edges below
        // the root never reaches the readout, so it is not computed; its
        // dropout is still drawn, keeping the tape's mask stream.
        t.depth.clear();
        t.depth.resize(n, 0);
        for &v in t.order.iter().rev() {
            for c in sample.kids(v) {
                t.depth[c] = t.depth[v] + 1;
            }
        }
        let reaches = |v: usize, r: usize| t.depth[v] + r <= self.convs.len();

        // 1. Embed every node that reaches the readout.
        let embedded = &mut t.rounds[0];
        for (v, feats) in sample.node_feats.iter().enumerate() {
            if reaches(v, 0) {
                let e = &mut embedded.act[row(v)];
                self.embed.eval_into(&self.store, feats, e);
                relu_assign(e);
            }
        }
        embedded.h.copy_from_slice(&embedded.act);

        // 2. Message passing, each round reading the one below.
        for (r, conv) in self.convs.iter().enumerate() {
            let (done, rest) = t.rounds.split_at_mut(r + 1);
            let (below, round) = (&done[r], &mut rest[0]);
            for &v in &t.order {
                let act = &mut round.act[row(v)];
                if reaches(v, r + 1) {
                    let agg = &mut round.agg[row(v)];
                    let agg = mean_row(&below.h, sample.kids(v), agg).then_some(&*agg);
                    let h_v = &below.h[row(v)];
                    conv.eval_row(&self.store, h_v, agg, &mut t.child_term, act);
                }
                let mask = round.mask.get_mut(row(v)).unwrap_or_default();
                dropout_row(act, p, rng.as_deref_mut(), mask, &mut round.h[row(v)]);
            }
        }

        // 3. Readout: root ⊕ system features → head.
        let top = &t.rounds[self.convs.len()];
        t.cat.clear();
        match (sample.root < n).then(|| &top.h[row(sample.root)]) {
            Some(root) => t.cat.extend_from_slice(root),
            None => t.cat.resize(hidden, 0.0),
        }
        t.cat.extend_from_slice(&sample.sys_feats);
        self.head.forward(&self.store, &t.cat, p, rng, &mut t.head)
    }

    /// Backward of one [`PlanGcn::forward`] in the tape's reverse
    /// order — the head, then the rounds from the last to the first with
    /// nodes in reverse post-order, then the embedding — adding every
    /// weight's gradient into `grads`, by parameter id. `wt` holds this
    /// batch's transposed weights. A node whose gradient past its ReLU is
    /// all zero sends nothing, and a row collects its parent's share of the
    /// child mean before its own `δ·W_selfᵀ`, as the tape's reverse walk
    /// adds them.
    fn backward(
        &self,
        sample: &TreeSample,
        t: &Trace,
        wt: &[Matrix],
        w: &mut GradRows,
        grads: &mut [Matrix],
    ) {
        let hidden = self.hidden();
        let n = sample.node_feats.len();
        let row = |v: usize| v * hidden..(v + 1) * hidden;
        let Some(g_cat) = self.head.backward(&self.store, grads, wt, &t.head, t.g_out) else {
            return;
        };
        w.g.clear();
        w.g.resize(n * hidden, 0.0);
        w.g[row(sample.root)].copy_from_slice(&g_cat[..hidden]);
        w.gz.resize(hidden, 0.0);
        w.tmp.resize(hidden, 0.0);

        for (r, conv) in self.convs.iter().enumerate().rev() {
            let (below, round) = (&t.rounds[r], &t.rounds[r + 1]);
            w.g_below.clear();
            w.g_below.resize(n * hidden, 0.0);
            for &v in t.order.iter().rev() {
                let mask = round.mask.get(row(v)).unwrap_or_default();
                if !relu_dropout_backward(&w.g[row(v)], &round.act[row(v)], mask, &mut w.gz) {
                    continue;
                }
                add_acc(grads[conv.bias].data_mut(), &w.gz);
                let kids = &sample.children[v];
                if !kids.is_empty() {
                    let grad = grads[conv.w_child].data_mut();
                    outer_acc(&round.agg[row(v)], &w.gz, grad);
                    w.tmp.fill(0.0);
                    row_matmul_acc(&w.gz, wt[conv.w_child].data(), &mut w.tmp);
                    let k = kids.len() as f64;
                    for &c in kids {
                        for (o, &g) in w.g_below[row(c)].iter_mut().zip(&w.tmp) {
                            *o += g / k;
                        }
                    }
                }
                w.tmp.fill(0.0);
                row_matmul_acc(&w.gz, wt[conv.w_self].data(), &mut w.tmp);
                add_acc(&mut w.g_below[row(v)], &w.tmp);
                let grad = grads[conv.w_self].data_mut();
                outer_acc(&below.h[row(v)], &w.gz, grad);
            }
            std::mem::swap(&mut w.g, &mut w.g_below);
        }

        // The embedding's input takes no gradient.
        let embedded = &t.rounds[0];
        for &v in t.order.iter().rev() {
            if relu_dropout_backward(&w.g[row(v)], &embedded.act[row(v)], &[], &mut w.gz) {
                let feats = &sample.node_feats[v];
                self.embed.backward(grads, wt, feats, &w.gz, &mut []);
            }
        }
    }

    /// One mini-batch: zeroes `w`'s gradients, runs every sample's
    /// forward with dropout `p` in batch order (so dropout draws as the
    /// tape drew it), then every backward from the last sample to the
    /// first (so every gradient sums in the tape's order), and returns the
    /// batch's mean squared error.
    fn batch_gradients(
        &self,
        batch: &[&TreeSample],
        p: f64,
        rng: &mut StdRng,
        w: &mut Workspace,
    ) -> f64 {
        for g in &mut w.grads {
            g.data_mut().fill(0.0);
        }
        let wt = self.store.transposed_values();
        if w.traces.len() < batch.len() {
            w.traces.resize_with(batch.len(), Trace::default);
        }
        let scale = 1.0 / batch.len() as f64;
        let mut sum: Option<f64> = None;
        for (sample, t) in batch.iter().zip(&mut w.traces) {
            let d = self.forward(sample, p, Some(&mut *rng), t) - sample.target;
            t.g_out = 2.0 * d * scale;
            sum = Some(sum.map_or(d * d, |acc| acc + d * d));
        }
        for (sample, t) in batch.iter().zip(&w.traces).rev() {
            self.backward(sample, t, &wt, &mut w.rows, &mut w.grads);
        }
        sum.unwrap_or(0.0) * scale
    }

    /// Trains on `samples` (owned or borrowed) with mini-batch Adam under
    /// `config`'s training settings (`dropout`, `lr`, `epochs`,
    /// `batch_size`, `seed`; the shape settings were spent by
    /// [`PlanGcn::new`]); returns the mean training loss of each epoch.
    /// Each batch runs the forward over flat row buffers and a hand-written
    /// backward (see the module docs); the weights it leaves are the
    /// reference tape's, to the bit.
    ///
    /// # Panics
    /// Panics if any sample fails [`TreeSample::validate`] or has feature
    /// widths other than the model's, or if dropout is not below 1.
    #[expect(
        clippy::panic,
        reason = "training-time precondition: the global model is fit offline on built samples, \
                  never inside a verb"
    )]
    pub fn fit<S: Borrow<TreeSample>>(&mut self, samples: &[S], config: &GcnConfig) -> Vec<f64> {
        let (node_dim, sys_dim) = (self.embed.shape(&self.store).0, self.sys_feat_dim());
        for (i, s) in samples.iter().map(Borrow::borrow).enumerate() {
            if let Err(e) = s.validate() {
                panic!("invalid sample {i}: {e}");
            }
            assert!(
                s.node_feats.iter().all(|f| f.len() == node_dim),
                "sample {i}: node feature width mismatch"
            );
            assert_eq!(
                s.sys_feats.len(),
                sys_dim,
                "sample {i}: system feature width mismatch"
            );
        }
        assert!(config.dropout < 1.0, "dropout probability must be < 1");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let mut adam = Adam::new(&self.store);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let mut work = Workspace::new(&self.store);
        let mut batch = Vec::with_capacity(config.batch_size);

        for epoch in 0..config.epochs {
            // Step-decay schedule: full LR for the first 60% of epochs,
            // 0.3x until 85%, then 0.1x to settle.
            let progress = epoch as f64 / config.epochs.max(1) as f64;
            let factor = if progress < 0.6 {
                1.0
            } else if progress < 0.85 {
                0.3
            } else {
                0.1
            };
            let lr = config.lr * factor;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size.max(1)) {
                batch.clear();
                batch.extend(chunk.iter().map(|&i| samples[i].borrow()));
                epoch_loss += self.batch_gradients(&batch, config.dropout, &mut rng, &mut work);
                batches += 1;
                adam.step(&mut self.store, &work.grads, lr);
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f64);
        }
        epoch_losses
    }

    /// Checks a deserialized model before it answers anything: every
    /// parameter id in range, every matrix `rows × cols` long with finite
    /// weights, and the matrices chaining — the embedding's output width
    /// is `hidden`, every round is `hidden × hidden` with a `1 × hidden`
    /// bias, and the head reads at least `hidden` inputs (the rest are the
    /// system width) and ends in one output. A model that passes predicts
    /// without indexing out of range, and sizes no buffer beyond what its
    /// weights already hold.
    pub fn validate(&self) -> Result<(), String> {
        self.store.validate()?;
        let (_, hidden) = self.embed.validate(&self.store)?;
        for conv in &self.convs {
            self.store.expect_shape(conv.w_self, hidden, hidden)?;
            self.store.expect_shape(conv.w_child, hidden, hidden)?;
            self.store.expect_shape(conv.bias, 1, hidden)?;
        }
        let head_in = self.head.validate(&self.store, 1)?;
        if head_in < hidden {
            return Err(format!(
                "the head reads {head_in} inputs, fewer than the {hidden}-wide root row"
            ));
        }
        Ok(())
    }

    /// Total scalar parameter count.
    pub fn n_parameters(&self) -> usize {
        self.store.n_scalars()
    }

    /// Approximate in-memory size in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.store.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::add_grads;
    use rand::{Rng, RngCore};

    /// Builds a random chain/binary tree whose target is a simple function
    /// of the node features: sum over nodes of feat[0] (learnable from the
    /// root after message passing).
    fn synth_sample(rng: &mut StdRng, dim: usize) -> TreeSample {
        let n = rng.gen_range(2..6);
        let mut node_feats = Vec::with_capacity(n);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            let mut f = vec![0.0; dim];
            f[0] = rng.gen_range(0.0..1.0);
            if dim > 1 {
                f[1] = rng.gen_range(0.0..1.0);
            }
            node_feats.push(f);
            if i > 0 {
                let parent = rng.gen_range(0..i);
                children[parent].push(i);
            }
        }
        let target: f64 = node_feats.iter().map(|f| f[0]).sum();
        TreeSample {
            node_feats,
            children,
            root: 0,
            sys_feats: vec![n as f64],
            target,
        }
    }

    fn quick_config() -> GcnConfig {
        GcnConfig {
            hidden: 16,
            gcn_layers: 2,
            dropout: 0.0,
            lr: 5e-3,
            epochs: 60,
            batch_size: 16,
            seed: 9,
        }
    }

    /// An untrained [`quick_config`] model over `dim`-wide node features
    /// and one system feature, as [`synth_sample`] makes them.
    fn quick_model(dim: usize) -> PlanGcn {
        PlanGcn::new(&quick_config(), dim, 1)
    }

    #[test]
    fn topo_order_children_first() {
        let s = TreeSample {
            node_feats: vec![vec![0.0]; 4],
            children: vec![vec![1, 2], vec![3], vec![], vec![]],
            root: 0,
            sys_feats: vec![],
            target: 0.0,
        };
        let order = s.topo_order();
        assert_eq!(order.len(), 4);
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(1) < pos(0));
        assert!(pos(2) < pos(0));
        assert!(pos(3) < pos(1));
    }

    #[test]
    fn validate_catches_structural_errors() {
        let ok = TreeSample {
            node_feats: vec![vec![0.0]; 2],
            children: vec![vec![1], vec![]],
            root: 0,
            sys_feats: vec![],
            target: 0.0,
        };
        assert!(ok.validate().is_ok());

        let out_of_range = TreeSample {
            children: vec![vec![5], vec![]],
            ..ok.clone()
        };
        assert!(out_of_range.validate().is_err());

        let unreachable = TreeSample {
            children: vec![vec![], vec![]],
            ..ok.clone()
        };
        assert!(unreachable.validate().is_err());

        let cyclic = TreeSample {
            node_feats: vec![vec![0.0]; 2],
            children: vec![vec![1], vec![0]],
            root: 0,
            sys_feats: vec![],
            target: 0.0,
        };
        assert!(cyclic.validate().is_err());

        let bad_root = TreeSample { root: 9, ..ok };
        assert!(bad_root.validate().is_err());
    }

    #[test]
    fn learns_sum_of_node_features() {
        let mut rng = StdRng::seed_from_u64(11);
        let dim = 3;
        let samples: Vec<TreeSample> = (0..120).map(|_| synth_sample(&mut rng, dim)).collect();
        let mut model = quick_model(dim);
        let losses = model.fit(&samples, &quick_config());
        let (first, last) = (losses[0], *losses.last().unwrap());
        assert!(
            last < first * 0.2,
            "training did not converge: first={first} last={last}"
        );
        // Held-out check: predictions correlate with targets.
        let test: Vec<TreeSample> = (0..30).map(|_| synth_sample(&mut rng, dim)).collect();
        let mse: f64 = test
            .iter()
            .map(|s| (model.predict(s) - s.target).powi(2))
            .sum::<f64>()
            / test.len() as f64;
        let mean_t: f64 = test.iter().map(|s| s.target).sum::<f64>() / test.len() as f64;
        let var_t: f64 = test
            .iter()
            .map(|s| (s.target - mean_t).powi(2))
            .sum::<f64>()
            / test.len() as f64;
        assert!(mse < 0.5 * var_t, "mse={mse} var={var_t}");
    }

    #[test]
    fn prediction_deterministic_in_eval_mode() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = synth_sample(&mut rng, 2);
        let model = quick_model(2);
        assert_eq!(model.predict(&s), model.predict(&s));
    }

    #[test]
    fn deeper_trees_still_forward() {
        // A 20-node chain: deeper than gcn_layers; must not panic and must
        // produce a finite output.
        let n = 20;
        let node_feats = vec![vec![0.5, 0.5]; n];
        let children: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let s = TreeSample {
            node_feats,
            children,
            root: 0,
            sys_feats: vec![n as f64],
            target: 1.0,
        };
        let model = quick_model(2);
        assert!(model.predict(&s).is_finite());
    }

    /// The tape's eval-mode answer — the oracle the tape-free
    /// [`PlanGcn::predict`] is held to, bit for bit.
    fn tape_predict(model: &PlanGcn, sample: &TreeSample) -> f64 {
        let mut rng = StdRng::seed_from_u64(0); // unused in eval mode
        let mut g = Graph::new(&model.store);
        let out = model.tape_forward(&mut g, sample, 0.0, false, &mut rng);
        g.value(out).get(0, 0)
    }

    /// A feature vector mixing exact zeros, negatives and positives.
    fn mixed_feats(rng: &mut StdRng, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    }

    /// A valid random tree of `n` nodes: a chain when `chain`, otherwise
    /// every node hangs under an earlier one that still has fewer than five
    /// children; ids are then shuffled so the root is not node 0 and child
    /// ids are not ascending.
    fn random_tree(
        rng: &mut StdRng,
        n: usize,
        chain: bool,
        node_dim: usize,
        sys_dim: usize,
    ) -> TreeSample {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 1..n {
            let parent = if chain {
                i - 1
            } else {
                let open: Vec<usize> = (0..i).filter(|&p| children[ids[p]].len() < 5).collect();
                open[rng.gen_range(0..open.len())]
            };
            children[ids[parent]].push(ids[i]);
        }
        TreeSample {
            node_feats: (0..n).map(|_| mixed_feats(rng, node_dim)).collect(),
            children,
            root: ids[0],
            sys_feats: mixed_feats(rng, sys_dim),
            target: rng.gen_range(0.0..3.0),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn prop_tape_free_predict_is_bit_identical_to_the_tape(
            seed in 0u64..u64::MAX,
            (hidden_pick, gcn_layers) in (0usize..3, 0usize..5),
            (node_dim, sys_dim) in (1usize..7, 0usize..9),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = GcnConfig {
                hidden: [1, 16, 48][hidden_pick],
                gcn_layers,
                epochs: 2,
                batch_size: 4,
                lr: 1e-2,
                seed,
                ..GcnConfig::default()
            };
            let mut model = PlanGcn::new(&config, node_dim, sys_dim);
            // A few Adam steps so that no bias is still at its zero init.
            let train: Vec<TreeSample> = (0..8)
                .map(|_| {
                    let n = rng.gen_range(1..7);
                    random_tree(&mut rng, n, false, node_dim, sys_dim)
                })
                .collect();
            model.fit(&train, &config);

            for case in 0..6 {
                // Single nodes, chains deeper than `gcn_layers`, bushy trees.
                let (n, chain) = match case {
                    0 => (1, false),
                    1 => (rng.gen_range(gcn_layers + 2..41), true),
                    _ => (rng.gen_range(1..41), false),
                };
                let sample = random_tree(&mut rng, n, chain, node_dim, sys_dim);
                proptest::prop_assert!(sample.validate().is_ok());
                let (got, want) = (model.predict(&sample), tape_predict(&model, &sample));
                proptest::prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "n={n} chain={chain}: tape-free {got:e} != tape {want:e}"
                );
            }
        }
    }

    /// The reference tape's gradient of one batch's mean squared error
    /// under dropout `p`, one per parameter added onto zeros as
    /// [`PlanGcn::batch_gradients`] leaves them in its workspace, and the
    /// batch loss.
    fn tape_batch_gradients(
        model: &PlanGcn,
        batch: &[&TreeSample],
        p: f64,
        rng: &mut StdRng,
    ) -> (Vec<Matrix>, f64) {
        let mut grads = model.store.zeros_like();
        let mut g = Graph::new(&model.store);
        let terms: Vec<Var> = batch
            .iter()
            .map(|s| {
                let out = model.tape_forward(&mut g, s, p, true, rng);
                g.squared_error(out, s.target)
            })
            .collect();
        let loss = g.mean_scalars(&terms);
        let value = g.value(loss).get(0, 0);
        add_grads(&mut grads, g.backward(loss));
        (grads, value)
    }

    /// Every gradient, as bits, tensor by tensor.
    fn grad_bits(grads: &[Matrix]) -> Vec<Vec<u64>> {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect();
        grads.iter().map(bits).collect()
    }

    /// A root over `kids` leaves, the root not node 0.
    fn fan_out(rng: &mut StdRng, kids: usize, node_dim: usize, sys_dim: usize) -> TreeSample {
        let mut children = vec![Vec::new(); kids + 1];
        children[kids] = (0..kids).collect();
        TreeSample {
            node_feats: (0..=kids).map(|_| mixed_feats(rng, node_dim)).collect(),
            children,
            root: kids,
            sys_feats: mixed_feats(rng, sys_dim),
            target: rng.gen_range(0.0..3.0),
        }
    }

    /// Runs one batch through the tape and through the trainer, dropout
    /// `p`, from the same RNG state; fails unless every gradient, the loss
    /// and the number of dropout draws agree to the bit.
    fn assert_trainer_matches_tape(
        model: &PlanGcn,
        batch: &[&TreeSample],
        p: f64,
        seed: u64,
        work: &mut Workspace,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (mut tape_rng, mut rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let (want, want_loss) = tape_batch_gradients(model, batch, p, &mut tape_rng);
        let want = grad_bits(&want);
        let got_loss = model.batch_gradients(batch, p, &mut rng, work);
        let got = grad_bits(&work.grads);
        for (pid, (g, w)) in got.iter().zip(&want).enumerate() {
            proptest::prop_assert!(g == w, "parameter {pid}: trainer and tape disagree");
        }
        proptest::prop_assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        let draws_agree = rng.next_u64() == tape_rng.next_u64();
        proptest::prop_assert!(draws_agree, "the two drew dropout masks differently");
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The hand-written backward is the tape's, to the bit: one batch's
        /// gradients over single nodes, chains deeper than the rounds,
        /// fan-outs of 3 to 6 and plan-sized trees, at several widths and
        /// depths, with and without dropout, in batches of 1, odd sizes
        /// and 32, twice on one workspace so a batch of small trees
        /// follows a batch of large ones.
        #[test]
        fn prop_trainer_gradients_are_bit_identical_to_the_tape(
            seed in 0u64..u64::MAX,
            (hidden_pick, gcn_layers, dropout) in (0usize..4, 0usize..5, proptest::bool::ANY),
            (node_dim, sys_dim) in (1usize..7, 0usize..9),
            batch_pick in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = GcnConfig {
                hidden: [1, 5, 16, 48][hidden_pick],
                gcn_layers,
                dropout: if dropout { 0.2 } else { 0.0 },
                epochs: 1,
                batch_size: 4,
                lr: 1e-2,
                seed,
            };
            let mut model = PlanGcn::new(&config, node_dim, sys_dim);
            // A few Adam steps so that no bias is still at its zero init.
            let train: Vec<TreeSample> = (0..8)
                .map(|_| {
                    let n = rng.gen_range(1..7);
                    random_tree(&mut rng, n, false, node_dim, sys_dim)
                })
                .collect();
            model.fit(&train, &config);

            let mut work = Workspace::new(&model.store);
            for max_nodes in [41, 4] {
                let size = [1, 3, 7, 32][batch_pick];
                let samples: Vec<TreeSample> = (0..size)
                    .map(|i| match i % 4 {
                        0 => random_tree(&mut rng, 1, false, node_dim, sys_dim),
                        1 => {
                            let n = rng.gen_range(gcn_layers + 2..max_nodes.max(gcn_layers + 3));
                            random_tree(&mut rng, n, true, node_dim, sys_dim)
                        }
                        2 => {
                            let kids = rng.gen_range(3..7);
                            fan_out(&mut rng, kids, node_dim, sys_dim)
                        }
                        _ => {
                            let n = rng.gen_range(1..max_nodes);
                            random_tree(&mut rng, n, false, node_dim, sys_dim)
                        }
                    })
                    .collect();
                let batch: Vec<&TreeSample> = samples.iter().collect();
                let (p, seed) = (config.dropout, rng.next_u64());
                assert_trainer_matches_tape(&model, &batch, p, seed, &mut work)?;
            }
        }
    }

    /// A sample whose ReLUs all stay shut (every bias −1, every feature
    /// zero) sends its gradient only to the head's output bias, in a batch
    /// of its own and beside live samples alike, as the tape does.
    #[test]
    fn a_sample_whose_relus_kill_every_gradient_moves_only_the_output_bias() {
        let (node_dim, sys_dim) = (3, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let config = GcnConfig {
            hidden: 8,
            dropout: 0.2,
            ..GcnConfig::default()
        };
        let mut model = PlanGcn::new(&config, node_dim, sys_dim);
        for pid in 0..model.store.n_tensors() {
            if model.store.value(pid).rows() == 1 {
                model.store.value_mut(pid).data_mut().fill(-1.0);
            }
        }
        let mut dead = random_tree(&mut rng, 9, false, node_dim, sys_dim);
        dead.node_feats.iter_mut().for_each(|f| f.fill(0.0));
        dead.sys_feats.fill(0.0);
        let mut work = Workspace::new(&model.store);
        assert_trainer_matches_tape(&model, &[&dead], config.dropout, 1, &mut work).unwrap();
        let grads = grad_bits(&work.grads);
        let (output_bias, rest) = grads.split_last().unwrap();
        assert!(rest.iter().flatten().all(|&g| g == 0), "a shut ReLU leaked");
        assert_ne!(output_bias, &[0]);

        let live: Vec<TreeSample> = (0..4)
            .map(|_| {
                let mut s = random_tree(&mut rng, 7, false, node_dim, sys_dim);
                s.node_feats.iter_mut().flatten().for_each(|x| *x *= 4.0);
                s
            })
            .collect();
        let batch = [&live[0], &dead, &live[1], &live[2], &live[3]];
        assert_trainer_matches_tape(&model, &batch, config.dropout, 2, &mut work).unwrap();
        let grads = grad_bits(&work.grads);
        assert!(
            grads[0].iter().any(|&g| g != 0),
            "the live samples moved nothing"
        );
    }

    /// Samples [`TreeSample::validate`] rejects (and on which the tape
    /// would index out of bounds) still get a finite answer instead of a
    /// panic in a prediction path.
    #[test]
    fn malformed_samples_predict_finite_without_panicking() {
        let mut rng = StdRng::seed_from_u64(21);
        let train: Vec<TreeSample> = (0..8).map(|_| synth_sample(&mut rng, 2)).collect();
        let mut model = quick_model(2);
        model.fit(
            &train,
            &GcnConfig {
                epochs: 2,
                ..quick_config()
            },
        );
        let ok = TreeSample {
            node_feats: vec![vec![0.5, -1.0], vec![0.0, 2.0], vec![1.5, 0.25]],
            children: vec![vec![1, 2], vec![], vec![]],
            root: 0,
            sys_feats: vec![3.0],
            target: 0.0,
        };
        let with_children = |children: Vec<Vec<usize>>| TreeSample {
            children,
            ..ok.clone()
        };
        let malformed = [
            (
                "out-of-range child",
                with_children(vec![vec![1, 7], vec![], vec![]]),
            ),
            (
                "out-of-range root",
                TreeSample {
                    root: 3,
                    ..ok.clone()
                },
            ),
            (
                "unreachable nodes",
                with_children(vec![vec![1], vec![], vec![]]),
            ),
            ("cycle", with_children(vec![vec![1], vec![2], vec![0]])),
            ("short children list", with_children(vec![vec![1, 2]])),
            (
                "empty tree",
                TreeSample {
                    node_feats: vec![],
                    children: vec![],
                    ..ok.clone()
                },
            ),
        ];
        for (what, sample) in &malformed {
            assert!(sample.validate().is_err(), "{what} should not validate");
            let got = model.predict(sample);
            assert!(got.is_finite(), "{what}: {got}");
        }
        // An out-of-range child is left out of its parent's mean and a row
        // nothing reads changes nothing: both answer as the valid two-node
        // tree 0 → 1 does.
        let pruned = TreeSample {
            node_feats: ok.node_feats[..2].to_vec(),
            ..with_children(vec![vec![1], vec![]])
        };
        let want = tape_predict(&model, &pruned).to_bits();
        for (what, sample) in [&malformed[0], &malformed[2]] {
            assert_eq!(model.predict(sample).to_bits(), want, "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid sample")]
    fn fit_rejects_invalid_samples() {
        let bad = TreeSample {
            node_feats: vec![vec![0.0, 0.0]; 2],
            children: vec![vec![9], vec![]],
            root: 0,
            sys_feats: vec![0.0],
            target: 0.0,
        };
        let mut model = quick_model(2);
        model.fit(&[bad], &quick_config());
    }

    #[test]
    fn parameter_count_scales_with_hidden() {
        let of_width = |hidden| {
            let config = GcnConfig {
                hidden,
                ..GcnConfig::default()
            };
            PlanGcn::new(&config, 4, 2)
        };
        let (small, large) = (of_width(8), of_width(32));
        assert!(large.n_parameters() > 5 * small.n_parameters());
        assert!(small.approx_size_bytes() > 0);
    }

    /// Replaces parameter `pid`'s value with zeros of shape `rows × cols`:
    /// a restored store whose matrices are each well formed.
    fn reshape(model: &mut PlanGcn, pid: usize, rows: usize, cols: usize) {
        *model.store.value_mut(pid) = Matrix::zeros(rows, cols);
    }

    /// The widths are read from the weights, so a restored model's only
    /// structural claim is that its matrices chain: the embedding's output
    /// width is every round's `hidden × hidden`, and the head reads the
    /// root's `hidden`-wide row before the system features. A round fed
    /// by another parameter (a lying id) or by a matrix of the wrong shape,
    /// or a head narrower than the root row, is refused.
    #[test]
    fn validate_refuses_weights_that_do_not_chain() {
        let config = GcnConfig {
            hidden: 8,
            gcn_layers: 2,
            ..GcnConfig::default()
        };
        let (node_dim, sys_dim) = (3, 2);
        let good = PlanGcn::new(&config, node_dim, sys_dim);
        assert_eq!(good.validate(), Ok(()));
        let widths = (
            good.embed.shape(&good.store).0,
            good.hidden(),
            good.sys_feat_dim(),
        );
        assert_eq!(widths, (node_dim, 8, sys_dim));
        let (round_w, head_w) = (good.convs[0].w_self, good.store.n_tensors() - 4);

        let mut lying_id = good.clone();
        lying_id.convs[1].w_child = 0; // the embedding's 3×8 weight
        let mut wide_round = good.clone();
        reshape(&mut wide_round, round_w, 8, 9);
        let mut narrow_head = good.clone();
        reshape(&mut narrow_head, head_w, 5, 8);
        for (what, bad) in [
            ("a round reading the embedding's weight", lying_id),
            ("an 8×9 round", wide_round),
            ("a head narrower than the root row", narrow_head),
        ] {
            assert!(bad.validate().is_err(), "{what} was accepted");
        }

        // A head 13 wide is an 8-wide root row and 5 system features.
        let mut wider_sys = good.clone();
        reshape(&mut wider_sys, head_w, 13, 8);
        assert_eq!(wider_sys.validate(), Ok(()));
        assert_eq!(wider_sys.sys_feat_dim(), 5);
    }
}
