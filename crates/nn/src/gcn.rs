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

use crate::adam::Adam;
use crate::graph::{Graph, Var};
use crate::layers::{Linear, Mlp, ParamStore};
use crate::tensor::{relu_assign, row_matmul_acc, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A plan tree prepared for the GCN: per-node feature vectors, child lists,
/// the root index, system features, and the regression target.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// truncated, which [`TreeSample::validate`] uses for detection.
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.node_feats.len();
        let mut order = Vec::with_capacity(n);
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
            for &c in &self.children[v] {
                if state[c] == 0 {
                    stack.push((c, false));
                }
            }
        }
        order
    }
}

/// GCN architecture and training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Width of each node feature vector.
    pub node_feat_dim: usize,
    /// Width of the system feature vector.
    pub sys_feat_dim: usize,
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

impl GcnConfig {
    /// CPU-scaled defaults for the given feature widths.
    pub fn new(node_feat_dim: usize, sys_feat_dim: usize) -> Self {
        Self {
            node_feat_dim,
            sys_feat_dim,
            hidden: 64,
            gcn_layers: 3,
            dropout: 0.2,
            lr: 1e-3,
            epochs: 30,
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

/// The trainable plan-GCN model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanGcn {
    config: GcnConfig,
    store: ParamStore,
    embed: Linear,
    convs: Vec<ConvLayer>,
    head: Mlp,
}

/// Loss trajectory returned by [`PlanGcn::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
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
    /// Initializes a model with random weights.
    pub fn new(config: GcnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let embed = Linear::new(&mut store, config.node_feat_dim, config.hidden, &mut rng);
        let convs = (0..config.gcn_layers)
            .map(|_| ConvLayer {
                w_self: store.add(Matrix::he_init(config.hidden, config.hidden, &mut rng)),
                w_child: store.add(Matrix::he_init(config.hidden, config.hidden, &mut rng)),
                bias: store.add(Matrix::zeros(1, config.hidden)),
            })
            .collect();
        let head = Mlp::new(
            &mut store,
            &[config.hidden + config.sys_feat_dim, config.hidden, 1],
            config.dropout,
            &mut rng,
        );
        Self {
            config,
            store,
            embed,
            convs,
            head,
        }
    }

    /// Forward pass for one sample on an existing tape. Returns the `1×1`
    /// prediction var. This is the training path ([`PlanGcn::fit`], which
    /// validates its samples first) and, in eval mode, the test oracle for
    /// the tape-free [`PlanGcn::predict`].
    fn forward(&self, g: &mut Graph, sample: &TreeSample, training: bool, rng: &mut StdRng) -> Var {
        let order = sample.topo_order();
        let n = sample.node_feats.len();

        // 1. Embed every node.
        let mut h: Vec<Option<Var>> = vec![None; n];
        for &v in &order {
            let x = g.input(Matrix::row_vector(&sample.node_feats[v]));
            let e = self.embed.forward(g, x);
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
                next[v] = Some(g.dropout(activated, self.config.dropout, training, rng));
            }
            h = next;
        }

        // 3. Readout: root ⊕ system features → head (a zero vector stands
        // in for a root embedding that is not there).
        let root_h = h
            .get(sample.root)
            .copied()
            .flatten()
            .unwrap_or_else(|| g.input(Matrix::row_vector(&vec![0.0; self.config.hidden])));
        let sys = g.input(Matrix::row_vector(&sample.sys_feats));
        let cat = g.concat_cols(root_h, sys);
        self.head.forward(g, cat, training, rng)
    }

    /// Predicts the target for one sample (eval mode, no dropout).
    ///
    /// Tape-free: the same arithmetic as `PlanGcn::forward` with
    /// `training == false`, in the same order — so the answer is
    /// bit-identical to the tape's — but over two flat `n × hidden` buffers
    /// and the weights as they sit in the [`ParamStore`]: no [`Graph`], no
    /// parameter clones, no gradient buffers. Never panics on a sample
    /// [`TreeSample::validate`] would reject: every in-range node is
    /// embedded (rows no path from the root reads are simply never used, so
    /// unreachable nodes and cycles need no special case), an out-of-range
    /// child id is left out of its parent's mean, and an out-of-range root
    /// reads out from a zero embedding.
    pub fn predict(&self, sample: &TreeSample) -> f64 {
        let hidden = self.config.hidden;
        let n = sample.node_feats.len();
        let row = |v: usize| v * hidden..(v + 1) * hidden;

        // 1. Embed every node; row v of `h` is node v's embedding.
        let mut h = vec![0.0; n * hidden];
        for (v, feats) in sample.node_feats.iter().enumerate() {
            let e = &mut h[row(v)];
            self.embed.eval_into(&self.store, feats, e);
            relu_assign(e);
        }

        // 2. Message passing: `next` is written from the previous round's
        // `h` only, then the two swap.
        let mut next = vec![0.0; n * hidden];
        let mut kids: Vec<usize> = Vec::new();
        let mut agg = vec![0.0; hidden];
        let mut child_term = vec![0.0; hidden];
        for conv in &self.convs {
            let w_self = self.store.value(conv.w_self).data();
            let w_child = self.store.value(conv.w_child).data();
            let bias = self.store.value(conv.bias).data();
            for v in 0..n {
                let out = &mut next[row(v)];
                out.fill(0.0);
                row_matmul_acc(&h[row(v)], w_self, out);
                kids.clear();
                let listed = sample.children.get(v).into_iter().flatten();
                kids.extend(listed.filter(|&&c| c < n));
                if !kids.is_empty() {
                    // Mean as the tape takes it: per column, summed in
                    // child order, then divided by the child count.
                    let k = kids.len() as f64;
                    for (j, a) in agg.iter_mut().enumerate() {
                        *a = kids.iter().map(|&c| h[c * hidden + j]).sum::<f64>() / k;
                    }
                    child_term.fill(0.0);
                    row_matmul_acc(&agg, w_child, &mut child_term);
                    for (o, c) in out.iter_mut().zip(&child_term) {
                        *o += c;
                    }
                }
                for (o, b) in out.iter_mut().zip(bias) {
                    *o = (*o + b).max(0.0);
                }
            }
            std::mem::swap(&mut h, &mut next);
        }

        // 3. Readout: root ⊕ system features → head.
        let mut cat = Vec::with_capacity(hidden + sample.sys_feats.len());
        if sample.root < n {
            cat.extend_from_slice(&h[row(sample.root)]);
        } else {
            cat.resize(hidden, 0.0);
        }
        cat.extend_from_slice(&sample.sys_feats);
        let out = self.head.eval(&self.store, cat);
        out.first().copied().unwrap_or(0.0)
    }

    /// Trains on `samples` (owned or borrowed) with mini-batch Adam;
    /// returns per-epoch losses.
    ///
    /// # Panics
    /// Panics if any sample fails [`TreeSample::validate`] or has mismatched
    /// feature widths.
    #[expect(
        clippy::panic,
        reason = "training-time precondition: the global model is fit offline on built samples, \
                  never inside a verb"
    )]
    pub fn fit<S: Borrow<TreeSample>>(&mut self, samples: &[S]) -> TrainReport {
        for (i, s) in samples.iter().map(Borrow::borrow).enumerate() {
            if let Err(e) = s.validate() {
                panic!("invalid sample {i}: {e}");
            }
            assert!(
                s.node_feats
                    .iter()
                    .all(|f| f.len() == self.config.node_feat_dim),
                "sample {i}: node feature width mismatch"
            );
            assert_eq!(
                s.sys_feats.len(),
                self.config.sys_feat_dim,
                "sample {i}: system feature width mismatch"
            );
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);
        let mut adam = Adam::new(&self.store, self.config.lr);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);

        for epoch in 0..self.config.epochs {
            // Step-decay schedule: full LR for the first 60% of epochs,
            // 0.3x until 85%, then 0.1x to settle.
            let progress = epoch as f64 / self.config.epochs.max(1) as f64;
            let factor = if progress < 0.6 {
                1.0
            } else if progress < 0.85 {
                0.3
            } else {
                0.1
            };
            adam.set_lr(self.config.lr * factor);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                let mut g = Graph::new(&self.store);
                let mut terms = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let sample = samples[i].borrow();
                    let out = self.forward(&mut g, sample, true, &mut rng);
                    terms.push(g.squared_error(out, sample.target));
                }
                let loss = g.mean_scalars(&terms);
                epoch_loss += g.value(loss).get(0, 0);
                batches += 1;
                let grads = g.backward(loss);
                self.store.add_grads(grads);
                adam.step(&mut self.store);
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f64);
        }
        TrainReport { epoch_losses }
    }

    /// Architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
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
    use rand::Rng;

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

    fn quick_config(dim: usize) -> GcnConfig {
        GcnConfig {
            hidden: 16,
            gcn_layers: 2,
            dropout: 0.0,
            lr: 5e-3,
            epochs: 60,
            batch_size: 16,
            seed: 9,
            ..GcnConfig::new(dim, 1)
        }
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
        let mut model = PlanGcn::new(quick_config(dim));
        let report = model.fit(&samples);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
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
        let model = PlanGcn::new(quick_config(2));
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
        let model = PlanGcn::new(quick_config(2));
        assert!(model.predict(&s).is_finite());
    }

    /// The tape's eval-mode answer — the oracle the tape-free
    /// [`PlanGcn::predict`] is held to, bit for bit.
    fn tape_predict(model: &PlanGcn, sample: &TreeSample) -> f64 {
        let mut rng = StdRng::seed_from_u64(0); // unused in eval mode
        let mut g = Graph::new(&model.store);
        let out = model.forward(&mut g, sample, false, &mut rng);
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
            let mut model = PlanGcn::new(GcnConfig {
                hidden: [1, 16, 48][hidden_pick],
                gcn_layers,
                epochs: 2,
                batch_size: 4,
                lr: 1e-2,
                seed,
                ..GcnConfig::new(node_dim, sys_dim)
            });
            // A few Adam steps so that no bias is still at its zero init.
            let train: Vec<TreeSample> = (0..8)
                .map(|_| {
                    let n = rng.gen_range(1..7);
                    random_tree(&mut rng, n, false, node_dim, sys_dim)
                })
                .collect();
            model.fit(&train);

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

    /// Samples [`TreeSample::validate`] rejects (and on which the tape
    /// would index out of bounds) still get a finite answer instead of a
    /// panic in a prediction path.
    #[test]
    fn malformed_samples_predict_finite_without_panicking() {
        let mut rng = StdRng::seed_from_u64(21);
        let train: Vec<TreeSample> = (0..8).map(|_| synth_sample(&mut rng, 2)).collect();
        let mut model = PlanGcn::new(GcnConfig {
            epochs: 2,
            ..quick_config(2)
        });
        model.fit(&train);
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
        let mut model = PlanGcn::new(quick_config(2));
        model.fit(&[bad]);
    }

    #[test]
    fn parameter_count_scales_with_hidden() {
        let small = PlanGcn::new(GcnConfig {
            hidden: 8,
            ..GcnConfig::new(4, 2)
        });
        let large = PlanGcn::new(GcnConfig {
            hidden: 32,
            ..GcnConfig::new(4, 2)
        });
        assert!(large.n_parameters() > 5 * small.n_parameters());
        assert!(small.approx_size_bytes() > 0);
    }
}
