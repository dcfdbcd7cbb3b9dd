//! Second-order regression trees with histogram split finding.
//!
//! Trees are grown depth-first on per-sample gradients with the XGBoost gain
//! criterion
//!
//! ```text
//! gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)
//! ```
//!
//! and leaf weights `−G/(H+λ)`. Every loss this crate boosts has unit
//! hessians, so `H` is the row count. Split candidates are bin boundaries
//! produced by [`crate::dataset::Binner`]; the chosen split stores the raw
//! cut value so prediction needs only the original (unbinned) feature vector.
//!
//! The grower is the standard histogram scheme: one row-major pass per node
//! fills a flat `(Σg, count)` histogram over the tree's non-constant columns;
//! after a split only the smaller child is filled from rows and its sibling
//! is `parent − smaller`; candidates are scored from a `1/(k+λ)` table.

use crate::dataset::{BinnedDataset, Binner};
use serde::{Deserialize, Serialize};

/// The five parallel arrays of [`Tree::to_flat_parts`]:
/// `(feature, threshold, left, right, gain)`.
pub type FlatParts = (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>);

/// Tree-growing hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0; `max_depth = 6` as in the paper).
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum gain required to split.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            lambda: 1.0,
            min_child_weight: 1.0,
            min_samples_leaf: 1,
            min_gain: 1e-8,
        }
    }
}

/// Arena node: either a leaf weight or a split on `x[feature] <= threshold`.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: u32,
        /// Go left iff `x[feature] <= threshold`.
        threshold: f64,
        /// Gain realized by this split (for feature-importance accounting).
        gain: f64,
        left: u32,
        right: u32,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Fits a tree on the given per-row gradients (unit hessians) over the
    /// rows in `indices`. `columns` restricts split search to a feature
    /// subset (column subsampling); pass all columns for no subsampling.
    pub fn fit(
        binned: &BinnedDataset,
        binner: &Binner,
        grads: &[f64],
        indices: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(grads.len(), binned.n_rows());
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut idx = indices.to_vec();
        let mut grower = Grower::new(binned, binner, grads, idx.len(), columns, params);
        let g_sum: f64 = idx.iter().map(|&r| grads[r]).sum();
        let hist = (!grower.is_terminal(idx.len(), 0)).then(|| grower.histogram_of(&idx));
        grower.build(&mut idx, g_sum, 0, hist);
        Tree {
            nodes: grower.nodes,
        }
    }

    /// Creates a single-leaf tree with a constant output.
    pub fn constant(weight: f64) -> Self {
        Tree {
            nodes: vec![Node::Leaf { weight }],
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Adds each split's gain to `into[feature]` (gain-based feature
    /// importance, as reported by XGBoost's `total_gain`).
    ///
    /// # Panics
    /// Panics if a split references a feature outside `into`.
    pub fn accumulate_importance(&self, into: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                into[*feature as usize] += gain.max(0.0);
            }
        }
    }

    /// Bytes the arena's nodes occupy on the heap.
    pub(crate) fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
    }

    /// Exports the arena as five parallel arrays for the artefact store:
    /// `(feature, threshold, left, right, gain)`, node `i` of the arena at
    /// index `i` of each. A leaf is `feature = u32::MAX` with its weight in
    /// the threshold slot, zero children and zero gain. The inverse is
    /// [`Tree::from_flat_parts`]; a round trip is bit-exact.
    pub fn to_flat_parts(&self) -> FlatParts {
        let n = self.nodes.len();
        let mut feature = Vec::with_capacity(n);
        let mut threshold = Vec::with_capacity(n);
        let mut left = Vec::with_capacity(n);
        let mut right = Vec::with_capacity(n);
        let mut gain = Vec::with_capacity(n);
        for node in &self.nodes {
            match node {
                Node::Leaf { weight } => {
                    feature.push(u32::MAX);
                    threshold.push(*weight);
                    left.push(0);
                    right.push(0);
                    gain.push(0.0);
                }
                Node::Split {
                    feature: f,
                    threshold: t,
                    gain: g,
                    left: l,
                    right: r,
                } => {
                    feature.push(*f);
                    threshold.push(*t);
                    left.push(*l);
                    right.push(*r);
                    gain.push(*g);
                }
            }
        }
        (feature, threshold, left, right, gain)
    }

    /// Rebuilds a tree from [`Tree::to_flat_parts`] arrays. Returns `None`
    /// on malformed input — mismatched lengths, zero nodes, or a split
    /// child index that is out of bounds or not strictly greater than its
    /// parent (the arena is built depth-first, so children always follow
    /// their parent; enforcing that makes `predict`'s unguarded traversal
    /// provably terminating on restored trees).
    pub fn from_flat_parts(
        feature: &[u32],
        threshold: &[f64],
        left: &[u32],
        right: &[u32],
        gain: &[f64],
    ) -> Option<Self> {
        let n = feature.len();
        if n == 0 || threshold.len() != n || left.len() != n || right.len() != n || gain.len() != n
        {
            return None;
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            if feature[i] == u32::MAX {
                if left[i] != 0 || right[i] != 0 {
                    return None;
                }
                nodes.push(Node::Leaf {
                    weight: threshold[i],
                });
            } else {
                let (l, r) = (left[i] as usize, right[i] as usize);
                if l <= i || r <= i || l >= n || r >= n {
                    return None;
                }
                nodes.push(Node::Split {
                    feature: feature[i],
                    threshold: threshold[i],
                    gain: gain[i],
                    left: left[i],
                    right: right[i],
                });
            }
        }
        Some(Tree { nodes })
    }

    /// Predicts the leaf weight for a raw (unbinned) feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }
}

/// One histogram slot: gradient sum and row count of a (column, bin) pair.
/// With unit hessians the count is also the hessian sum.
#[derive(Clone, Copy, Default)]
struct Bin {
    g: f64,
    n: usize,
}

/// A non-constant candidate column and its slice of the flat histogram.
#[derive(Clone, Copy)]
struct ActiveCol {
    col: usize,
    first: usize,
    n_bins: usize,
}

/// The winning candidate of one node's scan. `g_left` / `n_left` are the
/// prefix sums at the winning bin, handed to the children so they never
/// re-sum their rows.
#[derive(Clone, Copy)]
struct Split {
    col: usize,
    bin: u8,
    gain: f64,
    g_left: f64,
    n_left: usize,
}

/// Per-tree growing state.
struct Grower<'a> {
    binned: &'a BinnedDataset,
    binner: &'a Binner,
    grads: &'a [f64],
    params: &'a TreeParams,
    /// The candidate columns with at least two bins, in `columns` order
    /// (scan order breaks gain ties).
    active: Vec<ActiveCol>,
    /// Histogram length: the active columns' bin counts summed.
    total_bins: usize,
    /// `inv[k] = 1/(k+λ)` for every row count a node of this tree can have.
    inv: Vec<f64>,
    /// Fewest rows a child may hold: `min_samples_leaf` and, hessians being
    /// 1, `min_child_weight` rounded up.
    min_child: usize,
    /// Histogram buffers not owned by a live node. A node at depth `d` has at
    /// most `d` pending right siblings above it plus its own and one fresh
    /// child buffer, and the last split level needs none, so at most
    /// `max_depth + 1` are ever allocated.
    free: Vec<Vec<Bin>>,
    /// Right-hand rows of the partition in flight, one slot per tree row.
    spill: Vec<usize>,
    nodes: Vec<Node>,
}

impl<'a> Grower<'a> {
    fn new(
        binned: &'a BinnedDataset,
        binner: &'a Binner,
        grads: &'a [f64],
        n_rows: usize,
        columns: &[usize],
        params: &'a TreeParams,
    ) -> Self {
        let mut active = Vec::with_capacity(columns.len());
        let mut total_bins = 0;
        for &col in columns {
            let n_bins = binner.n_bins(col);
            if n_bins >= 2 {
                active.push(ActiveCol {
                    col,
                    first: total_bins,
                    n_bins,
                });
                total_bins += n_bins;
            }
        }
        Grower {
            binned,
            binner,
            grads,
            params,
            active,
            total_bins,
            inv: (0..=n_rows)
                .map(|k| 1.0 / (k as f64 + params.lambda))
                .collect(),
            // `as` saturates: a non-positive weight floor constrains nothing.
            min_child: params
                .min_samples_leaf
                .max(params.min_child_weight.ceil() as usize),
            free: Vec::new(),
            spill: vec![0; n_rows],
            nodes: Vec::new(),
        }
    }

    /// Whether a node of `n` rows at `depth` is a leaf before any split
    /// search — such nodes never get a histogram.
    fn is_terminal(&self, n: usize, depth: usize) -> bool {
        depth >= self.params.max_depth
            || n < 2 * self.params.min_samples_leaf
            || n < 2
            || (n as f64) < 2.0 * self.params.min_child_weight
    }

    /// The histogram of `rows`, in a free buffer when there is one.
    fn histogram_of(&mut self, rows: &[usize]) -> Vec<Bin> {
        let mut hist = match self.free.pop() {
            Some(mut buf) => {
                buf.fill(Bin::default());
                buf
            }
            None => vec![Bin::default(); self.total_bins],
        };
        self.fill(&mut hist, rows);
        hist
    }

    /// Adds `rows` to `hist`: one pass, row-major over the active columns.
    fn fill(&self, hist: &mut [Bin], rows: &[usize]) {
        for &r in rows {
            let g = self.grads[r];
            let bins = self.binned.row(r);
            for a in &self.active {
                let slot = &mut hist[a.first + bins[a.col] as usize];
                slot.g += g;
                slot.n += 1;
            }
        }
    }

    /// Scans every bin boundary of every active column for the highest gain
    /// above `min_gain`; the first candidate in scan order wins a tie.
    fn best_split(&self, hist: &[Bin], g_sum: f64, n: usize) -> Option<Split> {
        let parent_score = g_sum * g_sum * self.inv[n];
        let mut best = None;
        let mut best_gain = self.params.min_gain;
        for a in &self.active {
            let mut gl = 0.0;
            let mut cl = 0usize;
            // Split after bin b (left = bins 0..=b); last bin can't split.
            for (b, slot) in hist[a.first..a.first + a.n_bins - 1].iter().enumerate() {
                gl += slot.g;
                cl += slot.n;
                let cr = n - cl;
                if cl < self.min_child || cr < self.min_child {
                    continue;
                }
                let gr = g_sum - gl;
                let gain = gl * gl * self.inv[cl] + gr * gr * self.inv[cr] - parent_score;
                if gain > best_gain {
                    best_gain = gain;
                    best = Some(Split {
                        col: a.col,
                        bin: b as u8,
                        gain,
                        g_left: gl,
                        n_left: cl,
                    });
                }
            }
        }
        best
    }

    /// Histograms for the two children of a node that owned `parent`, `None`
    /// for a child that will be a leaf. Only the smaller child is filled from
    /// rows; the larger is `parent − smaller`, computed in the parent's
    /// buffer — unless the larger child has fewer (row, column) cells than
    /// the histogram has slots, when filling it directly is the shorter loop.
    fn child_histograms(
        &mut self,
        mut parent: Vec<Bin>,
        left: &[usize],
        right: &[usize],
        depth: usize,
    ) -> (Option<Vec<Bin>>, Option<Vec<Bin>>) {
        let left_is_small = left.len() <= right.len();
        let (small, large) = if left_is_small {
            (left, right)
        } else {
            (right, left)
        };
        // Terminality is monotone in the row count, so a needed small child
        // implies a needed large one.
        if self.is_terminal(large.len(), depth) {
            self.free.push(parent);
            return (None, None);
        }
        let need_small = !self.is_terminal(small.len(), depth);
        let small_hist = if large.len() * self.active.len() < self.total_bins {
            parent.fill(Bin::default());
            self.fill(&mut parent, large);
            need_small.then(|| self.histogram_of(small))
        } else {
            let buf = self.histogram_of(small);
            for (p, s) in parent.iter_mut().zip(&buf) {
                p.g -= s.g;
                p.n -= s.n;
            }
            debug_assert!(
                self.active.iter().all(|a| {
                    let counts = parent[a.first..a.first + a.n_bins].iter().map(|b| b.n);
                    counts.sum::<usize>() == large.len()
                }),
                "subtracted histogram disagrees with the child's row count"
            );
            if need_small {
                Some(buf)
            } else {
                self.free.push(buf);
                None
            }
        };
        if left_is_small {
            (small_hist, Some(parent))
        } else {
            (Some(parent), small_hist)
        }
    }

    fn push_leaf(&mut self, g_sum: f64, n: usize) -> u32 {
        self.nodes.push(Node::Leaf {
            weight: -g_sum / (n as f64 + self.params.lambda),
        });
        (self.nodes.len() - 1) as u32
    }

    /// Recursively builds the subtree over `idx`, returning the arena index
    /// of the created node. Partitions `idx` in place. `g_sum` is the rows'
    /// gradient sum; `hist` their histogram, `None` iff the node is terminal.
    fn build(
        &mut self,
        idx: &mut [usize],
        g_sum: f64,
        depth: usize,
        hist: Option<Vec<Bin>>,
    ) -> u32 {
        let n = idx.len();
        let Some(hist) = hist else {
            return self.push_leaf(g_sum, n);
        };
        let Some(split) = self.best_split(&hist, g_sum, n) else {
            self.free.push(hist);
            return self.push_leaf(g_sum, n);
        };

        // Stable partition of idx: bin <= split bin stays in front, the rest
        // spills to scratch and is copied back behind it. Both stores happen
        // for every row and only the cursors depend on the comparison, so
        // there is no branch to mispredict on a near-50/50 split.
        let mut mid = 0;
        let mut spilled = 0;
        for i in 0..n {
            let r = idx[i];
            let go_left = self.binned.bin(r, split.col) <= split.bin;
            idx[mid] = r;
            self.spill[spilled] = r;
            mid += usize::from(go_left);
            spilled += usize::from(!go_left);
        }
        idx[mid..].copy_from_slice(&self.spill[..spilled]);
        debug_assert!(mid > 0 && mid < n, "split produced an empty child");
        debug_assert_eq!(mid, split.n_left, "histogram and partition disagree");

        let (left_rows, right_rows) = idx.split_at_mut(mid);
        let (hist_left, hist_right) = self.child_histograms(hist, left_rows, right_rows, depth + 1);

        let node_pos = self.nodes.len();
        // Placeholder; children indices patched after recursion.
        self.nodes.push(Node::Split {
            feature: split.col as u32,
            threshold: self.binner.cuts(split.col)[split.bin as usize],
            gain: split.gain,
            left: 0,
            right: 0,
        });
        let left = self.build(left_rows, split.g_left, depth + 1, hist_left);
        let right = self.build(right_rows, g_sum - split.g_left, depth + 1, hist_right);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_pos]
        {
            *l = left;
            *r = right;
        }
        node_pos as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Fits a tree directly on squared-error gradients of targets
    /// (pred = 0 start, grad = -y): the leaf weights then equal regularized
    /// leaf means of y.
    fn fit_on_targets(data: &Dataset, params: &TreeParams) -> Tree {
        let binner = Binner::fit(data, 32);
        let binned = binner.transform(data);
        let grads: Vec<f64> = data.targets().iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        let columns: Vec<usize> = (0..data.n_cols()).collect();
        Tree::fit(&binned, &binner, &grads, &indices, &columns, params)
    }

    /// The split search this file used before histogram subtraction, kept
    /// as the optimality oracle: per column a strided pass over `rows` into
    /// three 256-slot arrays, then two divisions per candidate bin. Returns
    /// the best `(feature, bin, gain)`.
    fn reference_best_split(
        binned: &BinnedDataset,
        binner: &Binner,
        grads: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> Option<(usize, u8, f64)> {
        let g_sum: f64 = rows.iter().map(|&r| grads[r]).sum();
        let h_sum = rows.len() as f64;
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, u8, f64)> = None;
        let mut hist_g = [0.0f64; Binner::MAX_BINS];
        let mut hist_h = [0.0f64; Binner::MAX_BINS];
        let mut hist_c = [0usize; Binner::MAX_BINS];

        for &c in columns {
            let n_bins = binner.n_bins(c);
            if n_bins < 2 {
                continue; // constant feature
            }
            hist_g[..n_bins].fill(0.0);
            hist_h[..n_bins].fill(0.0);
            hist_c[..n_bins].fill(0);
            for &r in rows {
                let b = binned.bin(r, c) as usize;
                hist_g[b] += grads[r];
                hist_h[b] += 1.0;
                hist_c[b] += 1;
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut cl = 0usize;
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                cl += hist_c[b];
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                let cr = rows.len() - cl;
                if cl < params.min_samples_leaf
                    || cr < params.min_samples_leaf
                    || hl < params.min_child_weight
                    || hr < params.min_child_weight
                {
                    continue;
                }
                let gain =
                    gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - parent_score;
                if gain > params.min_gain && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((c, b as u8, gain));
                }
            }
        }
        best
    }

    /// One fitted tree and everything it was fitted from.
    struct Fitted<'a> {
        tree: &'a Tree,
        data: &'a Dataset,
        binned: &'a BinnedDataset,
        binner: &'a Binner,
        grads: &'a [f64],
        columns: &'a [usize],
        params: &'a TreeParams,
        /// Σ|g| over the root's rows: prefix sums and subtracted histograms
        /// carry rounding error on that scale down to every leaf.
        g_scale: f64,
    }

    impl Fitted<'_> {
        /// Walks the subtree at `node` with the training rows that reach it
        /// and checks every split and leaf against the reference.
        fn check(&self, node: u32, rows: &[usize], depth: usize) -> Result<(), TestCaseError> {
            let p = self.params;
            let n = rows.len();
            let g_sum: f64 = rows.iter().map(|&r| self.grads[r]).sum();
            let reference =
                reference_best_split(self.binned, self.binner, self.grads, rows, self.columns, p);
            let must_be_leaf = depth >= p.max_depth
                || n < 2 * p.min_samples_leaf
                || n < 2
                || (n as f64) < 2.0 * p.min_child_weight;
            match &self.tree.nodes[node as usize] {
                Node::Leaf { weight } => {
                    let want = -g_sum / (n as f64 + p.lambda);
                    let tol = 1e-12 * self.g_scale / (n as f64 + p.lambda);
                    prop_assert!(
                        (weight - want).abs() <= tol,
                        "leaf weight {weight} != {want} over {n} rows"
                    );
                    if let (false, Some((_, _, best))) = (must_be_leaf, reference) {
                        // Only a gain the two roundings disagree on may be left unsplit.
                        prop_assert!(
                            best <= p.min_gain + 1e-9 * self.g_scale.max(1.0),
                            "leaf over {n} rows although the reference gains {best}"
                        );
                    }
                }
                Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => {
                    prop_assert!(!must_be_leaf, "split at depth {depth} over {n} rows");
                    prop_assert!(self.columns.contains(&(*feature as usize)));
                    let (l, r): (Vec<usize>, Vec<usize>) = rows
                        .iter()
                        .partition(|&&i| self.data.row(i)[*feature as usize] <= *threshold);
                    let min_child = |rows: &[usize]| {
                        rows.len() >= p.min_samples_leaf && rows.len() as f64 >= p.min_child_weight
                    };
                    prop_assert!(min_child(&l) && min_child(&r), "child too small");
                    let score = |rows: &[usize]| {
                        let g: f64 = rows.iter().map(|&i| self.grads[i]).sum();
                        g * g / (rows.len() as f64 + p.lambda)
                    };
                    let placed = score(&l) + score(&r) - score(rows);
                    let best = reference.map_or(f64::NEG_INFINITY, |(_, _, g)| g);
                    let tol = 1e-9 * best.abs().max(1.0);
                    prop_assert!(
                        placed >= best - tol,
                        "placed gain {placed} < reference best {best}"
                    );
                    prop_assert!(
                        (gain - placed).abs() <= tol,
                        "stored gain {gain} != {placed}"
                    );
                    self.check(*left, &l, depth + 1)?;
                    self.check(*right, &r, depth + 1)?;
                }
            }
            Ok(())
        }
    }

    /// Fits on `indices` × `columns` and checks the whole tree against
    /// [`reference_best_split`].
    fn check_against_reference(
        data: &Dataset,
        grads: &[f64],
        n_bins: usize,
        indices: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> Result<Tree, TestCaseError> {
        let binner = Binner::fit(data, n_bins);
        let binned = binner.transform(data);
        let tree = Tree::fit(&binned, &binner, grads, indices, columns, params);
        Fitted {
            tree: &tree,
            data,
            binned: &binned,
            binner: &binner,
            grads,
            columns,
            params,
            g_scale: indices.iter().map(|&r| grads[r].abs()).sum(),
        }
        .check(0, indices, 0)?;
        Ok(tree)
    }

    fn step_data() -> Dataset {
        // y = 0 for x < 50, y = 10 for x >= 50.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        Dataset::from_rows(&rows, &targets)
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_data();
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert!(tree.n_leaves() >= 2);
        let lo = tree.predict(&[10.0]);
        let hi = tree.predict(&[90.0]);
        assert!(lo < 1.0, "lo={lo}");
        assert!(hi > 9.0, "hi={hi}");
    }

    #[test]
    fn constant_tree() {
        let t = Tree::constant(3.5);
        assert_eq!(t.predict(&[1.0, 2.0]), 3.5);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn depth_zero_yields_single_leaf() {
        let data = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = fit_on_targets(&data, &params);
        assert_eq!(tree.n_nodes(), 1);
        // Leaf = regularized mean of y: 500/(100+1)
        let w = tree.predict(&[0.0]);
        assert!((w - 500.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        // Noisy-ish data that wants many splits.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..256).map(|i| ((i * 7919) % 97) as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        for depth in [1usize, 2, 3] {
            let params = TreeParams {
                max_depth: depth,
                ..Default::default()
            };
            let tree = fit_on_targets(&data, &params);
            assert!(
                tree.n_leaves() <= 1 << depth,
                "depth {depth}: {} leaves",
                tree.n_leaves()
            );
        }
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let data = step_data();
        let params = TreeParams {
            min_samples_leaf: 60, // each child would need >= 60 of 100 rows: impossible
            ..Default::default()
        };
        let tree = fit_on_targets(&data, &params);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn constant_target_produces_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![7.0; 50]);
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert_eq!(tree.n_leaves(), 1, "no gain available on constant target");
    }

    #[test]
    fn column_subset_restricts_splits() {
        // Feature 0 is informative, feature 1 is noise; restrict to column 1.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let binner = Binner::fit(&data, 32);
        let binned = binner.transform(&data);
        let grads: Vec<f64> = targets.iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..100).collect();
        let tree = Tree::fit(
            &binned,
            &binner,
            &grads,
            &indices,
            &[1],
            &TreeParams::default(),
        );
        // Splitting on the noise column can't separate the step cleanly:
        // prediction at x0=10 and x0=90 with identical x1 must be equal.
        assert_eq!(tree.predict(&[10.0, 1.0]), tree.predict(&[90.0, 1.0]));
    }

    #[test]
    fn two_feature_interaction() {
        // y = 5 iff x0 > 50 and x1 > 50 — needs depth 2.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for a in 0..20 {
            for b in 0..20 {
                let x0 = a as f64 * 5.0;
                let x1 = b as f64 * 5.0;
                rows.push(vec![x0, x1]);
                targets.push(if x0 > 50.0 && x1 > 50.0 { 5.0 } else { 0.0 });
            }
        }
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert!(tree.predict(&[80.0, 80.0]) > 4.0);
        assert!(tree.predict(&[80.0, 10.0]) < 1.0);
        assert!(tree.predict(&[10.0, 80.0]) < 1.0);
    }

    #[test]
    fn flat_parts_round_trip_is_bit_exact() {
        let data = step_data();
        let tree = fit_on_targets(&data, &TreeParams::default());
        let (f, t, l, r, g) = tree.to_flat_parts();
        let back = Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap();
        assert_eq!(back.n_nodes(), tree.n_nodes());
        assert_eq!(back.n_leaves(), tree.n_leaves());
        for x in [0.0, 10.0, 49.0, 50.0, 51.0, 99.0] {
            assert_eq!(
                back.predict(&[x]).to_bits(),
                tree.predict(&[x]).to_bits(),
                "x={x}"
            );
        }
        let mut imp_a = vec![0.0; 1];
        let mut imp_b = vec![0.0; 1];
        tree.accumulate_importance(&mut imp_a);
        back.accumulate_importance(&mut imp_b);
        assert_eq!(imp_a[0].to_bits(), imp_b[0].to_bits());
    }

    #[test]
    fn from_flat_parts_rejects_malformed() {
        // Length mismatch.
        assert!(Tree::from_flat_parts(&[u32::MAX], &[1.0, 2.0], &[0], &[0], &[0.0]).is_none());
        // Zero nodes.
        assert!(Tree::from_flat_parts(&[], &[], &[], &[], &[]).is_none());
        // Split child out of bounds.
        assert!(
            Tree::from_flat_parts(&[0, u32::MAX], &[1.0, 2.0], &[1, 0], &[9, 0], &[0.5, 0.0])
                .is_none()
        );
        // Split child pointing backwards (cycle).
        assert!(Tree::from_flat_parts(
            &[0, 0, u32::MAX],
            &[1.0, 1.0, 2.0],
            &[1, 0, 0],
            &[2, 2, 0],
            &[0.5, 0.5, 0.0]
        )
        .is_none());
        // Leaf with nonzero children.
        assert!(Tree::from_flat_parts(&[u32::MAX], &[1.0], &[1], &[0], &[0.0]).is_none());
    }

    #[test]
    fn top_bin_of_256_lands_in_its_own_slot() {
        // Column 0 takes 1024 distinct values, so 256 bins put rows in bin
        // 255; column 1 is coarse. Whichever column comes second starts right
        // behind the other's last slot, so an off-by-one there (or past the
        // end of the buffer) breaks the reference comparison.
        let rows: Vec<Vec<f64>> = (0..1024)
            .map(|i| vec![i as f64, ((i * 7) % 5) as f64])
            .collect();
        let targets: Vec<f64> = (0..1024)
            .map(|i| if i >= 1020 { 50.0 } else { (i % 5) as f64 })
            .collect();
        let data = Dataset::from_rows(&rows, &targets);
        let binned = Binner::fit(&data, 256).transform(&data);
        assert_eq!(binned.bin(1023, 0), 255);
        let grads: Vec<f64> = targets.iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..1024).collect();
        for columns in [[0, 1], [1, 0]] {
            let tree = check_against_reference(
                &data,
                &grads,
                256,
                &indices,
                &columns,
                &TreeParams::default(),
            )
            .unwrap();
            assert!(tree.predict(&[1023.0, 0.0]) > 25.0);
        }
    }

    #[test]
    fn all_constant_columns_yield_a_single_leaf() {
        let rows = vec![vec![3.0, -1.0]; 40];
        let targets: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data, &TreeParams::default());
        assert_eq!(tree.n_nodes(), 1);
        let want = targets.iter().sum::<f64>() / 41.0;
        assert!((tree.predict(&[3.0, -1.0]) - want).abs() < 1e-12 * want);
    }

    proptest! {
        #[test]
        fn prop_every_split_is_reference_optimal(
            seed in 0u64..u64::MAX,
            n in 12usize..260,
            n_bins_pick in 0usize..3,
            (max_depth, min_samples_leaf) in (1usize..7, 1usize..6),
            (min_child_weight, lambda) in (0.5f64..6.0, 0.0f64..3.0),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Column kinds: continuous, few distinct values, constant, and a
            // copy of column 0.
            let n_cols = rng.gen_range(2usize..7);
            let kinds: Vec<u32> = (0..n_cols).map(|_| rng.gen_range(0u32..4)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut row: Vec<f64> = Vec::with_capacity(n_cols);
                    for &kind in &kinds {
                        let v = match kind {
                            0 => rng.gen_range(-100.0f64..100.0),
                            1 => rng.gen_range(0u32..4) as f64,
                            2 => 7.5,
                            _ => row.first().copied().unwrap_or(1.0),
                        };
                        row.push(v);
                    }
                    row
                })
                .collect();
            let data = Dataset::from_rows(&rows, &vec![0.0; n]);
            let grads: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            // A row subsample and a shuffled column subset, as the boosters pass.
            let indices: Vec<usize> = (0..n).filter(|_| rng.gen_range(0u32..5) > 0).collect();
            prop_assume!(!indices.is_empty());
            let mut columns: Vec<usize> = (0..n_cols).filter(|_| rng.gen_range(0u32..4) > 0).collect();
            for i in (1..columns.len()).rev() {
                columns.swap(i, rng.gen_range(0..=i));
            }
            let params = TreeParams {
                max_depth,
                lambda,
                min_child_weight,
                min_samples_leaf,
                min_gain: 1e-8,
            };
            let n_bins = [2, 32, 256][n_bins_pick];
            check_against_reference(&data, &grads, n_bins, &indices, &columns, &params)?;
        }

        #[test]
        fn prop_prediction_bounded_by_target_range(
            pairs in proptest::collection::vec((-100.0f64..100.0, -50.0f64..50.0), 10..100),
            probe in -100.0f64..100.0,
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let tree = fit_on_targets(&data, &TreeParams::default());
            let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = tree.predict(&[probe]);
            // Leaf weights are shrunk means, so they stay within (even inside) range.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "p={} not in [{}, {}]", p, lo, hi);
        }

        #[test]
        fn prop_deterministic(
            pairs in proptest::collection::vec((0.0f64..100.0, 0.0f64..10.0), 5..50),
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let t1 = fit_on_targets(&data, &TreeParams::default());
            let t2 = fit_on_targets(&data, &TreeParams::default());
            for x in [0.0, 25.0, 50.0, 75.0, 100.0] {
                prop_assert_eq!(t1.predict(&[x]), t2.predict(&[x]));
            }
        }
    }
}
