//! Second-order regression trees with histogram split finding, and the one
//! walk that reads them.
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
//! is `parent − smaller`; candidates are scored from a `1/(k+λ)` table, and
//! a column's scan stops at the first boundary that leaves its right side
//! too small. It grows one tree per boosting head on the same rows
//! (`Tree::fit_heads`): the root pass reads each row's bins once and adds
//! every head's gradient — each head's sums still in row order, so each
//! root histogram is bit for bit the one a pass for that head alone would
//! fill — and below the root each head grows alone. Placing a leaf writes
//! its weight for every row the partition brought there, which is the
//! weight a walk of the finished tree finds for that row; the boosting loop
//! reads it instead of walking the rows it grew on. All buffers live in a
//! `Scratch` that one boosting fit allocates once.
//!
//! A fitted tree is one `Vec` arena of 24-byte nodes plus its depth. A step
//! from node `n` goes to `n.kids[!(x[n.feature] <= n.threshold)]` — NaN goes
//! right — and a leaf's two kids are the leaf itself, its weight in the
//! threshold slot. Walking exactly `depth` steps from the root therefore
//! lands on the leaf a walk that stops at leaves would find, with no
//! data-dependent branch. The kernel walks up to [`LANES`] independent
//! (tree, row) chains in lockstep, so their loads overlap: [`Tree::predict`]
//! is one chain, a boosted head walks many trees for one row, and a batch
//! walks one tree for many rows.

use crate::dataset::{BinnedDataset, Binner, Dataset};
use serde::{Deserialize, Serialize};

/// The five parallel arrays of [`Tree::to_flat_parts`]:
/// `(feature, threshold, left, right, gain)`.
pub type FlatParts = (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>);

/// How many (tree, row) chains one walk interleaves.
pub const LANES: usize = 16;

/// Deepest a leaf may sit (the root is depth 0; the paper's depth 6).
pub const MAX_DEPTH: usize = 6;
/// L2 regularization λ on leaf weights.
pub const LAMBDA: f64 = 1.0;
/// Fewest rows a child may hold: one sample per leaf and, hessians being 1,
/// a child weight of at least 1.0.
pub const MIN_CHILD: usize = 1;
/// Gain a split must exceed.
pub const MIN_GAIN: f64 = 1e-8;

/// Arena node. A split goes to `kids[0]` iff `x[feature] <= threshold`,
/// else to `kids[1]`. A leaf at index `i` has `kids == [i, i]`, its weight
/// as `threshold` and `feature == 0`, so a step from it stays put.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Node {
    threshold: f64,
    kids: [u32; 2],
    feature: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    fn leaf(at: usize, weight: f64) -> Self {
        Node {
            threshold: weight,
            kids: [at as u32; 2],
            feature: 0,
        }
    }

    fn is_leaf(&self, at: usize) -> bool {
        self.kids[0] as usize == at
    }
}

/// A trained regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Each split's gain (0 at a leaf), parallel to `nodes`: read only by
    /// feature importance and export, so it stays out of the walked node.
    gains: Vec<f64>,
    /// The longest root-to-leaf path: every walk takes this many steps.
    depth: usize,
}

/// Walks `out.len()` (at most [`LANES`]) chains in lockstep, chain `j`
/// being tree `chain(j).0` on row `chain(j).1`, and writes each chain's leaf
/// weight to `out[j]`. Every chain takes the deepest tree's step count; a
/// chain already at its leaf steps onto the same leaf.
#[inline]
#[expect(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(x <= t)` is the step: a NaN feature compares false and goes right"
)]
pub(crate) fn walk<'a>(out: &mut [f64], chain: impl Fn(usize) -> (&'a Tree, &'a [f64])) {
    let mut at = [0u32; LANES];
    let at = &mut at[..out.len()];
    let depth = (0..at.len()).map(|j| chain(j).0.depth).max().unwrap_or(0);
    for _ in 0..depth {
        for (j, i) in at.iter_mut().enumerate() {
            let (tree, row) = chain(j);
            let node = &tree.nodes[*i as usize];
            *i = node.kids[usize::from(!(row[node.feature as usize] <= node.threshold))];
        }
    }
    for (j, (o, &i)) in out.iter_mut().zip(at.iter()).enumerate() {
        *o = chain(j).0.nodes[i as usize].threshold;
    }
}

impl Tree {
    /// Grows one tree per head over the same non-empty `rows` (at most the
    /// `max_rows` `scratch` was made for), head `k` on `grads[k]` with unit
    /// hessians, searching every column for splits, and writes the leaf
    /// weight each of `rows` gets in head `k`'s tree to `leaves[k][row]`.
    /// The root histograms of all heads come from one pass over the rows;
    /// below the root each head grows alone. Every buffer is `scratch`'s,
    /// so a fit of many rounds allocates them once.
    pub(crate) fn fit_heads<const K: usize>(
        scratch: &mut Scratch,
        (binner, binned): (&Binner, &BinnedDataset),
        grads: [&[f64]; K],
        rows: &[usize],
        leaves: &mut [Vec<f64>; K],
    ) -> [Tree; K] {
        debug_assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        debug_assert!(rows.len() <= scratch.spill.len(), "scratch too small");
        debug_assert!(grads.iter().all(|g| g.len() == binned.n_rows()));
        let Scratch {
            active,
            total_bins,
            inv,
            free,
            spill,
            idx,
        } = scratch;
        let n = rows.len();
        let mut roots: [Option<Vec<Bin>>; K] = [(); K].map(|()| None);
        if !is_terminal(n, 0) {
            let mut hists = [(); K].map(|()| take_zeroed(free, *total_bins));
            fill(
                active,
                binned,
                grads,
                rows,
                hists.each_mut().map(Vec::as_mut_slice),
            );
            roots = hists.map(Some);
        }
        std::array::from_fn(|k| {
            let g_sum: f64 = rows.iter().map(|&r| grads[k][r]).sum();
            idx.clear();
            idx.extend_from_slice(rows);
            let mut grower = Grower {
                binned,
                binner,
                grads: grads[k],
                active,
                total_bins: *total_bins,
                inv,
                free,
                spill,
                leaf: &mut leaves[k],
                nodes: Vec::new(),
                gains: Vec::new(),
                depth: 0,
            };
            grower.build(idx, g_sum, 0, roots[k].take());
            Tree {
                nodes: grower.nodes,
                gains: grower.gains,
                depth: grower.depth,
            }
        })
    }

    /// One head of [`Tree::fit_heads`] with buffers of its own.
    #[cfg(test)]
    pub(crate) fn fit(
        binned: &BinnedDataset,
        binner: &Binner,
        grads: &[f64],
        rows: &[usize],
    ) -> Self {
        let leaf = vec![0.0; grads.len()];
        let mut scratch = Scratch::new(binner, rows.len());
        let [tree] = Tree::fit_heads(&mut scratch, (binner, binned), [grads], rows, &mut [leaf]);
        tree
    }

    /// Creates a single-leaf tree with a constant output.
    pub fn constant(weight: f64) -> Self {
        Tree {
            nodes: vec![Node::leaf(0, weight)],
            gains: vec![0.0],
            depth: 0,
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
            .enumerate()
            .filter(|(i, n)| n.is_leaf(*i))
            .count()
    }

    /// Adds each split's gain to `into[feature]` (gain-based feature
    /// importance, as reported by XGBoost's `total_gain`).
    ///
    /// # Panics
    /// Panics if a split references a feature outside `into`.
    pub fn accumulate_importance(&self, into: &mut [f64]) {
        for (i, (node, gain)) in self.nodes.iter().zip(&self.gains).enumerate() {
            if !node.is_leaf(i) {
                into[node.feature as usize] += gain.max(0.0);
            }
        }
    }

    /// Bytes the arena's nodes and gains occupy on the heap.
    pub(crate) fn size_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<Node>() + std::mem::size_of::<f64>())
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
        for (i, (node, g)) in self.nodes.iter().zip(&self.gains).enumerate() {
            let leaf = node.is_leaf(i);
            feature.push(if leaf { u32::MAX } else { node.feature });
            threshold.push(node.threshold);
            left.push(if leaf { 0 } else { node.kids[0] });
            right.push(if leaf { 0 } else { node.kids[1] });
            gain.push(if leaf { 0.0 } else { *g });
        }
        (feature, threshold, left, right, gain)
    }

    /// Rebuilds a tree from [`Tree::to_flat_parts`] arrays. Returns `None`
    /// on malformed input — mismatched lengths, zero nodes, a leaf with
    /// children, or a split child index that is out of bounds or not
    /// strictly greater than its parent (the arena is built depth-first, so
    /// children always follow their parent).
    ///
    /// The walk's step count is the longest path from the root to a leaf it
    /// reaches: a child two parents share takes the deeper of the two, and
    /// unreachable nodes count for nothing. Children strictly follow their
    /// parent, so the depth is below the node count.
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
        let mut gains = Vec::with_capacity(n);
        for i in 0..n {
            if feature[i] == u32::MAX {
                if left[i] != 0 || right[i] != 0 {
                    return None;
                }
                nodes.push(Node::leaf(i, threshold[i]));
                gains.push(0.0);
            } else {
                let (l, r) = (left[i] as usize, right[i] as usize);
                if l <= i || r <= i || l >= n || r >= n {
                    return None;
                }
                nodes.push(Node {
                    threshold: threshold[i],
                    kids: [left[i], right[i]],
                    feature: feature[i],
                });
                gains.push(gain[i]);
            }
        }
        // Depth of each node the root reaches, in arena order: every parent
        // precedes its children, so a node's depth is final when visited.
        let mut reached: Vec<Option<usize>> = vec![None; n];
        reached[0] = Some(0);
        let mut depth = 0;
        for i in 0..n {
            let Some(d) = reached[i] else { continue };
            if nodes[i].is_leaf(i) {
                depth = depth.max(d);
            } else {
                for k in nodes[i].kids {
                    let kid = &mut reached[k as usize];
                    *kid = Some(kid.map_or(d + 1, |e| e.max(d + 1)));
                }
            }
        }
        Some(Tree {
            nodes,
            gains,
            depth,
        })
    }

    /// Predicts the leaf weight for a raw (unbinned) feature row: the walk
    /// with one chain.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut out = [0.0];
        walk(&mut out, |_| (self, row));
        out[0]
    }

    /// `out[j]` = this tree's leaf weight for `rows[j]`, the rows walked
    /// [`LANES`] at a time. `out` and `rows` have the same length.
    pub(crate) fn predict_rows<R: AsRef<[f64]>>(&self, rows: &[R], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        for (rs, o) in rows.chunks(LANES).zip(out.chunks_mut(LANES)) {
            walk(o, |j| (self, rs[j].as_ref()));
        }
    }

    /// `leaf[i]` = this tree's leaf weight for `data.row(i)`, for every `i`
    /// in `at`, the rows walked [`LANES`] at a time.
    pub(crate) fn predict_at(&self, data: &Dataset, at: &[usize], leaf: &mut [f64]) {
        let mut out = [0.0; LANES];
        for rs in at.chunks(LANES) {
            let out = &mut out[..rs.len()];
            walk(out, |j| (self, data.row(rs[j])));
            for (&i, &w) in rs.iter().zip(out.iter()) {
                leaf[i] = w;
            }
        }
    }

    /// The walk this module used before the lockstep kernel: follow
    /// children until a leaf. The reference the kernel is held to.
    #[cfg(test)]
    fn reference_predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf(i) {
                return node.threshold;
            }
            i = if row[node.feature as usize] <= node.threshold {
                node.kids[0] as usize
            } else {
                node.kids[1] as usize
            };
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

/// Whether a node of `n` rows at `depth` is a leaf before any split search
/// — such nodes never get a histogram.
fn is_terminal(n: usize, depth: usize) -> bool {
    depth >= MAX_DEPTH || n < 2 * MIN_CHILD
}

/// The grower's buffers, allocated once per boosting fit and reused by
/// every tree of every head: they depend on the binning and the largest
/// row sample only.
pub(crate) struct Scratch {
    /// The columns with at least two bins, in column order (scan order
    /// breaks gain ties).
    active: Vec<ActiveCol>,
    /// Histogram length: the active columns' bin counts summed.
    total_bins: usize,
    /// `inv[k] = 1/(k+λ)` for every row count a node can have.
    inv: Vec<f64>,
    /// Histogram buffers not owned by a live node. A node at depth `d` has
    /// at most `d` pending right siblings above it plus its own and one
    /// fresh child buffer, the last split level needs none, and the other
    /// heads' roots wait while one head grows, so at most
    /// `MAX_DEPTH + K` are ever allocated.
    free: Vec<Vec<Bin>>,
    /// Right-hand rows of the partition in flight, one slot per tree row.
    spill: Vec<usize>,
    /// The tree's rows, partitioned in place as it grows.
    idx: Vec<usize>,
}

impl Scratch {
    /// Buffers for trees over at most `max_rows` rows binned by `binner`.
    pub(crate) fn new(binner: &Binner, max_rows: usize) -> Self {
        let mut active = Vec::with_capacity(binner.n_features());
        let mut total_bins = 0;
        for col in 0..binner.n_features() {
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
        Scratch {
            active,
            total_bins,
            inv: (0..=max_rows).map(|k| 1.0 / (k as f64 + LAMBDA)).collect(),
            free: Vec::new(),
            spill: vec![0; max_rows],
            idx: Vec::with_capacity(max_rows),
        }
    }
}

/// A free histogram buffer, zeroed, or a new one.
fn take_zeroed(free: &mut Vec<Vec<Bin>>, total_bins: usize) -> Vec<Bin> {
    match free.pop() {
        Some(mut buf) => {
            buf.fill(Bin::default());
            buf
        }
        None => vec![Bin::default(); total_bins],
    }
}

/// Adds `rows` to every head's histogram in one pass, row-major over the
/// active columns, so each row's bins are read once. Head `k`'s Σg goes to
/// `hists[k]`, summed in row order exactly as a pass for that head alone
/// would sum it; the row counts, which all heads share, are counted in
/// `hists[0]` and copied to the others.
fn fill<const K: usize>(
    active: &[ActiveCol],
    binned: &BinnedDataset,
    grads: [&[f64]; K],
    rows: &[usize],
    mut hists: [&mut [Bin]; K],
) {
    let Some((counted, others)) = hists.split_first_mut() else {
        return;
    };
    for &r in rows {
        let g: [f64; K] = std::array::from_fn(|k| grads[k][r]);
        let bins = binned.row(r);
        for a in active {
            let slot = a.first + bins[a.col] as usize;
            counted[slot].g += g[0];
            counted[slot].n += 1;
            for (hist, g) in others.iter_mut().zip(&g[1..]) {
                hist[slot].g += g;
            }
        }
    }
    for hist in others {
        for (to, from) in hist.iter_mut().zip(counted.iter()) {
            to.n = from.n;
        }
    }
}

/// Per-tree growing state over the fit's [`Scratch`].
struct Grower<'a> {
    binned: &'a BinnedDataset,
    binner: &'a Binner,
    grads: &'a [f64],
    active: &'a [ActiveCol],
    total_bins: usize,
    inv: &'a [f64],
    free: &'a mut Vec<Vec<Bin>>,
    spill: &'a mut [usize],
    /// Each grown row's leaf weight, by row.
    leaf: &'a mut [f64],
    nodes: Vec<Node>,
    gains: Vec<f64>,
    /// The deepest leaf pushed so far.
    depth: usize,
}

impl Grower<'_> {
    /// The histogram of `rows`, in a free buffer when there is one.
    fn histogram_of(&mut self, rows: &[usize]) -> Vec<Bin> {
        let mut hist = take_zeroed(self.free, self.total_bins);
        self.fill(&mut hist, rows);
        hist
    }

    /// Adds `rows` to `hist`: [`fill`] for this tree's head alone.
    fn fill(&self, hist: &mut [Bin], rows: &[usize]) {
        fill(self.active, self.binned, [self.grads], rows, [hist]);
    }

    /// Scans every bin boundary of every active column for the highest gain
    /// above [`MIN_GAIN`]; the first candidate in scan order wins a tie. A
    /// column's scan stops once its right side is too small: the right
    /// count only falls as the boundary moves right, so no later candidate
    /// of that column could be taken.
    fn best_split(&self, hist: &[Bin], g_sum: f64, n: usize) -> Option<Split> {
        let parent_score = g_sum * g_sum * self.inv[n];
        let mut best = None;
        let mut best_gain = MIN_GAIN;
        for a in self.active {
            let mut gl = 0.0;
            let mut cl = 0usize;
            // Split after bin b (left = bins 0..=b); last bin can't split.
            for (b, slot) in hist[a.first..a.first + a.n_bins - 1].iter().enumerate() {
                gl += slot.g;
                cl += slot.n;
                let cr = n - cl;
                if cr < MIN_CHILD {
                    break;
                }
                if cl < MIN_CHILD {
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
        if is_terminal(large.len(), depth) {
            self.free.push(parent);
            return (None, None);
        }
        let need_small = !is_terminal(small.len(), depth);
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

    /// Pushes the leaf over `rows` and writes its weight as each row's.
    fn push_leaf(&mut self, rows: &[usize], g_sum: f64, depth: usize) -> u32 {
        let at = self.nodes.len();
        let weight = -g_sum / (rows.len() as f64 + LAMBDA);
        for &r in rows {
            self.leaf[r] = weight;
        }
        self.nodes.push(Node::leaf(at, weight));
        self.gains.push(0.0);
        self.depth = self.depth.max(depth);
        at as u32
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
            return self.push_leaf(idx, g_sum, depth);
        };
        let Some(split) = self.best_split(&hist, g_sum, n) else {
            self.free.push(hist);
            return self.push_leaf(idx, g_sum, depth);
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
        self.nodes.push(Node {
            threshold: self.binner.cuts(split.col)[split.bin as usize],
            kids: [0, 0],
            feature: split.col as u32,
        });
        self.gains.push(split.gain);
        let left = self.build(left_rows, split.g_left, depth + 1, hist_left);
        let right = self.build(right_rows, g_sum - split.g_left, depth + 1, hist_right);
        self.nodes[node_pos].kids = [left, right];
        node_pos as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Fits a tree directly on squared-error gradients of targets
    /// (pred = 0 start, grad = -y): the leaf weights then equal regularized
    /// leaf means of y.
    fn fit_on_targets(data: &Dataset) -> Tree {
        let binner = Binner::fit(data, 32);
        let binned = binner.transform(data);
        let grads: Vec<f64> = data.targets().iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Tree::fit(&binned, &binner, &grads, &indices)
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
    ) -> Option<(usize, u8, f64)> {
        let g_sum: f64 = rows.iter().map(|&r| grads[r]).sum();
        let h_sum = rows.len() as f64;
        let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
        let mut best: Option<(usize, u8, f64)> = None;
        let mut hist_g = [0.0f64; Binner::MAX_BINS];
        let mut hist_h = [0.0f64; Binner::MAX_BINS];
        let mut hist_c = [0usize; Binner::MAX_BINS];

        for c in 0..binner.n_features() {
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
                if cl < MIN_CHILD || cr < MIN_CHILD {
                    continue;
                }
                let gain = gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - parent_score;
                if gain > MIN_GAIN && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
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
        /// Σ|g| over the root's rows: prefix sums and subtracted histograms
        /// carry rounding error on that scale down to every leaf.
        g_scale: f64,
    }

    impl Fitted<'_> {
        /// Walks the subtree at `node` with the training rows that reach it
        /// and checks every split and leaf against the reference.
        fn check(&self, node: u32, rows: &[usize], depth: usize) -> Result<(), TestCaseError> {
            let n = rows.len();
            let g_sum: f64 = rows.iter().map(|&r| self.grads[r]).sum();
            let reference = reference_best_split(self.binned, self.binner, self.grads, rows);
            let must_be_leaf = depth >= MAX_DEPTH || n < 2 * MIN_CHILD;
            let at = node as usize;
            let Node {
                threshold,
                kids: [left, right],
                feature,
            } = self.tree.nodes[at];
            if self.tree.nodes[at].is_leaf(at) {
                let weight = threshold;
                let want = -g_sum / (n as f64 + LAMBDA);
                let tol = 1e-12 * self.g_scale / (n as f64 + LAMBDA);
                prop_assert!(
                    (weight - want).abs() <= tol,
                    "leaf weight {weight} != {want} over {n} rows"
                );
                prop_assert!(depth <= self.tree.depth, "leaf below the tree's depth");
                if let (false, Some((_, _, best))) = (must_be_leaf, reference) {
                    // Only a gain the two roundings disagree on may be left unsplit.
                    prop_assert!(
                        best <= MIN_GAIN + 1e-9 * self.g_scale.max(1.0),
                        "leaf over {n} rows although the reference gains {best}"
                    );
                }
            } else {
                let gain = self.tree.gains[at];
                prop_assert!(!must_be_leaf, "split at depth {depth} over {n} rows");
                prop_assert!((feature as usize) < self.data.n_cols());
                let (l, r): (Vec<usize>, Vec<usize>) = rows
                    .iter()
                    .partition(|&&i| self.data.row(i)[feature as usize] <= threshold);
                prop_assert!(
                    l.len() >= MIN_CHILD && r.len() >= MIN_CHILD,
                    "child too small"
                );
                let score = |rows: &[usize]| {
                    let g: f64 = rows.iter().map(|&i| self.grads[i]).sum();
                    g * g / (rows.len() as f64 + LAMBDA)
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
                self.check(left, &l, depth + 1)?;
                self.check(right, &r, depth + 1)?;
            }
            Ok(())
        }
    }

    /// Fits on `indices` and checks the whole tree against
    /// [`reference_best_split`].
    fn check_against_reference(
        data: &Dataset,
        grads: &[f64],
        n_bins: usize,
        indices: &[usize],
    ) -> Result<Tree, TestCaseError> {
        let binner = Binner::fit(data, n_bins);
        let binned = binner.transform(data);
        let tree = Tree::fit(&binned, &binner, grads, indices);
        Fitted {
            tree: &tree,
            data,
            binned: &binned,
            binner: &binner,
            grads,
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
        let tree = fit_on_targets(&data);
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
    fn respects_max_depth() {
        // Noisy-ish zero-mean data that wants many splits (around a large
        // mean, λ would outweigh every split's gain).
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..256).map(|i| ((i * 7919) % 97) as f64 - 48.0).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data);
        assert_eq!(tree.depth, MAX_DEPTH, "the depth cap never bound");
        assert!(
            tree.n_leaves() <= 1 << MAX_DEPTH,
            "{} leaves",
            tree.n_leaves()
        );
    }

    #[test]
    fn constant_target_produces_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, &vec![7.0; 50]);
        let tree = fit_on_targets(&data);
        assert_eq!(tree.n_leaves(), 1, "no gain available on constant target");
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
        let tree = fit_on_targets(&data);
        assert!(tree.predict(&[80.0, 80.0]) > 4.0);
        assert!(tree.predict(&[80.0, 10.0]) < 1.0);
        assert!(tree.predict(&[10.0, 80.0]) < 1.0);
    }

    #[test]
    fn flat_parts_round_trip_is_bit_exact() {
        let data = step_data();
        let tree = fit_on_targets(&data);
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
    fn restored_depth_is_the_longest_path_to_a_reached_leaf() {
        // 0 → (1, 3), 1 → (2, 3): leaf 3 is shared at depths 1 and 2.
        // 4 → (5, 6), 5 → (6, 6) are unreachable and would count 2 more.
        let leaf = u32::MAX;
        let tree = Tree::from_flat_parts(
            &[0, 1, leaf, leaf, 0, 0, leaf],
            &[0.5, -1.0, 7.0, 9.0, 0.0, 0.0, 3.0],
            &[1, 2, 0, 0, 5, 6, 0],
            &[3, 3, 0, 0, 6, 6, 0],
            &[1.0, 2.0, 0.0, 0.0, 4.0, 5.0, 0.0],
        )
        .unwrap();
        assert_eq!(tree.depth, 2);
        assert_eq!(tree.predict(&[0.0, -2.0]), 7.0);
        assert_eq!(tree.predict(&[0.0, 2.0]), 9.0);
        assert_eq!(tree.predict(&[1.0, -2.0]), 9.0);
        assert_eq!(tree.predict(&[f64::NAN, -2.0]), 9.0);
        // A leaf root walks no step, so it never reads the row.
        let root_leaf = Tree::from_flat_parts(
            &[leaf, 0, leaf],
            &[4.0, 1.0, 2.0],
            &[0, 2, 0],
            &[0, 2, 0],
            &[0.0; 3],
        )
        .unwrap();
        assert_eq!((root_leaf.depth, root_leaf.predict(&[])), (0, 4.0));
        // Fitting and restoring agree on the depth.
        let fitted = fit_on_targets(&step_data());
        let (f, t, l, r, g) = fitted.to_flat_parts();
        assert_eq!(
            Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap().depth,
            fitted.depth
        );
        assert!(fitted.depth >= 1);
    }

    /// A random arena in [`Tree::to_flat_parts`] form, restored: the last
    /// node is a leaf, any other a leaf or a split whose kids are drawn from
    /// the nodes after it, so kids are shared and nodes unreachable as often
    /// as not, and the root is a leaf (depth 0) one time in three.
    fn random_arena(rng: &mut StdRng, n_cols: usize) -> Tree {
        let n = rng.gen_range(1usize..24);
        let mut parts: FlatParts = Default::default();
        for i in 0..n {
            let split =
                i + 1 < n && (i > 0 || rng.gen_range(0u32..3) > 0) && rng.gen_range(0u32..4) > 0;
            let (f, l, r) = if split {
                let kid = |rng: &mut StdRng| rng.gen_range(i as u32 + 1..n as u32);
                (rng.gen_range(0..n_cols as u32), kid(rng), kid(rng))
            } else {
                (u32::MAX, 0, 0)
            };
            parts.0.push(f);
            parts.1.push(rng.gen_range(-2.0f64..2.0).round());
            parts.2.push(l);
            parts.3.push(r);
            parts.4.push(rng.gen_range(0.0f64..1.0));
        }
        let (f, t, l, r, g) = parts;
        Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap()
    }

    /// A row of whole numbers near the arena thresholds, so rows land on
    /// them exactly, with NaN and ±∞ mixed in.
    fn random_row(rng: &mut StdRng, n_cols: usize) -> Vec<f64> {
        (0..n_cols)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => rng.gen_range(-3.0f64..3.0).round(),
            })
            .collect()
    }

    /// A fitted tree on random whole-number data.
    fn random_fitted(rng: &mut StdRng, n_cols: usize) -> Tree {
        let n = rng.gen_range(4usize..60);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n_cols)
                    .map(|_| rng.gen_range(-3.0f64..3.0).round())
                    .collect()
            })
            .collect();
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
        fit_on_targets(&Dataset::from_rows(&rows, &targets))
    }

    proptest! {
        /// The lockstep walk lands where the stop-at-a-leaf walk does, bit
        /// for bit: K trees × 1 row and 1 tree × K rows for K one under,
        /// at and one over [`LANES`], on fitted trees, constants and
        /// restored arenas with shared kids and unreachable nodes.
        #[test]
        fn prop_lockstep_walk_equals_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_cols = rng.gen_range(1usize..5);
            let trees: Vec<Tree> = (0..LANES + 1)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => Tree::constant(rng.gen_range(-1.0f64..1.0)),
                    1 => random_fitted(&mut rng, n_cols),
                    _ => random_arena(&mut rng, n_cols),
                })
                .collect();
            let rows: Vec<Vec<f64>> = (0..LANES + 1).map(|_| random_row(&mut rng, n_cols)).collect();
            for k in [1, LANES - 1, LANES, LANES + 1] {
                let mut out = vec![f64::NAN; k];
                for row in &rows {
                    for (ts, o) in trees[..k].chunks(LANES).zip(out.chunks_mut(LANES)) {
                        walk(o, |j| (&ts[j], row));
                    }
                    for (tree, got) in trees.iter().zip(&out) {
                        prop_assert_eq!(got.to_bits(), tree.reference_predict(row).to_bits());
                        prop_assert_eq!(tree.predict(row).to_bits(), got.to_bits());
                    }
                }
                for tree in &trees {
                    tree.predict_rows(&rows[..k], &mut out);
                    for (row, got) in rows.iter().zip(&out) {
                        prop_assert_eq!(got.to_bits(), tree.reference_predict(row).to_bits());
                    }
                }
            }
        }
    }

    /// Random data whose columns hold what the walk and the binning must
    /// agree on: NaN, ±∞, −0.0 next to 0.0, few distinct values (so rows sit
    /// exactly on a cut), a constant and a column of distinct values (all
    /// 256 bins at `n_bins` 256 once there are 256 rows or more).
    fn edge_data(rng: &mut StdRng, n: usize) -> Dataset {
        let n_cols = rng.gen_range(1usize..6);
        let kinds: Vec<u32> = (0..n_cols).map(|_| rng.gen_range(0u32..6)).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                kinds
                    .iter()
                    .map(|&kind| match kind {
                        0 => rng.gen_range(-100.0f64..100.0),
                        1 => rng.gen_range(0u32..4) as f64,
                        2 => 7.5,
                        3 => i as f64,
                        4 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0]
                            [rng.gen_range(0usize..4)],
                        _ => [-0.0, 0.0, -1.0, 1.0][rng.gen_range(0usize..4)],
                    })
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows, &vec![0.0; n])
    }

    /// `rows` as a boosting round passes them: all rows in shuffled order,
    /// or a subsample of them, or a single row (a terminal root).
    fn round_rows(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..n).collect();
        for i in 0..n {
            rows.swap(i, rng.gen_range(i..n));
        }
        let keep = match rng.gen_range(0u32..4) {
            0 => 1,
            1 => n,
            _ => ((n as f64 * 0.8).round() as usize).max(1),
        };
        rows.truncate(keep);
        rows
    }

    proptest! {
        /// The leaf weight the grower writes for a row it grew on is the one
        /// the walk finds for that row, bit for bit, so the boosting loop
        /// need not walk the rows it sampled; rows it did not grow on keep
        /// whatever they held.
        #[test]
        fn prop_grown_leaves_are_the_walked_leaves(
            seed in 0u64..u64::MAX,
            n in 1usize..400,
            n_bins_pick in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = edge_data(&mut rng, n);
            let binner = Binner::fit(&data, [2, 32, 256][n_bins_pick]);
            let binned = binner.transform(&data);
            let grads: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let rows = round_rows(&mut rng, n);
            let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
            let mut leaf = [vec![sentinel; n]];
            let mut scratch = Scratch::new(&binner, n);
            let [tree] = Tree::fit_heads(&mut scratch, (&binner, &binned), [&grads], &rows, &mut leaf);
            let all: Vec<&[f64]> = (0..n).map(|i| data.row(i)).collect();
            let mut walked = vec![0.0; n];
            tree.predict_rows(&all, &mut walked);
            let mut grown = vec![false; n];
            for &r in &rows {
                grown[r] = true;
                prop_assert!(
                    leaf[0][r].to_bits() == walked[r].to_bits(),
                    "row {r}: grown {} walked {}",
                    leaf[0][r],
                    walked[r]
                );
            }
            for (r, _) in grown.iter().enumerate().filter(|(_, g)| !**g) {
                prop_assert_eq!(leaf[0][r].to_bits(), sentinel.to_bits());
            }
        }

        /// One K-head fit is K one-head fits: the same trees, node for node
        /// and bit for bit, and the same leaf weights, for K = 1 and 2, over
        /// several rounds on one scratch (so no buffer carries a round into
        /// the next) against fits with buffers of their own.
        #[test]
        fn prop_a_k_head_fit_is_k_one_head_fits(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            two_heads in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = edge_data(&mut rng, n);
            let binner = Binner::fit(&data, [2, 32, 256][rng.gen_range(0usize..3)]);
            let binned = binner.transform(&data);
            let mut scratch = Scratch::new(&binner, n);
            for _round in 0..3 {
                let rows = round_rows(&mut rng, n);
                let g: [Vec<f64>; 2] =
                    std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect());
                let one = |k: usize| {
                    let mut leaf = [vec![0.0; n]];
                    let [tree] = Tree::fit_heads(
                        &mut Scratch::new(&binner, n),
                        (&binner, &binned),
                        [&g[k]],
                        &rows,
                        &mut leaf,
                    );
                    let [leaf] = leaf;
                    (tree, leaf)
                };
                let expect: Vec<(Tree, Vec<f64>)> = if two_heads {
                    let mut leaves = [vec![0.0; n], vec![0.0; n]];
                    let trees = Tree::fit_heads(
                        &mut scratch,
                        (&binner, &binned),
                        [&g[0], &g[1]],
                        &rows,
                        &mut leaves,
                    );
                    trees.into_iter().zip(leaves).collect()
                } else {
                    let mut leaves = [vec![0.0; n]];
                    let trees =
                        Tree::fit_heads(&mut scratch, (&binner, &binned), [&g[0]], &rows, &mut leaves);
                    trees.into_iter().zip(leaves).collect()
                };
                for (k, (tree, leaf)) in expect.iter().enumerate() {
                    let (alone, alone_leaf) = one(k);
                    let bits = |t: &Tree| {
                        let (f, th, l, r, g) = t.to_flat_parts();
                        let th: Vec<u64> = th.iter().map(|x| x.to_bits()).collect();
                        let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                        (f, th, l, r, g, t.depth)
                    };
                    prop_assert!(bits(tree) == bits(&alone), "head {k}: trees differ");
                    for &r in &rows {
                        prop_assert!(
                            leaf[r].to_bits() == alone_leaf[r].to_bits(),
                            "head {k} row {r}: leaves differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_bin_of_256_lands_in_its_own_slot() {
        // The wide column takes 1024 distinct values, so 256 bins put rows
        // in bin 255; the other is coarse. Whichever column comes second
        // starts right behind the other's last slot, so an off-by-one there
        // (or past the end of the buffer) breaks the reference comparison.
        let targets: Vec<f64> = (0..1024)
            .map(|i| if i >= 1020 { 50.0 } else { (i % 5) as f64 })
            .collect();
        let grads: Vec<f64> = targets.iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..1024).collect();
        for wide in [0, 1] {
            let rows: Vec<Vec<f64>> = (0..1024)
                .map(|i| {
                    let mut row = vec![((i * 7) % 5) as f64; 2];
                    row[wide] = i as f64;
                    row
                })
                .collect();
            let data = Dataset::from_rows(&rows, &targets);
            let binned = Binner::fit(&data, 256).transform(&data);
            assert_eq!(binned.bin(1023, wide), 255);
            let tree = check_against_reference(&data, &grads, 256, &indices).unwrap();
            let mut probe = [0.0; 2];
            probe[wide] = 1023.0;
            assert!(tree.predict(&probe) > 25.0);
        }
    }

    #[test]
    fn all_constant_columns_yield_a_single_leaf() {
        let rows = vec![vec![3.0, -1.0]; 40];
        let targets: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data);
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
            // A row subsample, as the boosters pass.
            let indices: Vec<usize> = (0..n).filter(|_| rng.gen_range(0u32..5) > 0).collect();
            prop_assume!(!indices.is_empty());
            let n_bins = [2, 32, 256][n_bins_pick];
            check_against_reference(&data, &grads, n_bins, &indices)?;
        }

        #[test]
        fn prop_prediction_bounded_by_target_range(
            pairs in proptest::collection::vec((-100.0f64..100.0, -50.0f64..50.0), 10..100),
            probe in -100.0f64..100.0,
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let tree = fit_on_targets(&data);
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
            let t1 = fit_on_targets(&data);
            let t2 = fit_on_targets(&data);
            for x in [0.0, 25.0, 50.0, 75.0, 100.0] {
                prop_assert_eq!(t1.predict(&[x]), t2.predict(&[x]));
            }
        }
    }
}
