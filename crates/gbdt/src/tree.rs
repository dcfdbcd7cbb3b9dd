//! Second-order regression trees with histogram split finding, and the one
//! walk that reads every forest.
//!
//! Trees are grown depth-first on per-sample gradients with the XGBoost gain
//! criterion
//!
//! ```text
//! gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)
//! ```
//!
//! and leaf weights `−G/(H+λ)`. Every loss this crate boosts has unit
//! hessians, so `H` is the row count. Split candidates are the boundaries
//! of the quantile bins `Cuts::fit` draws (a pool row's bin in a column
//! is its rank there, `Cuts::bin`): a split on bin `b` of column `c` sends a
//! row left iff `x[c] ≤ cuts[c][b]`.
//!
//! The grower is the standard histogram scheme: one row-major pass per node
//! fills a flat `(Σg, count)` histogram over the tree's non-constant columns;
//! after a split only the smaller child is filled from rows and its sibling
//! is `parent − smaller`; candidates are scored from a `1/(k+λ)` table, and
//! a column's scan stops at the first boundary that leaves its right side
//! too small. It grows one tree per boosting head on the same rows
//! (`fit_heads`): the root pass reads each row's bins once and adds
//! every head's gradient — each head's sums still in row order, so each
//! root histogram is bit for bit the one a pass for that head alone would
//! fill — and below the root each head grows alone. Placing a leaf writes
//! its weight for every row the partition brought there, which is the
//! weight a walk of the finished tree finds for that row; the boosting loop
//! reads it instead of walking the rows it grew on. All buffers live in a
//! `Scratch` that one boosting fit allocates once.
//!
//! Every forest is walked in one layout:
//!
//! * **Cut table.** Per column, the sorted cuts the forest's splits compare
//!   against: for a fitted model the quantile cuts its pool was binned
//!   on, for a decoded one the distinct thresholds its trees store.
//! * **Ranks.** A row is ranked once per table: `rank[c] = #{cuts < x[c]}`,
//!   NaN above every cut. A training row's rank is its bin.
//! * **Complete trees.** Each tree is a complete depth-[`MAX_DEPTH`] tree
//!   of 2-byte `(k, column)` nodes in heap order, its 2^`MAX_DEPTH` leaf
//!   weights beside them. A leaf grown shallower sits at its leftmost
//!   descendant, and the padding nodes above it (`k = 255`) step left.
//! * **One walk.** Up to [`LANES`] (tree, ranked row) chains step in
//!   lockstep, each exactly `MAX_DEPTH` steps of `c = 2c + (rank[col] > k)`:
//!   one row across [`LANES`] trees when fewer rows than [`LANES`] meet
//!   several trees, else one tree across [`LANES`] rows. A single row and a
//!   batch take this one walk, and each row meets the trees in order.
//!
//! The step is exact: for cuts sorted ascending, `x ≤ cuts[k] ⇔
//! #{cuts < x} ≤ k` (ties and −0.0 included), and NaN, ranked above every
//! cut, goes right at every split as `NaN <= t` does. So a column holds at
//! most [`MAX_CUTS`] cuts and a node addresses [`MAX_COLS`] columns.
//!
//! A [`Tree`] is one tree in the artefact store's arena form (five parallel
//! arrays, [`Tree::to_flat_parts`]): models export their trees to it and are
//! rebuilt from it, and no model walks it.

use crate::dataset::{BinnedDataset, Dataset};
use serde::{Deserialize, Serialize, Value};
use std::ops::Range;

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
/// Columns a node can address: its column is one byte. The grower never
/// splits on a later column.
pub const MAX_COLS: usize = 1 << 8;
/// Most distinct cuts one column of a cut table holds: a rank (0 to the
/// cut count) fits a byte, and `k = 255` is left to padding.
pub const MAX_CUTS: usize = u8::MAX as usize;

/// Leaf slots of a complete tree, and its node slots: nodes `1` to
/// `LEAVES − 1` are the splits of depths 0 to `MAX_DEPTH − 1`.
const LEAVES: usize = 1 << MAX_DEPTH;

/// One node of a complete tree: a row goes right iff its rank in `col`
/// exceeds `k`, i.e. iff its value exceeds cut `k` of that column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    k: u8,
    col: u8,
}

const _: () = assert!(std::mem::size_of::<Node>() == 2);

/// A padding node: no rank exceeds 255, so it always steps left.
const PAD: Node = Node { k: u8::MAX, col: 0 };

impl Node {
    fn is_pad(self) -> bool {
        self.k == u8::MAX
    }
}

/// One tree as the kernel walks it, numbered as a heap from 1: node `c`'s
/// children are `2c` (left) and `2c + 1`, and `MAX_DEPTH` steps from the
/// root (node 1) land on `LEAVES + i`, whose weight is `leaves[i]`. Slot 0
/// is never read. The non-padding nodes are exactly the tree's splits:
/// nothing is written below a leaf.
#[derive(Debug, Clone)]
struct Complete {
    nodes: [Node; LEAVES],
    leaves: [f64; LEAVES],
}

impl Complete {
    /// All padding: the single leaf `leaves[0]`.
    const EMPTY: Complete = Complete {
        nodes: [PAD; LEAVES],
        leaves: [0.0; LEAVES],
    };

    fn n_splits(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_pad()).count()
    }
}

/// The leaf slot a walk reaches from node `c` at `depth` by stepping left
/// until `MAX_DEPTH`: where a leaf placed at `c` keeps its weight.
fn leftmost(c: usize, depth: usize) -> usize {
    (c << (MAX_DEPTH - depth)) - LEAVES
}

/// A row's ranks in every column a node can address.
pub(crate) type Ranks = [u8; MAX_COLS];

/// A ranked row as the kernel reads it.
pub(crate) trait Ranked {
    /// The row's rank in column `col`.
    fn rank(&self, col: u8) -> u8;
}

impl Ranked for Ranks {
    #[inline]
    fn rank(&self, col: u8) -> u8 {
        self[usize::from(col)]
    }
}

/// A binned training row, whose bins are its ranks on the table that
/// binned it; a column past the row ranks 0, so padding still steps left.
impl Ranked for [u8] {
    #[inline]
    fn rank(&self, col: u8) -> u8 {
        self.get(usize::from(col)).copied().unwrap_or(0)
    }
}

/// Which way a run of leaf weights from [`Forest::walk`] goes: one row's
/// leaves in consecutive trees, or one tree's for consecutive rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Along {
    Trees,
    Rows,
}

/// The kernel. Walks `out.len()` (1 to [`LANES`]) chains in lockstep,
/// chain `j` being tree `chain(j).0` on ranked row `chain(j).1`, and writes
/// each chain's leaf weight to `out[j]`. Every chain takes `MAX_DEPTH`
/// steps `c = 2c + (rank[col] > k)`, so no branch depends on the data. The
/// step loop always runs [`LANES`] chains, a fixed trip count the compiler
/// unrolls; a shorter call repeats its last chain in the spare lanes and
/// writes nothing for them.
#[inline]
fn kernel<'t, 'r, R: Ranked + ?Sized + 'r>(
    out: &mut [f64],
    chain: impl Fn(usize) -> (&'t Complete, &'r R),
) {
    let last = out.len().saturating_sub(1);
    let chains: [(&Complete, &R); LANES] = std::array::from_fn(|j| chain(j.min(last)));
    let mut at = [1usize; LANES];
    for _ in 0..MAX_DEPTH {
        for (c, (tree, rank)) in at.iter_mut().zip(&chains) {
            // Below `LEAVES` until the last step, so the mask changes nothing.
            let node = tree.nodes[*c % LEAVES];
            *c = 2 * *c + usize::from(rank.rank(node.col) > node.k);
        }
    }
    for (o, (&c, (tree, _))) in out.iter_mut().zip(at.iter().zip(&chains)) {
        // `c` is `LEAVES + i` for leaf `i`.
        *o = tree.leaves[c % LEAVES];
    }
}

/// [`Forest::walk`] along the rows: `tree` (the forest's tree `t`) for
/// `n` ranked rows, [`LANES`] per kernel call. Kept out of line: inlined
/// beside the walk along the trees, it made a 64-row batch ≈ 10 % slower.
fn along_rows<'r, R: Ranked + ?Sized + 'r>(
    tree: &Complete,
    t: usize,
    n: usize,
    rank: impl Fn(usize) -> &'r R,
    mut put: impl FnMut(Along, usize, usize, &[f64]),
) {
    let mut out = [0.0; LANES];
    let full = n - n % LANES;
    for i in (0..full).step_by(LANES) {
        kernel(&mut out, |j| (tree, rank(i + j)));
        put(Along::Rows, i, t, &out);
    }
    if full < n {
        let out = &mut out[..n - full];
        kernel(out, |j| (tree, rank(full + j)));
        put(Along::Rows, full, t, out);
    }
}

/// Per column, the sorted cuts a forest's splits compare against.
#[derive(Debug, Clone)]
pub(crate) struct Cuts {
    /// Every column's cuts end to end, each column's ascending.
    cuts: Vec<f64>,
    /// Column `c`'s cuts are `cuts[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl Cuts {
    /// One column per entry of `columns`, each sorted ascending and of at
    /// most [`MAX_CUTS`] cuts; at most [`MAX_COLS`] columns.
    fn from_columns<'a>(columns: impl Iterator<Item = &'a [f64]>) -> Self {
        let mut cuts = Vec::new();
        let mut starts = vec![0];
        for col in columns.take(MAX_COLS) {
            debug_assert!(col.len() <= MAX_CUTS && col.is_sorted_by(|a, b| a <= b));
            cuts.extend_from_slice(col);
            starts.push(cuts.len());
        }
        Cuts { cuts, starts }
    }

    /// The table a model grows on: at most `n_bins − 1` quantile cuts per
    /// column of `data` (its first [`MAX_COLS`]). The column is sorted with
    /// `total_cmp`, so a NaN sorts last instead of aborting a serving
    /// retrain; the values at positions `k·n/n_bins`, `k` in `1..n_bins`,
    /// are its cuts, less a repeat (by `==`, so −0.0 and 0.0 are one cut)
    /// and any value not above the column's least.
    ///
    /// # Panics
    /// Panics if `n_bins` is outside `2..=MAX_CUTS + 1` or `data` is empty.
    pub(crate) fn fit(data: &Dataset, n_bins: usize) -> Self {
        // Never fires on a serving path: every model bins into `gbm::N_BINS`.
        assert!(
            (2..=MAX_CUTS + 1).contains(&n_bins),
            "n_bins must be in 2..=256"
        );
        assert!(!data.is_empty(), "cannot bin an empty dataset");
        let n = data.n_rows();
        let mut cuts = Vec::new();
        let mut starts = vec![0];
        let mut col = vec![0.0f64; n];
        for c in 0..data.n_cols().min(MAX_COLS) {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = data.row(r)[c];
            }
            col.sort_by(f64::total_cmp);
            let start = cuts.len();
            for k in 1..n_bins {
                let v = col[(k * n / n_bins).min(n - 1)];
                if cuts[start..].last() != Some(&v) && v > col[0] {
                    cuts.push(v);
                }
            }
            starts.push(cuts.len());
        }
        // The table lives as long as the model: keep no spare capacity.
        cuts.shrink_to_fit();
        Cuts { cuts, starts }
    }

    /// Every row of `data` ranked on this table by [`Cuts::rank`], so a
    /// pool row's bins are its ranks by construction.
    pub(crate) fn bin(&self, data: &Dataset) -> BinnedDataset {
        let n_cols = self.starts.len() - 1;
        let mut bins = Vec::with_capacity(data.n_rows() * n_cols);
        for r in 0..data.n_rows() {
            bins.extend_from_slice(&self.rank(data.row(r))[..n_cols]);
        }
        BinnedDataset::new(n_cols, data.n_rows(), bins)
    }

    /// The table of decoded trees: per column, the distinct thresholds
    /// (bit for bit, so −0.0 and 0.0 are two) of every split their roots
    /// reach, ascending. `None` if a column has more than [`MAX_CUTS`].
    fn of_trees<'a>(trees: impl Iterator<Item = &'a Tree>) -> Option<Self> {
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for tree in trees {
            tree.each_reached_split(0, &mut |col, threshold| {
                if columns.len() <= col {
                    columns.resize_with(col + 1, Vec::new);
                }
                columns[col].push(threshold);
            });
        }
        for col in &mut columns {
            col.sort_by(f64::total_cmp);
            col.dedup_by(|a, b| a.to_bits() == b.to_bits());
            if col.len() > MAX_CUTS {
                return None;
            }
        }
        Some(Self::from_columns(columns.iter().map(Vec::as_slice)))
    }

    /// `row`'s ranks: `#{cuts < x}` per column of the table, NaN above
    /// every cut; 0 for columns past the table or the row.
    pub(crate) fn rank(&self, row: &[f64]) -> Ranks {
        let mut rank = [0; MAX_COLS];
        for ((r, &x), w) in rank.iter_mut().zip(row).zip(self.starts.windows(2)) {
            let cuts = &self.cuts[w[0]..w[1]];
            let below = if x.is_nan() {
                cuts.len()
            } else {
                cuts.partition_point(|&c| c < x)
            };
            *r = below as u8;
        }
        rank
    }

    /// Column `col`'s cuts, if the table has that column.
    pub(crate) fn column(&self, col: usize) -> Option<&[f64]> {
        let (&lo, &hi) = (self.starts.get(col)?, self.starts.get(col + 1)?);
        Some(&self.cuts[lo..hi])
    }

    /// The index of `threshold`'s exact bits among column `col`'s cuts.
    fn k_of(&self, col: usize, threshold: f64) -> Option<u8> {
        let cuts = self.column(col)?;
        let k = cuts.partition_point(|c| c.total_cmp(&threshold).is_lt());
        let hit = cuts.get(k)?.to_bits() == threshold.to_bits();
        hit.then_some(k as u8)
    }

    /// Cut `k` of column `col`: the threshold of a split node.
    fn cut(&self, node: Node) -> f64 {
        self.column(usize::from(node.col))
            .and_then(|cuts| cuts.get(usize::from(node.k)))
            .copied()
            .unwrap_or(f64::NAN)
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.cuts.len() * std::mem::size_of::<f64>()
            + self.starts.len() * std::mem::size_of::<usize>()
    }
}

/// Trees in the walked layout — one head's, or an NGBoost member's two
/// heads one after the other — over a [`Cuts`] table that the model
/// holding them keeps.
#[derive(Debug, Clone, Default)]
pub(crate) struct Forest {
    trees: Vec<Complete>,
    /// Every split's gain, tree by tree, each tree's in preorder: read only
    /// by feature importance and export, so it stays out of the walk.
    gains: Vec<f64>,
}

impl Forest {
    /// Lays `trees` out on `cuts`; `None` if a split's threshold is not
    /// one of the table's cuts.
    fn on(cuts: &Cuts, trees: &[Tree]) -> Option<Self> {
        let mut forest = Forest {
            trees: Vec::with_capacity(trees.len()),
            gains: Vec::new(),
        };
        for tree in trees {
            let mut complete = Complete::EMPTY;
            tree.unroll(0, 1, 0, cuts, &mut complete, &mut forest.gains)?;
            forest.trees.push(complete);
        }
        Some(forest)
    }

    /// Number of trees.
    pub(crate) fn len(&self) -> usize {
        self.trees.len()
    }

    /// Keeps the first `n` trees.
    pub(crate) fn truncate(&mut self, n: usize) {
        let kept = self.trees.iter().take(n).map(Complete::n_splits).sum();
        self.trees.truncate(n);
        self.gains.truncate(kept);
    }

    /// Puts `other`'s trees after this forest's, so one walk takes both.
    pub(crate) fn append(&mut self, mut other: Forest) {
        self.trees.append(&mut other.trees);
        self.gains.append(&mut other.gains);
    }

    /// The gains of the trees in `range`.
    fn gains_of(&self, range: Range<usize>) -> &[f64] {
        let splits = |trees: &[Complete]| trees.iter().map(Complete::n_splits).sum::<usize>();
        let before = splits(&self.trees[..range.start]);
        &self.gains[before..before + splits(&self.trees[range])]
    }

    /// The leaf weight of every tree of `trees` for `n` ranked rows,
    /// `rank(i)` being row `i`'s ranks, handed to `put(along, i, t, w)` in
    /// runs of up to [`LANES`]: `w[j]` is row `i`'s leaf in tree `t + j`
    /// along the trees, row `i + j`'s in tree `t` along the rows. Fewer rows
    /// than [`LANES`] on more than one tree go along the trees, else along
    /// the rows, tree by tree; full chunks are walked as arrays.
    #[inline]
    pub(crate) fn walk<'r, R: Ranked + ?Sized + 'r>(
        &self,
        trees: Range<usize>,
        n: usize,
        rank: impl Fn(usize) -> &'r R,
        mut put: impl FnMut(Along, usize, usize, &[f64]),
    ) {
        let first = trees.start;
        let trees = &self.trees[trees];
        if n < LANES && trees.len() > 1 {
            let mut out = [0.0; LANES];
            let (full, rest) = trees.as_chunks::<LANES>();
            for i in 0..n {
                let rank = rank(i);
                for (c, ts) in full.iter().enumerate() {
                    kernel(&mut out, |j| (&ts[j], rank));
                    put(Along::Trees, i, first + c * LANES, &out);
                }
                if !rest.is_empty() {
                    let out = &mut out[..rest.len()];
                    kernel(out, |j| (&rest[j], rank));
                    put(Along::Trees, i, first + full.len() * LANES, out);
                }
            }
        } else {
            for (t, tree) in (first..).zip(trees) {
                along_rows(tree, t, n, &rank, &mut put);
            }
        }
    }

    /// Adds each split's gain in the trees of `range` to `into[column]`,
    /// tree by tree in preorder (gain-based feature importance, as reported
    /// by XGBoost's `total_gain`).
    ///
    /// # Panics
    /// Panics if a split references a column outside `into`.
    pub(crate) fn accumulate_importance(&self, range: Range<usize>, into: &mut [f64]) {
        let mut gains = self.gains_of(range.clone()).iter();
        for tree in &self.trees[range] {
            splits_in_preorder(tree, 1, 0, &mut |node| {
                into[usize::from(node.col)] += gains.next().map_or(0.0, |g| g.max(0.0));
            });
        }
    }

    /// The trees of `range` in the artefact store's arena form, thresholds
    /// read from `cuts`.
    pub(crate) fn export<'a>(&'a self, cuts: &'a Cuts, range: Range<usize>) -> Trees<'a> {
        Trees {
            cuts,
            gains: self.gains_of(range.clone()),
            trees: &self.trees[range],
        }
    }

    /// Bytes the trees and gains occupy on the heap.
    pub(crate) fn size_bytes(&self) -> usize {
        self.trees.len() * std::mem::size_of::<Complete>()
            + self.gains.len() * std::mem::size_of::<f64>()
    }
}

/// Calls `f` on every split of the subtree at node `c` (at `depth`), in
/// preorder.
fn splits_in_preorder(tree: &Complete, c: usize, depth: usize, f: &mut impl FnMut(Node)) {
    if depth == MAX_DEPTH || tree.nodes[c].is_pad() {
        return;
    }
    f(tree.nodes[c]);
    splits_in_preorder(tree, 2 * c, depth + 1, f);
    splits_in_preorder(tree, 2 * c + 1, depth + 1, f);
}

/// Lays decoded heads out on one cut table built from all their
/// thresholds, so a row is ranked once for every head. `None` if a column
/// would hold more than [`MAX_CUTS`] distinct cuts.
pub(crate) fn lay_out(heads: &[&[Tree]]) -> Option<(Cuts, Vec<Forest>)> {
    let cuts = Cuts::of_trees(heads.iter().flat_map(|h| h.iter()))?;
    let forests = heads
        .iter()
        .map(|h| Forest::on(&cuts, h))
        .collect::<Option<Vec<_>>>()?;
    Some((cuts, forests))
}

/// A head's trees in the artefact store's arena form, each built when the
/// iteration reaches it: one [`Tree`] per fitted tree, node for node the
/// arena the grower's preorder would have written.
#[derive(Debug, Clone, Copy)]
pub struct Trees<'a> {
    cuts: &'a Cuts,
    trees: &'a [Complete],
    /// The trees' gains, tree by tree.
    gains: &'a [f64],
}

impl<'a> Trees<'a> {
    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the head has no tree.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The trees, in boosting order.
    pub fn iter(&self) -> TreeIter<'a> {
        TreeIter {
            cuts: self.cuts,
            trees: self.trees.iter(),
            gains: self.gains,
        }
    }
}

impl<'a> IntoIterator for Trees<'a> {
    type Item = Tree;
    type IntoIter = TreeIter<'a>;

    fn into_iter(self) -> TreeIter<'a> {
        self.iter()
    }
}

/// The iterator of [`Trees`].
#[derive(Debug, Clone)]
pub struct TreeIter<'a> {
    cuts: &'a Cuts,
    trees: std::slice::Iter<'a, Complete>,
    /// The gains of the trees not yet exported.
    gains: &'a [f64],
}

impl Iterator for TreeIter<'_> {
    type Item = Tree;

    fn next(&mut self) -> Option<Tree> {
        let complete = self.trees.next()?;
        let (gains, rest) = self
            .gains
            .split_at(complete.n_splits().min(self.gains.len()));
        self.gains = rest;
        let mut tree = Tree {
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            gain: Vec::new(),
        };
        tree.export(complete, self.cuts, &mut gains.iter().copied(), 1, 0);
        Some(tree)
    }
}

/// One tree in the artefact store's arena form: node `i` of the arena at
/// index `i` of five parallel arrays. A split goes left iff
/// `x[feature] <= threshold` (NaN goes right) to child `left`, else to
/// `right`; children follow their parent. A leaf is `feature = u32::MAX`
/// with its weight in the threshold slot, zero children and zero gain.
///
/// Only what the walked layout holds exactly is a `Tree`: every split's
/// threshold is a number, its feature below [`MAX_COLS`], and no leaf the
/// root reaches is deeper than [`MAX_DEPTH`]. Models export their trees to
/// this form and are rebuilt from it; no model walks it. Its serde image
/// is part of a [`crate::Gbm`]'s, which `tests/exactness.rs` reads back to
/// hash the trees.
#[derive(Debug, Clone, Serialize)]
pub struct Tree {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    gain: Vec<f64>,
}

impl Tree {
    /// The five parallel arrays `(feature, threshold, left, right, gain)`.
    /// The inverse is [`Tree::from_flat_parts`]; a round trip is bit-exact.
    pub fn to_flat_parts(&self) -> FlatParts {
        self.clone().into_flat_parts()
    }

    /// [`Tree::to_flat_parts`], moving the arrays out.
    pub fn into_flat_parts(self) -> FlatParts {
        (
            self.feature,
            self.threshold,
            self.left,
            self.right,
            self.gain,
        )
    }

    /// Rebuilds a tree from [`Tree::to_flat_parts`] arrays. Returns `None`
    /// on what the walked layout cannot hold exactly or on malformed
    /// input: mismatched lengths, zero nodes, a leaf with children, a
    /// split child index that is out of bounds or not strictly greater
    /// than its parent (the arena is built depth-first, so children always
    /// follow their parent), a split on a feature past [`MAX_COLS`] or at a
    /// NaN threshold, or a leaf the root reaches deeper than [`MAX_DEPTH`]
    /// (a child two parents share counts at the deeper of the two;
    /// unreachable nodes count for nothing).
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
        for i in 0..n {
            let (l, r) = (left[i] as usize, right[i] as usize);
            let ok = if feature[i] == u32::MAX {
                l == 0 && r == 0
            } else {
                l > i
                    && r > i
                    && l < n
                    && r < n
                    && (feature[i] as usize) < MAX_COLS
                    && !threshold[i].is_nan()
            };
            if !ok {
                return None;
            }
        }
        let tree = Tree {
            feature: feature.to_vec(),
            threshold: threshold.to_vec(),
            left: left.to_vec(),
            right: right.to_vec(),
            gain: gain.to_vec(),
        };
        (tree.reached_depth() <= MAX_DEPTH).then_some(tree)
    }

    /// The longest path from the root to a leaf it reaches. Children
    /// strictly follow their parent, so one pass in arena order finalizes
    /// each reached node's depth before its children read it.
    fn reached_depth(&self) -> usize {
        let n = self.feature.len();
        let mut reached: Vec<Option<usize>> = vec![None; n];
        reached[0] = Some(0);
        let mut depth = 0;
        for i in 0..n {
            let Some(d) = reached[i] else { continue };
            if self.feature[i] == u32::MAX {
                depth = depth.max(d);
            } else {
                for k in [self.left[i], self.right[i]] {
                    let kid = &mut reached[k as usize];
                    *kid = Some(kid.map_or(d + 1, |e| e.max(d + 1)));
                }
            }
        }
        depth
    }

    /// Calls `f(feature, threshold)` on every split the subtree at node `i`
    /// reaches (a shared child once per path to it).
    fn each_reached_split(&self, i: usize, f: &mut impl FnMut(usize, f64)) {
        if self.feature[i] == u32::MAX {
            return;
        }
        f(self.feature[i] as usize, self.threshold[i]);
        self.each_reached_split(self.left[i] as usize, f);
        self.each_reached_split(self.right[i] as usize, f);
    }

    /// Writes the subtree at arena node `i` into `out` at heap node `c`,
    /// `depth` deep, its split gains onto `gains` in preorder; a shared
    /// child is written once per path to it, an unreachable node not at
    /// all. `None` if a threshold is not one of `cuts`.
    fn unroll(
        &self,
        i: usize,
        c: usize,
        depth: usize,
        cuts: &Cuts,
        out: &mut Complete,
        gains: &mut Vec<f64>,
    ) -> Option<()> {
        if self.feature[i] == u32::MAX {
            *out.leaves.get_mut(leftmost(c, depth))? = self.threshold[i];
            return Some(());
        }
        let col = u8::try_from(self.feature[i]).ok()?;
        let k = cuts.k_of(usize::from(col), self.threshold[i])?;
        *out.nodes.get_mut(c)? = Node { k, col };
        gains.push(self.gain[i]);
        self.unroll(self.left[i] as usize, 2 * c, depth + 1, cuts, out, gains)?;
        self.unroll(
            self.right[i] as usize,
            2 * c + 1,
            depth + 1,
            cuts,
            out,
            gains,
        )
    }

    /// Appends the subtree at heap node `c` of `tree` (at `depth`) in
    /// preorder, each split's threshold read from `cuts` and its gain from
    /// `gains`, and returns its arena index.
    fn export(
        &mut self,
        tree: &Complete,
        cuts: &Cuts,
        gains: &mut impl Iterator<Item = f64>,
        c: usize,
        depth: usize,
    ) -> u32 {
        let at = self.feature.len();
        let node = if depth < MAX_DEPTH {
            tree.nodes[c]
        } else {
            PAD
        };
        if node.is_pad() {
            self.feature.push(u32::MAX);
            self.threshold.push(tree.leaves[leftmost(c, depth)]);
            self.left.push(0);
            self.right.push(0);
            self.gain.push(0.0);
        } else {
            self.feature.push(u32::from(node.col));
            self.threshold.push(cuts.cut(node));
            self.left.push(0);
            self.right.push(0);
            self.gain.push(gains.next().unwrap_or(0.0));
            let left = self.export(tree, cuts, gains, 2 * c, depth + 1);
            let right = self.export(tree, cuts, gains, 2 * c + 1, depth + 1);
            self.left[at] = left;
            self.right[at] = right;
        }
        at as u32
    }

    /// The leaf weight for a raw (unbinned) feature row: this tree laid out
    /// alone on the cuts of its own thresholds, the row ranked on them and
    /// walked by the one kernel. For tools and tests; a model walks its
    /// own forest.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let Some((cuts, forests)) = lay_out(&[std::slice::from_ref(self)]) else {
            return f64::NAN;
        };
        let mut leaf = f64::NAN;
        if let Some(forest) = forests.first() {
            let rank = cuts.rank(row);
            forest.walk(0..1, 1, |_| &rank, |_, _, _, w| leaf = w[0]);
        }
        leaf
    }
}

/// The serde image is the five arrays; reading one back goes through
/// [`Tree::from_flat_parts`], so a deserialized tree is one a model can
/// lay out.
impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = serde::expect_object(v, "Tree")?;
        let feature: Vec<u32> = serde::de_field(obj, "feature", "Tree")?;
        let threshold: Vec<f64> = serde::de_field(obj, "threshold", "Tree")?;
        let left: Vec<u32> = serde::de_field(obj, "left", "Tree")?;
        let right: Vec<u32> = serde::de_field(obj, "right", "Tree")?;
        let gain: Vec<f64> = serde::de_field(obj, "gain", "Tree")?;
        Tree::from_flat_parts(&feature, &threshold, &left, &right, &gain)
            .ok_or_else(|| serde::Error::custom("Tree: arrays the walked layout cannot hold"))
    }
}

/// Grows one tree per head over the same non-empty `rows` (at most the
/// `max_rows` `scratch` was made for), head `k` on `grads[k]` with unit
/// hessians, searching every column below [`MAX_COLS`] for splits; pushes
/// head `k`'s tree onto `heads[k]`, whose cut table is the one that
/// binned `binned`, and writes the leaf weight each of `rows` gets in
/// it to `leaves[k][row]`. The root histograms of all heads come from one
/// pass over the rows; below the root each head grows alone. Every buffer
/// is `scratch`'s, so a fit of many rounds allocates them once.
pub(crate) fn fit_heads<const K: usize>(
    scratch: &mut Scratch,
    binned: &BinnedDataset,
    grads: [&[f64]; K],
    rows: &[usize],
    leaves: &mut [Vec<f64>; K],
    heads: &mut [Forest; K],
) {
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
    for (k, head) in heads.iter_mut().enumerate() {
        let g_sum: f64 = rows.iter().map(|&r| grads[k][r]).sum();
        idx.clear();
        idx.extend_from_slice(rows);
        let mut grower = Grower {
            binned,
            grads: grads[k],
            active,
            total_bins: *total_bins,
            inv,
            free,
            spill,
            leaf: &mut leaves[k],
            tree: Complete::EMPTY,
            gains: &mut head.gains,
        };
        grower.build(idx, g_sum, 0, roots[k].take(), 1);
        let tree = grower.tree;
        head.trees.push(tree);
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
    /// Buffers for trees over at most `max_rows` rows binned by `cuts`.
    pub(crate) fn new(cuts: &Cuts, max_rows: usize) -> Self {
        let mut active = Vec::with_capacity(cuts.starts.len() - 1);
        let mut total_bins = 0;
        for (col, w) in cuts.starts.windows(2).enumerate() {
            let n_bins = w[1] - w[0] + 1;
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
    grads: &'a [f64],
    active: &'a [ActiveCol],
    total_bins: usize,
    inv: &'a [f64],
    free: &'a mut Vec<Vec<Bin>>,
    spill: &'a mut [usize],
    /// Each grown row's leaf weight, by row.
    leaf: &'a mut [f64],
    /// The tree being grown: a split's `k` is its bin, which is its cut's
    /// index in the head's table.
    tree: Complete,
    /// The head's gains, this tree's appended in preorder.
    gains: &'a mut Vec<f64>,
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

    /// Places the leaf over `rows` at heap node `c` (at `depth`) and
    /// writes its weight as each row's.
    fn place_leaf(&mut self, rows: &[usize], g_sum: f64, c: usize, depth: usize) {
        let weight = -g_sum / (rows.len() as f64 + LAMBDA);
        for &r in rows {
            self.leaf[r] = weight;
        }
        self.tree.leaves[leftmost(c, depth)] = weight;
    }

    /// Recursively builds the subtree over `idx` at heap node `c` (at
    /// `depth`), partitioning `idx` in place. `g_sum` is the rows' gradient
    /// sum; `hist` their histogram, `None` iff the node is terminal.
    fn build(
        &mut self,
        idx: &mut [usize],
        g_sum: f64,
        depth: usize,
        hist: Option<Vec<Bin>>,
        c: usize,
    ) {
        let n = idx.len();
        let Some(hist) = hist else {
            return self.place_leaf(idx, g_sum, c, depth);
        };
        let Some(split) = self.best_split(&hist, g_sum, n) else {
            self.free.push(hist);
            return self.place_leaf(idx, g_sum, c, depth);
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

        // `Scratch::new` takes no column past `MAX_COLS`, and a split's bin
        // is below the column's last, so below `MAX_CUTS`.
        self.tree.nodes[c] = Node {
            k: split.bin,
            col: split.col as u8,
        };
        self.gains.push(split.gain);
        self.build(left_rows, split.g_left, depth + 1, hist_left, 2 * c);
        self.build(
            right_rows,
            g_sum - split.g_left,
            depth + 1,
            hist_right,
            2 * c + 1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    impl Tree {
        /// A single-leaf tree with a constant output.
        fn constant(weight: f64) -> Self {
            Tree::from_flat_parts(&[u32::MAX], &[weight], &[0], &[0], &[0.0]).unwrap()
        }

        fn n_nodes(&self) -> usize {
            self.feature.len()
        }

        fn n_leaves(&self) -> usize {
            self.feature.iter().filter(|&&f| f == u32::MAX).count()
        }

        /// The walk this module used before the complete layout: follow
        /// the arena's children until a leaf. The reference the kernel is
        /// held to.
        fn reference_predict(&self, row: &[f64]) -> f64 {
            let mut i = 0usize;
            loop {
                if self.feature[i] == u32::MAX {
                    return self.threshold[i];
                }
                i = if row[self.feature[i] as usize] <= self.threshold[i] {
                    self.left[i] as usize
                } else {
                    self.right[i] as usize
                };
            }
        }

        /// One head of [`fit_heads`] with buffers of its own, exported.
        fn fit(binned: &BinnedDataset, cuts: &Cuts, grads: &[f64], rows: &[usize]) -> Self {
            let mut leaf = [vec![0.0; grads.len()]];
            let mut heads = [Forest::default()];
            let mut scratch = Scratch::new(cuts, rows.len());
            fit_heads(&mut scratch, binned, [grads], rows, &mut leaf, &mut heads);
            heads[0].export(cuts, 0..1).iter().next().unwrap()
        }
    }

    impl Cuts {
        /// Column `c`'s bin count: its cuts, and one.
        pub(crate) fn n_bins(&self, c: usize) -> usize {
            self.column(c).unwrap().len() + 1
        }

        /// The bin of `x` in column `c`: its rank there.
        pub(crate) fn bin_of(&self, c: usize, x: f64) -> u8 {
            let mut row = vec![0.0; c + 1];
            row[c] = x;
            self.rank(&row)[c]
        }
    }

    /// Fits a tree directly on squared-error gradients of targets
    /// (pred = 0 start, grad = -y): the leaf weights then equal regularized
    /// leaf means of y.
    fn fit_on_targets(data: &Dataset) -> Tree {
        let cuts = Cuts::fit(data, 32);
        let binned = cuts.bin(data);
        let grads: Vec<f64> = data.targets().iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Tree::fit(&binned, &cuts, &grads, &indices)
    }

    /// The split search this file used before histogram subtraction, kept
    /// as the optimality oracle: per column a strided pass over `rows` into
    /// three 256-slot arrays, then two divisions per candidate bin. Returns
    /// the best `(feature, bin, gain)`.
    fn reference_best_split(
        binned: &BinnedDataset,
        cuts: &Cuts,
        grads: &[f64],
        rows: &[usize],
    ) -> Option<(usize, u8, f64)> {
        let g_sum: f64 = rows.iter().map(|&r| grads[r]).sum();
        let h_sum = rows.len() as f64;
        let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
        let mut best: Option<(usize, u8, f64)> = None;
        let mut hist_g = [0.0f64; MAX_CUTS + 1];
        let mut hist_h = [0.0f64; MAX_CUTS + 1];
        let mut hist_c = [0usize; MAX_CUTS + 1];

        for c in 0..cuts.starts.len() - 1 {
            let n_bins = cuts.n_bins(c);
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
        cuts: &'a Cuts,
        grads: &'a [f64],
        /// Σ|g| over the root's rows: prefix sums and subtracted histograms
        /// carry rounding error on that scale down to every leaf.
        g_scale: f64,
    }

    impl Fitted<'_> {
        /// Walks the subtree at arena node `node` with the training rows
        /// that reach it and checks every split and leaf against the
        /// reference.
        fn check(&self, node: u32, rows: &[usize], depth: usize) -> Result<(), TestCaseError> {
            let n = rows.len();
            let g_sum: f64 = rows.iter().map(|&r| self.grads[r]).sum();
            let reference = reference_best_split(self.binned, self.cuts, self.grads, rows);
            let must_be_leaf = depth >= MAX_DEPTH || n < 2 * MIN_CHILD;
            let at = node as usize;
            let t = self.tree;
            let (feature, threshold) = (t.feature[at], t.threshold[at]);
            if feature == u32::MAX {
                let weight = threshold;
                let want = -g_sum / (n as f64 + LAMBDA);
                let tol = 1e-12 * self.g_scale / (n as f64 + LAMBDA);
                prop_assert!(
                    (weight - want).abs() <= tol,
                    "leaf weight {weight} != {want} over {n} rows"
                );
                prop_assert!(depth <= MAX_DEPTH, "leaf below the deepest level");
                if let (false, Some((_, _, best))) = (must_be_leaf, reference) {
                    // Only a gain the two roundings disagree on may be left unsplit.
                    prop_assert!(
                        best <= MIN_GAIN + 1e-9 * self.g_scale.max(1.0),
                        "leaf over {n} rows although the reference gains {best}"
                    );
                }
            } else {
                let gain = t.gain[at];
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
                self.check(t.left[at], &l, depth + 1)?;
                self.check(t.right[at], &r, depth + 1)?;
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
        let cuts = Cuts::fit(data, n_bins);
        let binned = cuts.bin(data);
        let tree = Tree::fit(&binned, &cuts, grads, indices);
        Fitted {
            tree: &tree,
            data,
            binned: &binned,
            cuts: &cuts,
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
        assert_eq!(tree.reached_depth(), MAX_DEPTH, "the depth cap never bound");
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

    /// Each tree's leaf weight for `rank`, by its bits.
    fn leaf_bits(forest: &Forest, rank: &Ranks) -> Vec<u64> {
        let mut bits = Vec::new();
        forest.walk(
            0..forest.len(),
            1,
            |_| rank,
            |_, _, _, w| {
                bits.extend(w.iter().map(|w| w.to_bits()));
            },
        );
        bits
    }

    /// Walks the trees of `range` over the first `n` of `ranks` and checks
    /// that each row meets every tree once, in tree order, at the leaf
    /// `want[tree][row]` holds the bits of, and that the walk goes along
    /// the trees exactly when there are fewer rows than [`LANES`] and more
    /// than one tree.
    fn check_walk(
        forest: &Forest,
        range: Range<usize>,
        ranks: &[Ranks],
        n: usize,
        want: &[Vec<u64>],
    ) -> Result<(), TestCaseError> {
        let along_trees = n < LANES && range.len() > 1;
        let mut got = vec![Vec::new(); n];
        let mut lane_order = true;
        forest.walk(
            range.clone(),
            n,
            |i| &ranks[i],
            |along, i, t, w| {
                lane_order &= (along == Along::Trees) == along_trees;
                for (j, w) in w.iter().enumerate() {
                    let (i, t) = match along {
                        Along::Trees => (i, t + j),
                        Along::Rows => (i + j, t),
                    };
                    got[i].push((t, w.to_bits()));
                }
            },
        );
        prop_assert!(lane_order, "trees {range:?} on {n} rows: lane order");
        for (i, got) in got.iter().enumerate() {
            let expect: Vec<(usize, u64)> = range.clone().map(|t| (t, want[t][i])).collect();
            prop_assert!(*got == expect, "trees {range:?} on {n} rows: row {i}");
        }
        Ok(())
    }

    /// Every word of a tree's flat parts, floats by their bits.
    fn part_bits(tree: &Tree) -> Vec<u64> {
        let (f, t, l, r, g) = tree.to_flat_parts();
        let words = |v: Vec<u32>| v.into_iter().map(u64::from);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits);
        words(f)
            .chain(bits(t))
            .chain(words(l))
            .chain(words(r))
            .chain(bits(g))
            .collect()
    }

    /// A grown forest exports arenas that rebuild bit for bit, and laid
    /// out again on the cuts of their own thresholds (the decode path)
    /// they export the same arenas, walk to the same leaves and sum the
    /// same importance as on the quantile cuts they grew on.
    #[test]
    fn flat_parts_round_trip_is_bit_exact() {
        let data = edge_data(&mut StdRng::seed_from_u64(5), 300);
        let cuts = Cuts::fit(&data, 64);
        let binned = cuts.bin(&data);
        let mut rng = StdRng::seed_from_u64(6);
        let n = data.n_rows();
        let mut scratch = Scratch::new(&cuts, n);
        let mut leaf = [vec![0.0; n]];
        let mut grown = [Forest::default()];
        for _ in 0..8 {
            let grads: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let rows = round_rows(&mut rng, n);
            fit_heads(
                &mut scratch,
                &binned,
                [&grads],
                &rows,
                &mut leaf,
                &mut grown,
            );
        }
        let exported: Vec<Tree> = grown[0].export(&cuts, 0..8).into_iter().collect();
        assert_eq!(exported.len(), 8);
        for tree in &exported {
            let (f, t, l, r, g) = tree.to_flat_parts();
            let back = Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap();
            assert_eq!(part_bits(&back), part_bits(tree));
        }
        let (own, decoded) = lay_out(&[&exported]).unwrap();
        let again: Vec<Tree> = decoded[0].export(&own, 0..8).into_iter().collect();
        assert_eq!(
            again.iter().map(part_bits).collect::<Vec<_>>(),
            exported.iter().map(part_bits).collect::<Vec<_>>()
        );
        for i in 0..n {
            let a = leaf_bits(&grown[0], &cuts.rank(data.row(i)));
            let b = leaf_bits(&decoded[0], &own.rank(data.row(i)));
            assert_eq!(a, b, "row {i}");
        }
        let mut imp_a = vec![0.0; data.n_cols()];
        let mut imp_b = vec![0.0; data.n_cols()];
        grown[0].accumulate_importance(0..8, &mut imp_a);
        decoded[0].accumulate_importance(0..8, &mut imp_b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&imp_a), bits(&imp_b));
    }

    #[test]
    fn from_flat_parts_rejects_malformed() {
        let leaf = u32::MAX;
        // Length mismatch.
        assert!(Tree::from_flat_parts(&[leaf], &[1.0, 2.0], &[0], &[0], &[0.0]).is_none());
        // Zero nodes.
        assert!(Tree::from_flat_parts(&[], &[], &[], &[], &[]).is_none());
        // Split child out of bounds.
        assert!(
            Tree::from_flat_parts(&[0, leaf], &[1.0, 2.0], &[1, 0], &[9, 0], &[0.5, 0.0]).is_none()
        );
        // Split child pointing backwards (cycle).
        assert!(Tree::from_flat_parts(
            &[0, 0, leaf],
            &[1.0, 1.0, 2.0],
            &[1, 0, 0],
            &[2, 2, 0],
            &[0.5, 0.5, 0.0]
        )
        .is_none());
        // Leaf with nonzero children.
        assert!(Tree::from_flat_parts(&[leaf], &[1.0], &[1], &[0], &[0.0]).is_none());
        // What the walked layout cannot hold: a NaN threshold, a feature a
        // node cannot address, a leaf deeper than MAX_DEPTH.
        let one_split = |feature: u32, threshold: f64| {
            Tree::from_flat_parts(
                &[feature, leaf, leaf],
                &[threshold, 1.0, 2.0],
                &[1, 0, 0],
                &[2, 0, 0],
                &[0.5, 0.0, 0.0],
            )
        };
        assert!(one_split(0, f64::NAN).is_none());
        assert!(one_split(MAX_COLS as u32, 0.0).is_none());
        assert!(one_split(MAX_COLS as u32 - 1, f64::INFINITY).is_some());
        // A chain of `splits` splits, each with the last node (a leaf) as
        // its right child: that leaf sits `splits` deep.
        let chain = |splits: usize| {
            let n = splits + 1;
            let feature: Vec<u32> = (0..n).map(|i| if i < splits { 0 } else { leaf }).collect();
            let left: Vec<u32> = (0..n)
                .map(|i| if i < splits { i as u32 + 1 } else { 0 })
                .collect();
            let right: Vec<u32> = (0..n)
                .map(|i| if i < splits { splits as u32 } else { 0 })
                .collect();
            Tree::from_flat_parts(&feature, &vec![0.0; n], &left, &right, &vec![0.0; n])
        };
        assert!(chain(MAX_DEPTH).is_some());
        assert!(chain(MAX_DEPTH + 1).is_none());
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
        assert_eq!(tree.reached_depth(), 2);
        assert_eq!(tree.predict(&[0.0, -2.0]), 7.0);
        assert_eq!(tree.predict(&[0.0, 2.0]), 9.0);
        assert_eq!(tree.predict(&[1.0, -2.0]), 9.0);
        assert_eq!(tree.predict(&[f64::NAN, -2.0]), 9.0);
        // Laid out, the shared leaf is written once per path to it and the
        // unreachable nodes are gone.
        let (cuts, forests) = lay_out(&[std::slice::from_ref(&tree)]).unwrap();
        let unrolled = forests[0].export(&cuts, 0..1).iter().next().unwrap();
        assert_eq!(
            unrolled.to_flat_parts(),
            (
                vec![0, 1, leaf, leaf, leaf],
                vec![0.5, -1.0, 7.0, 9.0, 9.0],
                vec![1, 2, 0, 0, 0],
                vec![4, 3, 0, 0, 0],
                vec![1.0, 2.0, 0.0, 0.0, 0.0],
            )
        );
        // A leaf root walks only padding, so it reads no rank of the row.
        let root_leaf = Tree::from_flat_parts(
            &[leaf, 0, leaf],
            &[4.0, 1.0, 2.0],
            &[0, 2, 0],
            &[0, 2, 0],
            &[0.0; 3],
        )
        .unwrap();
        assert_eq!(
            (root_leaf.reached_depth(), root_leaf.predict(&[])),
            (0, 4.0)
        );
        assert!(fit_on_targets(&step_data()).reached_depth() >= 1);
    }

    /// The cut table the kernel test lays its trees on: column 0 holds
    /// [`MAX_CUTS`] distinct cuts (every whole number from −127 to 127),
    /// column 1 both −0.0 and 0.0, the others a few numbers.
    fn kernel_columns(n_cols: usize) -> Vec<Vec<f64>> {
        (0..n_cols)
            .map(|c| match c {
                0 => (-127..=127).map(f64::from).collect(),
                1 => vec![-1.0, -0.0, 0.0, 1.0],
                _ => vec![-2.0, 0.0, 0.5, f64::INFINITY],
            })
            .collect()
    }

    /// Appends a random subtree of height at most `h` — exactly `h` down
    /// its leftmost path when `exact` — to `parts` in preorder, each
    /// threshold one of `columns`' cuts, and returns its root's index. A
    /// right child is the left one, shared, one time in six.
    fn random_subtree(
        rng: &mut StdRng,
        parts: &mut FlatParts,
        columns: &[Vec<f64>],
        h: usize,
        exact: bool,
    ) -> u32 {
        let at = parts.0.len();
        let leaf = h == 0 || (!exact && rng.gen_range(0u32..3) == 0);
        let (feature, threshold, gain) = if leaf {
            (u32::MAX, rng.gen_range(-1.0f64..1.0), 0.0)
        } else {
            let col = rng.gen_range(0..columns.len());
            let cuts = &columns[col];
            let t = cuts[rng.gen_range(0..cuts.len())];
            (col as u32, t, rng.gen_range(0.0f64..1.0))
        };
        parts.0.push(feature);
        parts.1.push(threshold);
        parts.2.push(0);
        parts.3.push(0);
        parts.4.push(gain);
        if !leaf {
            let left = random_subtree(rng, parts, columns, h - 1, exact);
            let right = if rng.gen_range(0u32..6) == 0 {
                left
            } else {
                random_subtree(rng, parts, columns, h - 1, false)
            };
            parts.2[at] = left;
            parts.3[at] = right;
        }
        at as u32
    }

    /// A random arena whose root reaches leaves exactly `depth` deep, with
    /// shared children and up to two unreachable three-node subtrees
    /// behind it.
    fn random_tree(rng: &mut StdRng, columns: &[Vec<f64>], depth: usize) -> Tree {
        let mut parts = FlatParts::default();
        random_subtree(rng, &mut parts, columns, depth, true);
        for _ in 0..rng.gen_range(0..3) {
            let at = parts.0.len() as u32;
            parts.0.extend([0, u32::MAX, u32::MAX]);
            parts.1.extend([columns[0][0], 5.0, 6.0]);
            parts.2.extend([at + 1, 0, 0]);
            parts.3.extend([at + 2, 0, 0]);
            parts.4.extend([1.0, 0.0, 0.0]);
        }
        let (f, t, l, r, g) = parts;
        let tree = Tree::from_flat_parts(&f, &t, &l, &r, &g).unwrap();
        assert_eq!(tree.reached_depth(), depth);
        tree
    }

    /// A row whose every value is a cut, between two cuts, NaN, ±∞, −0.0
    /// or 0.0.
    fn random_row(rng: &mut StdRng, columns: &[Vec<f64>]) -> Vec<f64> {
        columns
            .iter()
            .map(|cuts| {
                let on = cuts[rng.gen_range(0..cuts.len())];
                match rng.gen_range(0u32..9) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => on + 0.25,
                    _ => on,
                }
            })
            .collect()
    }

    proptest! {
        /// The kernel lands where the stop-at-a-leaf walk does, bit for
        /// bit, in every shape [`Forest::walk`] is asked for on both sides
        /// of its lane-order switch: K trees × R rows for K and R each 1,
        /// one under, at and one over [`LANES`] (so 17 trees × 1, 15, 16
        /// and 17 rows, and 1 tree × the same), each single tree of the
        /// forest alone over 17 rows, and 5 trees inside the forest × 5
        /// rows. The trees have every depth from 0 to [`MAX_DEPTH`], shared
        /// children and unreachable nodes, and are laid out on a full table
        /// (one column of [`MAX_CUTS`] cuts, one with −0.0 and 0.0) and on
        /// the table of their own thresholds; the rows hold NaN, ±∞, ±0.0
        /// and values on and between cuts. `Tree::predict` on each arena
        /// answers the same, and the laid-out trees export arenas that walk
        /// the same.
        #[test]
        fn prop_kernel_walk_equals_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let columns = kernel_columns(rng.gen_range(2usize..5));
            let full = Cuts::from_columns(columns.iter().map(Vec::as_slice));
            let trees: Vec<Tree> = (0..=LANES)
                .map(|t| {
                    let depth = if t <= MAX_DEPTH { t } else { rng.gen_range(0..=MAX_DEPTH) };
                    random_tree(&mut rng, &columns, depth)
                })
                .collect();
            let rows: Vec<Vec<f64>> = (0..=LANES).map(|_| random_row(&mut rng, &columns)).collect();
            let want: Vec<Vec<u64>> = trees
                .iter()
                .map(|t| rows.iter().map(|r| t.reference_predict(r).to_bits()).collect())
                .collect();
            for (t, tree) in trees.iter().enumerate() {
                for (r, row) in rows.iter().enumerate() {
                    prop_assert_eq!(tree.predict(row).to_bits(), want[t][r]);
                }
            }
            let boundaries = [1, LANES - 1, LANES, LANES + 1];
            for k in boundaries {
                let (own, laid) = lay_out(&[&trees[..k]]).unwrap();
                let on_full = Forest::on(&full, &trees[..k]).unwrap();
                for (cuts, forest) in [(&full, &on_full), (&own, &laid[0])] {
                    let ranks: Vec<Ranks> = rows.iter().map(|r| cuts.rank(r)).collect();
                    for n in boundaries {
                        check_walk(forest, 0..k, &ranks, n, &want)?;
                    }
                    for t in 0..k {
                        check_walk(forest, t..t + 1, &ranks, rows.len(), &want)?;
                    }
                    if k > 10 {
                        check_walk(forest, 6..11, &ranks, 5, &want)?;
                    }
                    for (t, back) in forest.export(cuts, 0..k).into_iter().enumerate() {
                        for (r, row) in rows.iter().enumerate() {
                            prop_assert_eq!(back.reference_predict(row).to_bits(), want[t][r]);
                        }
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
        /// the kernel finds for that row, bit for bit, so the boosting loop
        /// need not walk the rows it sampled; rows it did not grow on keep
        /// whatever they held. A row ranked on the grown forest's table
        /// (the quantile cuts that binned it) has its bins as ranks.
        #[test]
        fn prop_grown_leaves_are_the_walked_leaves(
            seed in 0u64..u64::MAX,
            n in 1usize..400,
            n_bins_pick in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = edge_data(&mut rng, n);
            let cuts = Cuts::fit(&data, [2, 32, 256][n_bins_pick]);
            let binned = cuts.bin(&data);
            let grads: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let rows = round_rows(&mut rng, n);
            let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
            let mut leaf = [vec![sentinel; n]];
            let mut scratch = Scratch::new(&cuts, n);
            let mut heads = [Forest::default()];
            fit_heads(&mut scratch, &binned, [&grads], &rows, &mut leaf, &mut heads);
            let ranks: Vec<Ranks> = (0..n).map(|i| cuts.rank(data.row(i))).collect();
            for (i, rank) in ranks.iter().enumerate() {
                prop_assert!(&rank[..data.n_cols()] == binned.row(i), "row {i}");
            }
            let mut walked = vec![0.0; n];
            heads[0].walk(0..1, n, |i| &ranks[i], |_, i, _, w| {
                (i..).zip(w).for_each(|(i, &w)| walked[i] = w);
            });
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
            let cuts = Cuts::fit(&data, [2, 32, 256][rng.gen_range(0usize..3)]);
            let binned = cuts.bin(&data);
            let mut scratch = Scratch::new(&cuts, n);
            for _round in 0..3 {
                let rows = round_rows(&mut rng, n);
                let g: [Vec<f64>; 2] =
                    std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect());
                let one = |k: usize| {
                    let mut leaf = [vec![0.0; n]];
                    let mut heads = [Forest::default()];
                    fit_heads(
                        &mut Scratch::new(&cuts, n),
                        &binned,
                        [&g[k]],
                        &rows,
                        &mut leaf,
                        &mut heads,
                    );
                    let ([forest], [leaf]) = (heads, leaf);
                    (forest, leaf)
                };
                let expect: Vec<(Forest, Vec<f64>)> = if two_heads {
                    let mut leaves = [vec![0.0; n], vec![0.0; n]];
                    let mut heads = [Forest::default(), Forest::default()];
                    fit_heads(&mut scratch, &binned, [&g[0], &g[1]], &rows, &mut leaves, &mut heads);
                    heads.into_iter().zip(leaves).collect()
                } else {
                    let mut leaves = [vec![0.0; n]];
                    let mut heads = [Forest::default()];
                    fit_heads(&mut scratch, &binned, [&g[0]], &rows, &mut leaves, &mut heads);
                    heads.into_iter().zip(leaves).collect()
                };
                for (k, (forest, leaf)) in expect.iter().enumerate() {
                    let (alone, alone_leaf) = one(k);
                    let bits = |f: &Forest| f.export(&cuts, 0..f.len()).into_iter().map(|t| part_bits(&t)).collect::<Vec<_>>();
                    prop_assert!(bits(forest) == bits(&alone), "head {k}: trees differ");
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
            let binned = Cuts::fit(&data, 256).bin(&data);
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
