//! Flattened structure-of-arrays forests for batched inference.
//!
//! The arena [`Tree`](crate::tree::Tree) stores an enum per node; traversal
//! chases a discriminant plus payload per step, which is fine for one row but
//! wasteful for a batch: every row re-streams the same node payloads through
//! cache. [`FlatTree`] re-lays a tree out as parallel arrays (one `u32`
//! feature id, one `f64` cut, two `u32` child indices per node), and
//! [`FlatForest`] drives the batch loop *tree-major* — outer loop over trees,
//! inner over rows — so a tree's node arrays stay hot while every row of the
//! batch walks it.
//!
//! Flattening is a pure re-layout: node order, comparison operands, and leaf
//! weights are copied bit-for-bit from the arena tree, so batched prediction
//! is bit-identical to scalar traversal (property-tested in this module and
//! against the full model classes in `tests/flat_identity.rs`).
//!
//! Models hold their flat twin in a [`Lazy`] cell: built eagerly at the end
//! of `fit`, rebuilt on first batched use after a snapshot restore (the cell
//! deliberately does not serialize — it is derived state).

use crate::tree::Tree;
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::OnceLock;

/// Feature tag marking a leaf node; `threshold` then holds the leaf weight.
const LEAF: u32 = u32::MAX;

/// One tree in structure-of-arrays layout. Node `i` of the source arena tree
/// becomes index `i` of each array, so child indices carry over unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatTree {
    /// Split feature per node; [`LEAF`] tags leaves.
    feature: Vec<u32>,
    /// Split cut per node (`go left iff x[feature] <= threshold`); for a
    /// leaf-tagged node this slot holds the leaf weight instead.
    threshold: Vec<f64>,
    /// Left child index per node (unused for leaves).
    left: Vec<u32>,
    /// Right child index per node (unused for leaves).
    right: Vec<u32>,
}

impl FlatTree {
    /// Flattens an arena tree. Node indices are preserved.
    pub fn from_tree(tree: &Tree) -> Self {
        let n = tree.n_nodes();
        let mut flat = FlatTree {
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
        };
        tree.for_each_node(|feature, threshold, left, right| match feature {
            Some(f) => {
                flat.feature.push(f);
                flat.threshold.push(threshold);
                flat.left.push(left);
                flat.right.push(right);
            }
            None => {
                flat.feature.push(LEAF);
                flat.threshold.push(threshold);
                flat.left.push(0);
                flat.right.push(0);
            }
        });
        flat
    }

    /// Rebuilds a flat tree from its four arrays (the artefact-store decode
    /// path). Returns `None` on malformed input: mismatched lengths, zero
    /// nodes, a leaf with nonzero children, or a split child index that is
    /// out of bounds or not strictly greater than its parent — the same
    /// invariant `Tree::from_flat_parts` enforces, and what makes the
    /// unguarded traversal in [`FlatTree::predict`] terminate.
    pub fn from_arrays(
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
    ) -> Option<Self> {
        let n = feature.len();
        if n == 0 || threshold.len() != n || left.len() != n || right.len() != n {
            return None;
        }
        for i in 0..n {
            if feature[i] == LEAF {
                if left[i] != 0 || right[i] != 0 {
                    return None;
                }
            } else {
                let (l, r) = (left[i] as usize, right[i] as usize);
                if l <= i || r <= i || l >= n || r >= n {
                    return None;
                }
            }
        }
        Some(Self {
            feature,
            threshold,
            left,
            right,
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// The per-node split feature array ([`u32::MAX`] tags leaves).
    pub fn features(&self) -> &[u32] {
        &self.feature
    }

    /// The per-node threshold array (leaf weight for leaf-tagged nodes).
    pub fn thresholds(&self) -> &[f64] {
        &self.threshold
    }

    /// The per-node left child array.
    pub fn lefts(&self) -> &[u32] {
        &self.left
    }

    /// The per-node right child array.
    pub fn rights(&self) -> &[u32] {
        &self.right
    }

    /// A borrowed view over this tree's arrays.
    pub fn view(&self) -> FlatTreeView<'_> {
        FlatTreeView {
            feature: &self.feature,
            threshold: &self.threshold,
            left: &self.left,
            right: &self.right,
        }
    }

    /// Predicts the leaf weight for one row — same comparisons on the same
    /// bits as `Tree::predict`, just against the flat arrays.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.view().predict(row)
    }
}

/// A borrowed flat tree: the same four parallel arrays as [`FlatTree`], but
/// referencing memory owned elsewhere — typically primitive slices read in
/// place from a memory-mapped `stage-store` section, so a shard can serve
/// predictions without ever copying the model out of the page cache.
#[derive(Debug, Clone, Copy)]
pub struct FlatTreeView<'a> {
    feature: &'a [u32],
    threshold: &'a [f64],
    left: &'a [u32],
    right: &'a [u32],
}

impl<'a> FlatTreeView<'a> {
    /// Builds a view over borrowed arrays with the same validation as
    /// [`FlatTree::from_arrays`]; `None` on malformed input.
    pub fn new(
        feature: &'a [u32],
        threshold: &'a [f64],
        left: &'a [u32],
        right: &'a [u32],
    ) -> Option<Self> {
        let n = feature.len();
        if n == 0 || threshold.len() != n || left.len() != n || right.len() != n {
            return None;
        }
        for i in 0..n {
            if feature[i] == LEAF {
                if left[i] != 0 || right[i] != 0 {
                    return None;
                }
            } else {
                let (l, r) = (left[i] as usize, right[i] as usize);
                if l <= i || r <= i || l >= n || r >= n {
                    return None;
                }
            }
        }
        Some(Self {
            feature,
            threshold,
            left,
            right,
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Predicts the leaf weight for one row — the shared traversal kernel
    /// behind both the owned and the borrowed layout.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.threshold[i];
            }
            i = if row[f as usize] <= self.threshold[i] {
                self.left[i] as usize
            } else {
                self.right[i] as usize
            };
        }
    }
}

/// An ordered set of flattened trees with a tree-major batch kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
}

impl FlatForest {
    /// Flattens a slice of arena trees, preserving order.
    pub fn from_trees(trees: &[Tree]) -> Self {
        Self {
            trees: trees.iter().map(FlatTree::from_tree).collect(),
        }
    }

    /// Assembles a forest from already-flat trees (the store decode path).
    pub fn from_flat_trees(trees: Vec<FlatTree>) -> Self {
        Self { trees }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The flat trees, in boosting order.
    pub fn trees(&self) -> &[FlatTree] {
        &self.trees
    }

    /// A borrowed view over the whole forest.
    pub fn view(&self) -> FlatForestView<'_> {
        FlatForestView {
            trees: self.trees.iter().map(FlatTree::view).collect(),
        }
    }

    /// Writes tree `t`'s raw leaf weight for every row into `out[..rows.len()]`.
    /// This is the batch inner loop: one tree's arrays service all rows
    /// before the next tree is touched.
    ///
    /// # Panics
    /// Panics if `t` is out of range or `out` is shorter than `rows`.
    pub fn predict_tree_into<R: AsRef<[f64]>>(&self, t: usize, rows: &[R], out: &mut [f64]) {
        let tree = &self.trees[t];
        for (row, slot) in rows.iter().zip(out.iter_mut()) {
            *slot = tree.predict(row.as_ref());
        }
    }

    /// Unweighted sum of all trees per row (tree-major), for callers without
    /// per-tree accumulation needs.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        let mut acc = vec![0.0; rows.len()];
        let mut tmp = vec![0.0; rows.len()];
        for t in 0..self.trees.len() {
            self.predict_tree_into(t, rows, &mut tmp);
            for (a, v) in acc.iter_mut().zip(&tmp) {
                *a += *v;
            }
        }
        acc
    }
}

/// A borrowed forest of [`FlatTreeView`]s with the same tree-major batch
/// kernel as [`FlatForest`] — the zero-copy twin used when the arrays live
/// in a memory-mapped artefact-store section rather than on the heap.
#[derive(Debug, Clone)]
pub struct FlatForestView<'a> {
    trees: Vec<FlatTreeView<'a>>,
}

impl<'a> FlatForestView<'a> {
    /// Assembles a view forest from per-tree views, preserving order.
    pub fn from_views(trees: Vec<FlatTreeView<'a>>) -> Self {
        Self { trees }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Writes tree `t`'s raw leaf weight for every row into
    /// `out[..rows.len()]` — same kernel as
    /// [`FlatForest::predict_tree_into`].
    ///
    /// # Panics
    /// Panics if `t` is out of range or `out` is shorter than `rows`.
    pub fn predict_tree_into<R: AsRef<[f64]>>(&self, t: usize, rows: &[R], out: &mut [f64]) {
        let tree = &self.trees[t];
        for (row, slot) in rows.iter().zip(out.iter_mut()) {
            *slot = tree.predict(row.as_ref());
        }
    }

    /// Unweighted sum of all trees per row (tree-major) — bit-identical to
    /// [`FlatForest::predict_batch`] over the same arrays.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        let mut acc = vec![0.0; rows.len()];
        let mut tmp = vec![0.0; rows.len()];
        for t in 0..self.trees.len() {
            self.predict_tree_into(t, rows, &mut tmp);
            for (a, v) in acc.iter_mut().zip(&tmp) {
                *a += *v;
            }
        }
        acc
    }
}

/// A lazily built, non-serialized cache cell for derived model state (the
/// flat twin of an arena forest).
///
/// Serialization writes `null` and deserialization accepts anything into an
/// empty cell: snapshots never carry the flat layout, and snapshots written
/// before this field existed restore cleanly. The cell refills on first
/// batched prediction via [`Lazy::get_or_init`].
#[derive(Debug, Default)]
pub struct Lazy<T>(OnceLock<T>);

impl<T> Lazy<T> {
    /// An empty cell.
    pub fn new() -> Self {
        Self(OnceLock::new())
    }

    /// A cell pre-filled with `value` (used at the end of `fit`).
    pub fn filled(value: T) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(value);
        Self(cell)
    }

    /// Returns the cached value, building it with `init` on first use.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(init)
    }
}

impl<T: Clone> Clone for Lazy<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<T> Serialize for Lazy<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T> Deserialize for Lazy<T> {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Binner, Dataset};
    use crate::tree::TreeParams;
    use proptest::prelude::*;

    fn fit_on_targets(data: &Dataset) -> Tree {
        let binner = Binner::fit(data, 32);
        let binned = binner.transform(data);
        let grads: Vec<f64> = data.targets().iter().map(|&y| -y).collect();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        let columns: Vec<usize> = (0..data.n_cols()).collect();
        Tree::fit(
            &binned,
            &binner,
            &grads,
            &indices,
            &columns,
            &TreeParams::default(),
        )
    }

    #[test]
    fn flat_single_leaf() {
        let t = Tree::constant(2.5);
        let f = FlatTree::from_tree(&t);
        assert_eq!(f.n_nodes(), 1);
        assert_eq!(f.predict(&[0.0]), 2.5);
    }

    #[test]
    fn forest_batch_matches_scalar_sum() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<f64> = (0..60).map(|i| (i % 13) as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let trees = vec![fit_on_targets(&data), Tree::constant(-1.0)];
        let forest = FlatForest::from_trees(&trees);
        assert_eq!(forest.n_trees(), 2);
        let batch = forest.predict_batch(&rows);
        for (row, got) in rows.iter().zip(&batch) {
            let want: f64 = trees.iter().map(|t| t.predict(row)).sum();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn view_matches_owned_bit_for_bit() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<f64> = (0..60).map(|i| (i % 13) as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let trees = vec![fit_on_targets(&data), Tree::constant(-1.0)];
        let forest = FlatForest::from_trees(&trees);
        let view = forest.view();
        assert_eq!(view.n_trees(), forest.n_trees());
        let owned = forest.predict_batch(&rows);
        let borrowed = view.predict_batch(&rows);
        for (a, b) in owned.iter().zip(&borrowed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn from_arrays_round_trip_and_rejection() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        let data = Dataset::from_rows(&rows, &targets);
        let tree = fit_on_targets(&data);
        let flat = FlatTree::from_tree(&tree);
        let rebuilt = FlatTree::from_arrays(
            flat.features().to_vec(),
            flat.thresholds().to_vec(),
            flat.lefts().to_vec(),
            flat.rights().to_vec(),
        )
        .unwrap();
        for row in &rows {
            assert_eq!(rebuilt.predict(row).to_bits(), flat.predict(row).to_bits());
        }
        // Hostile arrays: backward child edge would loop forever if accepted.
        assert!(FlatTree::from_arrays(
            vec![0, 0, LEAF],
            vec![1.0, 1.0, 2.0],
            vec![1, 0, 0],
            vec![2, 2, 0],
        )
        .is_none());
        assert!(FlatTree::from_arrays(vec![], vec![], vec![], vec![]).is_none());
        assert!(FlatTreeView::new(&[LEAF], &[1.0], &[3], &[0]).is_none());
    }

    #[test]
    fn lazy_serializes_to_null_and_restores_empty() {
        let filled: Lazy<u64> = Lazy::filled(9);
        assert_eq!(filled.to_value(), Value::Null);
        let back = Lazy::<u64>::from_value(&Value::Int(123)).unwrap();
        assert_eq!(*back.get_or_init(|| 7), 7);
        assert_eq!(*filled.get_or_init(|| 7), 9);
        let cloned = filled.clone();
        assert_eq!(*cloned.get_or_init(|| 7), 9);
    }

    proptest! {
        #[test]
        fn prop_flat_tree_bit_identical(
            pairs in proptest::collection::vec(
                (-100.0f64..100.0, -100.0f64..100.0, -50.0f64..50.0), 5..80),
            probes in proptest::collection::vec(
                (-120.0f64..120.0, -120.0f64..120.0), 1..40),
        ) {
            let rows: Vec<Vec<f64>> = pairs.iter().map(|p| vec![p.0, p.1]).collect();
            let targets: Vec<f64> = pairs.iter().map(|p| p.2).collect();
            let data = Dataset::from_rows(&rows, &targets);
            let tree = fit_on_targets(&data);
            let flat = FlatTree::from_tree(&tree);
            prop_assert_eq!(flat.n_nodes(), tree.n_nodes());
            for p in &probes {
                let row = [p.0, p.1];
                let scalar = tree.predict(&row);
                let batch = flat.predict(&row);
                prop_assert_eq!(scalar.to_bits(), batch.to_bits());
            }
        }
    }
}
