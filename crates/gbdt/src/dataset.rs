//! Feature matrices and their binned form.
//!
//! Histogram GBDT discretizes each feature into at most `n_bins` buckets via
//! quantile cut points computed once per training set
//! ([`crate::tree`]'s cut table, which the fitted trees are then walked
//! on); split finding then scans bin histograms instead of sorted feature
//! values.

/// A dense row-major feature matrix with regression targets.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    n_cols: usize,
    /// Row-major features, `n_rows * n_cols`.
    features: Vec<f64>,
    /// Regression targets, one per row.
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with `n_cols` features per row.
    pub fn new(n_cols: usize) -> Self {
        Self {
            n_cols,
            features: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Builds a dataset from rows; every row must have the same length.
    pub fn from_rows(rows: &[Vec<f64>], targets: &[f64]) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        let n_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut ds = Self::new(n_cols);
        for (row, &t) in rows.iter().zip(targets) {
            ds.push(row, t);
        }
        ds
    }

    /// Appends one row.
    ///
    /// Debug builds assert that `row.len() == n_cols`; release builds
    /// truncate or zero-pad the row so a width drift degrades training
    /// quality instead of aborting a serving retrain.
    pub fn push(&mut self, row: &[f64], target: f64) {
        debug_assert_eq!(row.len(), self.n_cols, "feature dimension mismatch");
        let take = row.len().min(self.n_cols);
        self.features.extend_from_slice(&row[..take]);
        self.features
            .resize(self.features.len() + (self.n_cols - take), 0.0);
        self.targets.push(target);
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.targets.len()
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Target of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }
}

/// A dataset binned by `Cuts::bin`: row-major `u8` bins, each a row's
/// rank in its column of the table.
#[derive(Debug, Clone)]
pub(crate) struct BinnedDataset {
    n_cols: usize,
    n_rows: usize,
    bins: Vec<u8>,
}

impl BinnedDataset {
    /// `n_rows` rows of `n_cols` bins, row-major in `bins`.
    pub(crate) fn new(n_cols: usize, n_rows: usize, bins: Vec<u8>) -> Self {
        debug_assert_eq!(bins.len(), n_cols * n_rows);
        Self {
            n_cols,
            n_rows,
            bins,
        }
    }

    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Bin of row `r`, feature `c`.
    pub(crate) fn bin(&self, r: usize, c: usize) -> u8 {
        self.bins[r * self.n_cols + c]
    }

    /// Binned row `r`.
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.bins[r * self.n_cols..(r + 1) * self.n_cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Cuts;
    use proptest::prelude::*;

    fn toy() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, (i % 10) as f64, 5.0])
            .collect();
        let targets: Vec<f64> = (0..100).map(|i| i as f64 * 2.0).collect();
        Dataset::from_rows(&rows, &targets)
    }

    #[test]
    fn dataset_accessors() {
        let ds = toy();
        assert_eq!(ds.n_rows(), 100);
        assert_eq!(ds.n_cols(), 3);
        assert_eq!(ds.row(7), &[7.0, 7.0, 5.0]);
        assert_eq!(ds.target(7), 14.0);
    }

    /// The width check is a `debug_assert`, so this holds in debug builds
    /// only; `cargo test --release` runs the twin below instead.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_width() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0], 0.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn push_pads_or_truncates_wrong_width_in_release() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0], 0.0);
        ds.push(&[1.0, 2.0, 3.0, 4.0], 1.0);
        assert_eq!(ds.row(0), &[1.0, 2.0, 0.0]);
        assert_eq!(ds.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.n_rows(), 2);
    }

    #[test]
    fn cuts_monotone_bins() {
        let ds = toy();
        let cuts = Cuts::fit(&ds, 16);
        // Feature 0 spans 0..100: higher values never get lower bins.
        let mut prev = 0u8;
        for i in 0..100 {
            let b = cuts.bin_of(0, i as f64);
            assert!(b >= prev);
            prev = b;
        }
        assert!(cuts.n_bins(0) > 4, "wide feature should get several bins");
    }

    #[test]
    fn constant_feature_has_no_cuts() {
        let ds = toy();
        let cuts = Cuts::fit(&ds, 16);
        assert_eq!(cuts.n_bins(2), 1);
        assert_eq!(cuts.bin_of(2, 5.0), 0);
        assert_eq!(cuts.bin_of(2, 100.0), 0);
    }

    #[test]
    fn bin_cut_consistency() {
        // x <= cuts[b]  <=>  bin(x) <= b — the invariant tree splits rely on,
        // for every value a row can carry: the grower routes by bin, the
        // fitted tree by the raw comparison, and the two must agree.
        let ds = toy();
        let table = Cuts::fit(&ds, 8);
        let cuts = table.column(0).unwrap().to_vec();
        for (b, &cut) in cuts.iter().enumerate() {
            for x in [
                cut - 0.5,
                cut,
                cut + 0.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                let lhs = x <= cut;
                let rhs = (table.bin_of(0, x) as usize) <= b;
                assert_eq!(lhs, rhs, "x={x} cut={cut} b={b} bin={}", table.bin_of(0, x));
            }
        }
    }

    #[test]
    fn transform_matches_bin() {
        let ds = toy();
        let cuts = Cuts::fit(&ds, 16);
        let binned = cuts.bin(&ds);
        assert_eq!(binned.n_rows(), ds.n_rows());
        for r in (0..ds.n_rows()).step_by(7) {
            for c in 0..ds.n_cols() {
                assert_eq!(binned.bin(r, c), cuts.bin_of(c, ds.row(r)[c]));
            }
        }
    }

    #[test]
    fn cuts_respect_max_bins() {
        let ds = toy();
        let cuts = Cuts::fit(&ds, 4);
        for c in 0..3 {
            assert!(cuts.n_bins(c) <= 4);
        }
    }

    proptest! {
        #[test]
        fn prop_bins_bounded(
            values in proptest::collection::vec(-1e6f64..1e6, 10..200),
            n_bins in 2usize..64,
        ) {
            let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
            let targets = vec![0.0; values.len()];
            let ds = Dataset::from_rows(&rows, &targets);
            let cuts = Cuts::fit(&ds, n_bins);
            for &v in &values {
                prop_assert!((cuts.bin_of(0, v) as usize) < cuts.n_bins(0));
            }
            prop_assert!(cuts.n_bins(0) <= n_bins);
        }

        #[test]
        fn prop_binning_preserves_order(
            values in proptest::collection::vec(-1e3f64..1e3, 10..100),
        ) {
            let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
            let ds = Dataset::from_rows(&rows, &vec![0.0; values.len()]);
            let cuts = Cuts::fit(&ds, 32);
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in sorted.windows(2) {
                prop_assert!(cuts.bin_of(0, w[0]) <= cuts.bin_of(0, w[1]));
            }
        }
    }
}
