//! The paper's exec-time bucketing and per-bucket accuracy tables.
//!
//! Tables 1–6 break accuracy down by the *actual* exec-time of the query:
//! `0–10 s`, `10–60 s`, `60–120 s`, `120–300 s`, `300 s+`, plus an `Overall`
//! row. [`BucketReport`] renders exactly that table for either absolute error
//! or Q-error.

use crate::error::{AbsErrorSummary, QErrorSummary};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five exec-time buckets used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecTimeBucket {
    /// 0 s – 10 s
    UpTo10s,
    /// 10 s – 60 s
    From10To60s,
    /// 60 s – 120 s
    From60To120s,
    /// 120 s – 300 s
    From120To300s,
    /// 300 s and beyond
    Over300s,
}

impl ExecTimeBucket {
    /// All buckets in table order.
    pub const ALL: [ExecTimeBucket; 5] = [
        ExecTimeBucket::UpTo10s,
        ExecTimeBucket::From10To60s,
        ExecTimeBucket::From60To120s,
        ExecTimeBucket::From120To300s,
        ExecTimeBucket::Over300s,
    ];

    /// Buckets an actual exec-time in seconds.
    pub fn of(actual_secs: f64) -> Self {
        match actual_secs {
            t if t < 10.0 => ExecTimeBucket::UpTo10s,
            t if t < 60.0 => ExecTimeBucket::From10To60s,
            t if t < 120.0 => ExecTimeBucket::From60To120s,
            t if t < 300.0 => ExecTimeBucket::From120To300s,
            _ => ExecTimeBucket::Over300s,
        }
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ExecTimeBucket::UpTo10s => "0s - 10s",
            ExecTimeBucket::From10To60s => "10s - 60s",
            ExecTimeBucket::From60To120s => "60s - 120s",
            ExecTimeBucket::From120To300s => "120s - 300s",
            ExecTimeBucket::Over300s => "300s+",
        }
    }
}

impl fmt::Display for ExecTimeBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of a bucketed accuracy table: the bucket (or `None` for the
/// "Overall" row) and its error summaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BucketRow {
    /// `None` for the "Overall" row.
    pub bucket: Option<ExecTimeBucket>,
    /// Absolute-error summary for the row's queries (`None` if the bucket is
    /// empty).
    pub abs: Option<AbsErrorSummary>,
    /// Q-error summary for the row's queries.
    pub q: Option<QErrorSummary>,
}

impl BucketRow {
    /// Number of queries in the row.
    pub fn count(&self) -> usize {
        self.abs.map(|a| a.count).unwrap_or(0)
    }
}

/// A full bucketed accuracy table (one predictor's column group in
/// Tables 1–6): an "Overall" row followed by a row per bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BucketReport {
    /// Rows in table order: Overall first, then `ExecTimeBucket::ALL`.
    pub rows: Vec<BucketRow>,
}

impl BucketReport {
    /// Builds the report from parallel slices of actual and predicted
    /// exec-times (seconds). Returns `None` on empty or mismatched input.
    pub fn from_pairs(actual: &[f64], predicted: &[f64]) -> Option<Self> {
        if actual.is_empty() || actual.len() != predicted.len() {
            return None;
        }
        let mut rows = Vec::with_capacity(6);
        rows.push(BucketRow {
            bucket: None,
            abs: AbsErrorSummary::from_pairs(actual, predicted),
            q: QErrorSummary::from_pairs(actual, predicted),
        });
        for bucket in ExecTimeBucket::ALL {
            let (a, p): (Vec<f64>, Vec<f64>) = actual
                .iter()
                .zip(predicted)
                .filter(|(&a, _)| ExecTimeBucket::of(a) == bucket)
                .map(|(&a, &p)| (a, p))
                .unzip();
            rows.push(BucketRow {
                bucket: Some(bucket),
                abs: AbsErrorSummary::from_pairs(&a, &p),
                q: QErrorSummary::from_pairs(&a, &p),
            });
        }
        Some(Self { rows })
    }

    /// The "Overall" row.
    pub fn overall(&self) -> &BucketRow {
        &self.rows[0]
    }

    /// The row for a specific bucket.
    #[expect(
        clippy::expect_used,
        reason = "from_pairs pushes a row for every bucket; reports are read by the experiment \
                  harness, never on a verb's path"
    )]
    pub fn bucket(&self, bucket: ExecTimeBucket) -> &BucketRow {
        self.rows
            .iter()
            .find(|r| r.bucket == Some(bucket))
            .expect("all buckets present by construction")
    }

    /// Renders the absolute-error columns as an aligned text table
    /// (`label  #queries  MAE  P50-AE  P90-AE`).
    pub fn render_abs(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<13} {:>12} {:>10} {:>10} {:>10}\n",
            "Exec-time", "# Queries", "MAE", "P50-AE", "P90-AE"
        );
        for row in &self.rows {
            let label = row.bucket.map(|b| b.label()).unwrap_or("Overall");
            match row.abs {
                Some(a) => out.push_str(&format!(
                    "{label:<13} {:>12} {:>10.3} {:>10.3} {:>10.3}\n",
                    a.count, a.mae, a.p50, a.p90
                )),
                None => out.push_str(&format!(
                    "{label:<13} {:>12} {:>10} {:>10} {:>10}\n",
                    0, "-", "-", "-"
                )),
            }
        }
        out
    }

    /// Renders the Q-error columns (`label  #queries  MQE  P50-QE  P90-QE`).
    pub fn render_q(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<13} {:>12} {:>10} {:>10} {:>10}\n",
            "Exec-time", "# Queries", "MQE", "P50-QE", "P90-QE"
        );
        for row in &self.rows {
            let label = row.bucket.map(|b| b.label()).unwrap_or("Overall");
            match row.q {
                Some(q) => out.push_str(&format!(
                    "{label:<13} {:>12} {:>10.3} {:>10.3} {:>10.3}\n",
                    q.count, q.mqe, q.p50, q.p90
                )),
                None => out.push_str(&format!(
                    "{label:<13} {:>12} {:>10} {:>10} {:>10}\n",
                    0, "-", "-", "-"
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(ExecTimeBucket::of(0.0), ExecTimeBucket::UpTo10s);
        assert_eq!(ExecTimeBucket::of(9.999), ExecTimeBucket::UpTo10s);
        assert_eq!(ExecTimeBucket::of(10.0), ExecTimeBucket::From10To60s);
        assert_eq!(ExecTimeBucket::of(59.999), ExecTimeBucket::From10To60s);
        assert_eq!(ExecTimeBucket::of(60.0), ExecTimeBucket::From60To120s);
        assert_eq!(ExecTimeBucket::of(120.0), ExecTimeBucket::From120To300s);
        assert_eq!(ExecTimeBucket::of(300.0), ExecTimeBucket::Over300s);
        assert_eq!(ExecTimeBucket::of(1e9), ExecTimeBucket::Over300s);
    }

    #[test]
    fn report_counts_partition_overall() {
        let actual = [1.0, 5.0, 30.0, 90.0, 200.0, 500.0, 2.0];
        let pred = [1.0; 7];
        let r = BucketReport::from_pairs(&actual, &pred).unwrap();
        let overall = r.overall().count();
        let sum: usize = ExecTimeBucket::ALL
            .iter()
            .map(|&b| r.bucket(b).count())
            .sum();
        assert_eq!(overall, 7);
        assert_eq!(sum, overall);
        assert_eq!(r.bucket(ExecTimeBucket::UpTo10s).count(), 3);
        assert_eq!(r.bucket(ExecTimeBucket::Over300s).count(), 1);
    }

    #[test]
    fn empty_buckets_render_dash() {
        let actual = [1.0, 2.0];
        let pred = [1.5, 2.5];
        let r = BucketReport::from_pairs(&actual, &pred).unwrap();
        assert!(r.bucket(ExecTimeBucket::Over300s).abs.is_none());
        let text = r.render_abs("t");
        assert!(text.contains("300s+"));
        assert!(text.contains('-'));
    }

    #[test]
    fn render_contains_all_labels() {
        let actual = [1.0, 15.0, 70.0, 150.0, 400.0];
        let pred = [1.0, 10.0, 60.0, 100.0, 300.0];
        let r = BucketReport::from_pairs(&actual, &pred).unwrap();
        let abs = r.render_abs("Table 1");
        let q = r.render_q("Table 2");
        for b in ExecTimeBucket::ALL {
            assert!(abs.contains(b.label()));
            assert!(q.contains(b.label()));
        }
        assert!(abs.contains("Overall"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(BucketReport::from_pairs(&[], &[]).is_none());
        assert!(BucketReport::from_pairs(&[1.0], &[]).is_none());
    }
}
