//! Plan featurization: the 33-dim flattened vector, its stable hash, and
//! per-node features for the global GCN model.
//!
//! **Flattened vector (cache + local model + AutoWLM).** Following §4.2 of
//! the paper, we traverse the plan tree, group operator nodes by category,
//! and sum their estimated cost and cardinality per category; query-type
//! one-hot features complete the vector:
//!
//! ```text
//! dims  0..28 : per-category (est_cost_sum, est_rows_sum) pairs, 14 categories
//! dims 28..33 : query-type one-hot (SELECT / INSERT / UPDATE / DELETE / other)
//! ```
//!
//! 14 × 2 + 5 = 33 dimensions, matching the paper's "33-dimensional vector".
//!
//! **Hash key (cache "Optimization 1").** Identical queries produce
//! bit-identical optimizer estimates, so the FNV-1a hash over the raw f64
//! bits is a stable cache key that avoids element-wise vector comparison.
//!
//! **Node features (global model, §4.4 / Fig. 5).** Each node is featurized
//! as operator one-hot (35 here vs. the paper's 90 — width-agnostic code),
//! log-scaled cost/cardinality/width, S3-format one-hot, and base-table row
//! count, with format/rows "Null" (zero + flag) for non-scan operators.

use crate::operator::{OperatorCategory, QueryType, S3Format};
use crate::tree::{PhysicalPlan, PlanNode};
use crate::OperatorKind;
use serde::{Deserialize, Serialize};

/// Dimensionality of the flattened cache/local-model feature vector.
pub const CACHE_FEATURE_DIM: usize = OperatorCategory::COUNT * 2 + QueryType::COUNT;

/// Dimensionality of the per-node feature vector consumed by the GCN:
/// operator one-hot + ln(1+cost) + ln(1+rows) + ln(1+width) + S3-format
/// one-hot + base-table flag + ln(1+table_rows).
pub const NODE_FEATURE_DIM: usize = OperatorKind::COUNT + 3 + S3Format::COUNT + 2;

/// Number of plan-summary features (part of the GCN's "system feature
/// vector", §4.4).
pub const PLAN_SUMMARY_DIM: usize = 5;

/// The 33-dimensional flattened representation of a physical plan.
///
/// Wraps the raw values and provides the stable FNV-1a hash used as the
/// exec-time cache key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector(pub Vec<f64>);

impl FeatureVector {
    /// The raw feature values.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Dimensionality (always [`CACHE_FEATURE_DIM`] for plan vectors).
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Stable 64-bit FNV-1a hash over the f64 bit patterns. Used as the
    /// exec-time cache key (paper §4.2, Optimization 1: "storing the hash
    /// value of the feature vector as the key").
    pub fn stable_hash(&self) -> u64 {
        stable_hash_slice(&self.0)
    }
}

/// [`FeatureVector::stable_hash`] over a raw slice, for callers that hold
/// extracted features without the wrapper (e.g. the batched serve path,
/// which hashes each plan's features exactly once per request).
pub fn stable_hash_slice(features: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &v in features {
        // -0.0 hashes as 0.0, so equal values hash equally. A zero word's
        // eight steps `h = (h ^ 0)·P` are one multiply by P⁸ (mod 2⁶⁴); a
        // plan vector is mostly zeros.
        if v == 0.0 {
            h = h.wrapping_mul(FNV_PRIME_POW8);
        } else {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME⁸ mod 2⁶⁴`: eight FNV-1a steps over zero bytes.
const FNV_PRIME_POW8: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < 8 {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// Flattens a plan into its 33-dim feature vector (paper §4.2).
pub fn plan_feature_vector(plan: &PhysicalPlan) -> FeatureVector {
    let mut v = vec![0.0; CACHE_FEATURE_DIM];
    for node in plan.iter_preorder() {
        let c = node.op.category().index();
        v[c * 2] += node.est_cost;
        v[c * 2 + 1] += node.est_rows;
    }
    v[OperatorCategory::COUNT * 2 + plan.query_type.index()] = 1.0;
    FeatureVector(v)
}

/// Featurizes one plan node for the GCN (paper §4.4, Fig. 5).
pub fn node_features(node: &PlanNode) -> Vec<f64> {
    let mut v = vec![0.0; NODE_FEATURE_DIM];
    v[node.op.index()] = 1.0;
    let base = OperatorKind::COUNT;
    v[base] = node.est_cost.max(0.0).ln_1p();
    v[base + 1] = node.est_rows.max(0.0).ln_1p();
    v[base + 2] = node.width.max(0.0).ln_1p();
    if let Some(fmt) = node.s3_format {
        v[base + 3 + fmt.index()] = 1.0;
    }
    let tail = base + 3 + S3Format::COUNT;
    match node.table_rows {
        Some(rows) => {
            v[tail] = 1.0; // base-table flag
            v[tail + 1] = rows.max(0.0).ln_1p();
        }
        None => {
            // "Null" encoding: flag and rows stay zero.
        }
    }
    v
}

/// Human-readable name of dimension `i` of the 33-dim flattened vector
/// (for feature-importance reports).
///
/// # Panics
/// Panics if `i >= CACHE_FEATURE_DIM`.
pub fn feature_name(i: usize) -> String {
    assert!(i < CACHE_FEATURE_DIM, "feature index out of range");
    if i < OperatorCategory::COUNT * 2 {
        let cat = OperatorCategory::ALL[i / 2];
        let what = if i.is_multiple_of(2) { "cost" } else { "rows" };
        format!("{cat:?}.{what}")
    } else {
        let qt = i - OperatorCategory::COUNT * 2;
        const NAMES: [&str; QueryType::COUNT] = ["Select", "Insert", "Update", "Delete", "Other"];
        format!("query_type.{}", NAMES[qt])
    }
}

/// Plan-level summary features for the GCN's system vector: node count,
/// height, join count, ln(1+total cost), ln(1+total rows).
pub fn plan_summary_features(plan: &PhysicalPlan) -> [f64; PLAN_SUMMARY_DIM] {
    [
        plan.node_count() as f64,
        plan.height() as f64,
        plan.join_count() as f64,
        plan.total_est_cost().max(0.0).ln_1p(),
        plan.total_est_rows().max(0.0).ln_1p(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OperatorKind as K, QueryType, S3Format};
    use crate::tree::{PhysicalPlan, PlanNode};
    use proptest::prelude::*;

    fn join_plan() -> PhysicalPlan {
        let t1 = PlanNode::leaf(K::SeqScan, 100.0, 1_000.0, 64.0).with_table(S3Format::Local, 1e6);
        let t2 =
            PlanNode::leaf(K::S3Scan, 400.0, 5_000.0, 128.0).with_table(S3Format::Parquet, 5e6);
        let hash = PlanNode::internal(K::Hash, 80.0, 5_000.0, 128.0, vec![t2]);
        let join = PlanNode::internal(K::HashJoin, 900.0, 2_000.0, 160.0, vec![t1, hash]);
        PhysicalPlan::new(
            QueryType::Select,
            PlanNode::internal(K::Result, 10.0, 2_000.0, 160.0, vec![join]),
        )
    }

    #[test]
    fn vector_has_33_dims() {
        assert_eq!(CACHE_FEATURE_DIM, 33);
        let v = plan_feature_vector(&join_plan());
        assert_eq!(v.dim(), 33);
    }

    #[test]
    fn category_sums_accumulate() {
        let v = plan_feature_vector(&join_plan());
        let scan = OperatorCategory::Scan.index();
        let s3 = OperatorCategory::S3Scan.index();
        let hj = OperatorCategory::HashJoin.index();
        assert_eq!(v.0[scan * 2], 100.0);
        assert_eq!(v.0[scan * 2 + 1], 1_000.0);
        assert_eq!(v.0[s3 * 2], 400.0);
        assert_eq!(v.0[hj * 2], 900.0);
        // Misc category holds the Result node.
        let misc = OperatorCategory::Misc.index();
        assert_eq!(v.0[misc * 2], 10.0);
    }

    #[test]
    fn query_type_one_hot() {
        let mut p = join_plan();
        let v = plan_feature_vector(&p);
        let base = OperatorCategory::COUNT * 2;
        assert_eq!(v.0[base + QueryType::Select.index()], 1.0);
        assert_eq!(v.0[base + QueryType::Delete.index()], 0.0);
        p.query_type = QueryType::Delete;
        let v2 = plan_feature_vector(&p);
        assert_eq!(v2.0[base + QueryType::Delete.index()], 1.0);
        assert_ne!(v.stable_hash(), v2.stable_hash());
    }

    #[test]
    fn identical_plans_hash_identically() {
        let a = plan_feature_vector(&join_plan());
        let b = plan_feature_vector(&join_plan());
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn different_estimates_hash_differently() {
        let mut p = join_plan();
        let a = plan_feature_vector(&p).stable_hash();
        p.root.children[0].est_cost += 1.0;
        let b = plan_feature_vector(&p).stable_hash();
        assert_ne!(a, b);
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        let a = FeatureVector(vec![0.0, 1.0]);
        let b = FeatureVector(vec![-0.0, 1.0]);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn node_features_scan_vs_internal() {
        let scan = PlanNode::leaf(K::SeqScan, 10.0, 100.0, 64.0).with_table(S3Format::Local, 1e6);
        let v = node_features(&scan);
        assert_eq!(v.len(), NODE_FEATURE_DIM);
        assert_eq!(v[K::SeqScan.index()], 1.0);
        let base = K::COUNT;
        assert!((v[base] - 10.0f64.ln_1p()).abs() < 1e-12);
        assert_eq!(v[base + 3 + S3Format::Local.index()], 1.0);
        let tail = base + 3 + S3Format::COUNT;
        assert_eq!(v[tail], 1.0);
        assert!((v[tail + 1] - 1e6f64.ln_1p()).abs() < 1e-9);

        let join = PlanNode::internal(K::HashJoin, 5.0, 10.0, 8.0, vec![]);
        let vj = node_features(&join);
        assert_eq!(vj[K::HashJoin.index()], 1.0);
        // Null encoding for non-scan: no format, no flag, no rows.
        for i in 0..S3Format::COUNT {
            assert_eq!(vj[base + 3 + i], 0.0);
        }
        assert_eq!(vj[tail], 0.0);
        assert_eq!(vj[tail + 1], 0.0);
    }

    #[test]
    fn summary_features() {
        let p = join_plan();
        let s = plan_summary_features(&p);
        assert_eq!(s[0], 5.0); // nodes
        assert_eq!(s[1], 4.0); // height
        assert_eq!(s[2], 1.0); // joins
        assert!(s[3] > 0.0 && s[4] > 0.0);
    }

    #[test]
    fn feature_names_unique_and_total() {
        let names: std::collections::HashSet<String> =
            (0..CACHE_FEATURE_DIM).map(feature_name).collect();
        assert_eq!(names.len(), CACHE_FEATURE_DIM);
        assert_eq!(feature_name(0), "Scan.cost");
        assert_eq!(feature_name(1), "Scan.rows");
        assert!(feature_name(28).starts_with("query_type."));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn feature_name_bounds() {
        feature_name(CACHE_FEATURE_DIM);
    }

    /// FNV-1a over every byte of every word, -0.0 read as 0.0: the hash
    /// [`stable_hash_slice`] must equal bit for bit.
    fn bytewise_hash(features: &[f64]) -> u64 {
        let mut h = FNV_OFFSET;
        for &v in features {
            let bits = if v == 0.0 { 0u64 } else { v.to_bits() };
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// One word of a kind the hash must not confuse: ±0.0, a NaN with a
    /// random payload and sign, a subnormal, an ordinary value, any bits.
    fn word(kind: u8, bits: u64) -> f64 {
        const SIGN: u64 = 1 << 63;
        const MANTISSA: u64 = (1 << 52) - 1;
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(0x7ff0_0000_0000_0000 | (bits & SIGN) | (bits & MANTISSA).max(1)),
            3 => f64::from_bits((bits & SIGN) | (bits & MANTISSA).max(1)),
            4 => (bits >> 11) as f64 * 1e-3,
            _ => f64::from_bits(bits),
        }
    }

    #[test]
    fn all_zero_vectors_hash_bytewise() {
        for len in 0..=64 {
            for zero in [0.0, -0.0] {
                let v = vec![zero; len];
                assert_eq!(stable_hash_slice(&v), bytewise_hash(&v), "len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_zero_word_step_hashes_bytewise(
            words in proptest::collection::vec((0u8..6, 0u64..=u64::MAX), 0..=64),
        ) {
            let v: Vec<f64> = words.iter().map(|&(kind, bits)| word(kind, bits)).collect();
            prop_assert_eq!(stable_hash_slice(&v), bytewise_hash(&v));
        }

        #[test]
        fn prop_onehot_is_exactly_one(
            op_idx in 0..OperatorKind::COUNT,
            cost in 0.0f64..1e9,
            rows in 0.0f64..1e9,
        ) {
            let node = PlanNode::leaf(OperatorKind::ALL[op_idx], cost, rows, 8.0);
            let v = node_features(&node);
            let onehot_sum: f64 = v[..OperatorKind::COUNT].iter().sum();
            prop_assert_eq!(onehot_sum, 1.0);
            prop_assert!(v.iter().all(|x| x.is_finite()));
        }

        #[test]
        fn prop_vector_nonnegative_and_finite(
            cost in 0.0f64..1e12,
            rows in 0.0f64..1e12,
        ) {
            let node = PlanNode::leaf(K::SeqScan, cost, rows, 64.0);
            let p = PhysicalPlan::new(QueryType::Select, node);
            let v = plan_feature_vector(&p);
            prop_assert!(v.0.iter().all(|x| x.is_finite() && *x >= 0.0));
        }
    }
}
