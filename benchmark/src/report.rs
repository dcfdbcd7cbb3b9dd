//! Metric lists, the result line the pipeline reads, and the detailed
//! output file with the run's metadata.

use crate::stats;
use serde_json::{json, Value};
use std::io;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was taken over (0: a count or a single reading).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The end-to-end metrics, in the order `--trace 0` reports them and
/// `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "queries_per_s",
    "predict_p50_us",
    "cpu_us_per_query",
    "peak_rss_mb",
    "rel_log_err",
];

/// The per-layer metrics, in the order `--trace 1` reports them.
pub const PER_LAYER: [&str; 46] = [
    "serve.wire.encode_request_ns",
    "serve.wire.decode_request_ns",
    "serve.wire.frame_crc_ns",
    "serve.wire.encode_response_ns",
    "serve.wire.decode_response_ns",
    "serve.json.decode_request_ns",
    "plan.feature_vector_ns",
    "plan.hash_ns",
    "core.cache.lookup_ns",
    "core.cache.record_ns",
    "core.predict_ns.cache",
    "core.predict_ns.local",
    "core.predict_ns.global",
    "core.observe_ns",
    "core.calibrate_ns",
    "gbdt.ensemble_predict_ns",
    "serve.wire.request_bytes",
    "serve.wait_us",
    "serve.residual_us",
    "serve.overloaded",
    "serve.timed_out",
    "serve.stats_mismatch",
    "plan.nodes_per_plan",
    "core.cache.hit_ratio",
    "core.predict_batch_ns_per_row",
    "core.source_share.cache",
    "core.source_share.local",
    "core.source_share.global",
    "core.source_share.default",
    "core.forced_retrains",
    "core.drift_detections",
    "core.interval_coverage",
    "gbdt.ensemble_predict_batch_ns_per_row",
    "gbdt.fit_ms",
    "gbdt.fit_count",
    "gbdt.fit_wall_share",
    "nn.gcn_forward_us",
    "nn.global_train_s",
    "store.checkpoint_ms",
    "store.checkpoint_dirty_ms",
    "store.restore_ms",
    "store.bytes",
    "store.restore_mismatch",
    "workload.corpus_gen_s",
    "bench.trace_overhead_share",
    "bench.trace_self_time_share",
];

/// A run must report exactly the metrics its mode is contracted to.
pub fn assert_names(metrics: &[Metric], contract: &[&str]) {
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, contract, "metric list drifted from the contract");
}

/// What a run concluded.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// First failures, for the human reader.
    pub notes: Vec<String>,
    /// Run metadata for the output file.
    pub meta: Value,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn metrics_object(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = if with_samples {
                    json!({"value": m.value, "unit": m.unit, "samples": m.samples})
                } else {
                    json!({"value": m.value, "unit": m.unit})
                };
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

/// The one-line JSON object the pipeline reads from the end of stdout.
pub fn result_line(o: &Outcome) -> String {
    let v = json!({
        "correct": o.correct(),
        "attempted": o.attempted.max(1),
        "failed": o.failed,
        "metrics": metrics_object(&o.metrics, false),
    });
    serde_json::to_string(&v).expect("a Value tree always prints")
}

/// Every metric by name, with its unit and sample count.
pub fn print_table(o: &Outcome) {
    for m in &o.metrics {
        let n = match m.samples {
            0 => String::new(),
            n => format!("  (n={n})"),
        };
        println!("{:<44} {:>16.4} {}{n}", m.name, m.value, m.unit);
    }
    for note in &o.notes {
        println!("FAILED: {note}");
    }
}

pub fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| stats::cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": cpu,
        "commit": std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    })
}

pub fn write_output(path: &Path, o: &Outcome) -> io::Result<()> {
    let v = json!({
        "correct": o.correct(),
        "attempted": o.attempted,
        "failed": o.failed,
        "notes": o.notes,
        "meta": o.meta,
        "metrics": metrics_object(&o.metrics, true),
    });
    let text = serde_json::to_string_pretty(&v).map_err(io::Error::other)?;
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    /// `BENCHMARK.json` is written by hand; this holds it to the code.
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let contract: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            contract[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|x| x["name"].as_str().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let specs = spec::all();
        assert_eq!(
            names("workloads"),
            specs.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (listed, spec) in contract["workloads"]
            .as_array()
            .expect("a list")
            .iter()
            .zip(&specs)
        {
            assert_eq!(listed["why"].as_str(), Some(spec.why));
        }
        assert_eq!(contract["paths"][0].as_str(), Some("benchmark"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            metrics: vec![Metric::new("setup_s", 0.8127, "s", 3)],
            attempted: 1000,
            failed: 0,
            notes: Vec::new(),
            meta: Value::Null,
        };
        assert_eq!(
            result_line(&o),
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
