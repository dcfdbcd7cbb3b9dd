//! `run.sh --repeat N`: per metric and workload, the median and quartiles
//! over N sets of runs of one build, held against the bound in
//! `BENCHMARK.json`.
//!
//! A metric whose run-to-run spread (distance between the quartiles, as a
//! share of the median) is wider than its bound cannot resolve a change of
//! the size the bound forbids: it is flagged `unresolved`, not passed.

use serde_json::Value;
use std::io;
use std::path::Path;

/// The quartiles `[q1, q2, q3]` as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the flags here agree with the
/// pipeline's. `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

fn read_json(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .map(|a| a.iter().filter_map(|x| x["name"].as_str()).collect())
        .unwrap_or_default()
}

/// Prints the table for every `<sets>/<set>/<workload>_untraced.json`.
pub fn summarize(benchmark: &Path, sets: &Path) -> io::Result<()> {
    let contract = read_json(benchmark)?;
    let mut set_dirs: Vec<_> = std::fs::read_dir(sets)?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_dir())
        .collect();
    set_dirs.sort();
    println!(
        "{:<14} {:<18} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}  flag",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    let mut unresolved = 0;
    for workload in names(&contract["workloads"]) {
        let runs: Vec<Value> = set_dirs
            .iter()
            .filter_map(|d| read_json(&d.join(format!("{workload}_untraced.json"))).ok())
            .collect();
        for metric in contract["end_to_end"].as_array().into_iter().flatten() {
            let (Some(name), Some(bound)) = (metric["name"].as_str(), metric["bound"].as_f64())
            else {
                continue;
            };
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r["metrics"][name]["value"].as_f64())
                .collect();
            let Some([q1, q2, q3]) = quartiles(&values) else {
                println!(
                    "{workload:<14} {name:<18} {:>3}  too few runs",
                    values.len()
                );
                continue;
            };
            let spread = (q3 - q1) / q2;
            // `setup_s` is held to its bound on the median only.
            let ok = spread <= bound || name == "setup_s";
            unresolved += usize::from(!ok);
            println!(
                "{workload:<14} {name:<18} {:>3} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {bound:>6.2}  {}",
                values.len(),
                if ok { "ok" } else { "unresolved" }
            );
        }
    }
    println!("{unresolved} unresolved");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 1, 7], n=4) == [1.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 1.0, 7.0]), Some([1.0, 7.0, 10.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
