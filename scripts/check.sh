#!/usr/bin/env bash
# Repo-wide gate: formatting, clippy and rustdoc (warnings are errors),
# the workspace test suite — which is where the serving stack's fault
# suite (tests/oracle.rs), the hostile-bytes sweep and the drift episode
# (tests/drift.rs) run — a check that results/ was recorded on this code,
# then the benchmark harness (its self-tests, a 1/50-size run of every
# workload and the served == library run across a drift retrain).
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# The invariant gate. Panic freedom, no clock or entropy in replay code, no
# blocking call on the event loop, unsafe only where justified, and
# `#[expect(<lint>, reason = "…")]` as the only suppression are lint levels
# declared at each crate root and hardened file head, plus clippy.toml's
# disallowed lists (DESIGN.md §8); an expectation that stops suppressing
# anything fails here too.
cargo clippy --workspace --all-targets -- -D warnings
# Broken or private intra-doc links are errors: a deleted or renamed item
# must not leave a dangling [`link`] behind (compiling and tests don't notice).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

cargo test -q --workspace

# results/ must have been recorded on this code: eight quick artefacts that
# time nothing (≈ 4 s together on 2 vCPUs) are regenerated and compared
# byte for byte. Four fit no model, so a change to the generator, the RNG
# stand-in or the JSON writer cannot leave EXPERIMENTS.md describing a fleet
# nobody can replay; three fit every booster in stage-gbdt (the Bayesian
# ensemble, the squared-error Gbm and the quantile band), and
# ablation_coldstart (≈ 3.2 s; 13.8 s while training ran on the autodiff
# tape) trains the global plan-GCN, so a change to a trained model's bits
# cannot leave results/ stale either.
cargo build -q --release -p stage-bench --bin experiments
guard=(fig1a fig1b ablation_hash ablation_welford ablation_uncertainty ablation_mixed ablation_importance ablation_coldstart)
tmp=target/results-guard
./target/release/experiments "${guard[@]}" --quick --out "$tmp" >/dev/null
for id in "${guard[@]}"; do
  cmp "$tmp/$id.json" "results/$id.json" || {
    echo "results/ was not recorded on this code — re-run \`experiments all --quick\`" >&2
    exit 1
  }
done
rm -rf "$tmp"

# Benchmark smoke: the repo's one benchmark (BENCHMARK.json) at 1/50 size,
# every workload untraced then traced. Exits non-zero on any oracle or
# counter-reconciliation failure, and on store.restore_mismatch — the
# store round-trip's CI gate (checkpoint, restore into a fresh registry,
# probes compared to_bits). No timing is asserted. benchmark/ is its own
# workspace, so the sweep above does not reach the harness's self-tests
# (incl. BENCHMARK.json <-> code); run them here.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
timeout 300 bash benchmark/run.sh --smoke
# Served == library with the drift sentinel live: the cheapest run (~3 s)
# that puts a drift retrain inside the oracle prefix (on this seed a shard
# latches and refits within its first 700 queries). Exits non-zero on any
# answer that differs from the in-process StagePredictor's.
timeout 120 bash benchmark/run.sh --workload miss_heavy --seed 107 --seconds 2 --trace 0
