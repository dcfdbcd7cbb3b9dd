#!/usr/bin/env bash
# Repo-wide gate: formatting, clippy and rustdoc (warnings are errors),
# the workspace test suite — which is where the serving stack's fault
# suite (tests/oracle.rs), the hostile-bytes sweep and the drift episode
# (tests/drift.rs) run — then, in the release build the servers ship, its
# release-only tests, the digests that pin every trained bit (the
# boosters' and the global plan-GCN's) and the store's restore == original
# property, a check that results/ was recorded
# on this code, then the benchmark harness (its self-tests, a
# 1/50-size run of every workload and the served == library run across a
# drift retrain).
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
# The step above builds with debug assertions, which compiles out the
# release-only twins of two debug_assert tests: a system or feature vector
# of the wrong width is padded or cut to the trained width in release
# builds, the servers' build, instead of asserting. Run them here, with the
# global plan-GCN's two trained-weight digests (global::tests::
# trained_weights_*), so its training and predict are pinned in that build
# too, and with the property test that holds the one tree kernel to the
# stop-at-a-leaf reference walk (tree::tests::
# prop_kernel_walk_equals_the_reference), so the walk the servers run is
# the one checked, and with the property test that holds a grown row's
# leaf to the one the kernel finds from its ranks (tree::tests::
# prop_grown_leaves_are_the_walked_leaves): the boosting loop's own check
# of that is a debug_assert, so in this build only the property checks the
# leaf the loop takes without walking. Also the property test that holds
# an observe which reuses a memoised local answer to one that walks again
# (stage::tests::prop_held_answers_change_nothing) and the test that
# counts the memo's walks
# (stage::tests::a_cached_plan_is_walked_once_per_generation): the debug
# build also walks and compares on every reuse, so only here is the reuse
# alone checked. A filter that matches no test fails the step, so a
# renamed test cannot leave it running nothing.
release_tests=(-p stage-core -p stage-gbdt --lib)
release_filters=(in_release global::tests::trained_weights tree::tests::prop_kernel_walk_equals_the_reference tree::tests::prop_grown_leaves_are_the_walked_leaves stage::tests::prop_held_answers_change_nothing stage::tests::a_cached_plan_is_walked_once_per_generation)
listed=$(cargo test --release -q "${release_tests[@]}" -- --list "${release_filters[@]}")
for filter in "${release_filters[@]}"; do
  grep -qF -- "$filter" <<<"$listed" || {
    echo "no test matches the release filter \`$filter\`" >&2
    exit 1
  }
done
cargo test --release -q "${release_tests[@]}" -- "${release_filters[@]}"
# The heap bounds in the same build, with the allocation counts only it
# compiles (tests/memory.rs: a memoised cache-hit observe allocates no more
# than feature extraction does, and each predict no more than measured).
cargo test --release -q --test memory
# Beside the kernel's property test, the boosters' own batch identity
# (crates/gbdt/tests/batch_identity.rs: each row alone against the batch,
# and a decoded ensemble against the trained one), in the same build.
cargo test --release -q -p stage-gbdt --test batch_identity
# The digests that pin every trained bit of the boosters, in the build the
# servers ship: the release profile compiles out the debug assertions the
# step above keeps (the boosting loop's check that each grown row's leaf is
# the one the walk finds, the grower's subtraction check), so the digests
# are checked once without them.
cargo test --release -q --test exactness
# Restore == the original, in the build the servers ship: there a pool
# row of the wrong width is padded by `Dataset::push` instead of tripping
# its debug assertion, so only here would a restore that trusted a lying
# width retrain on zero-padded rows unnoticed.
cargo test --release -q -p stage-core --test store_identity

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
