#!/usr/bin/env bash
# The benchmark's one command. Builds benchmark/ offline, then either
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the pipeline calls it: the last line of stdout is the
#       result object {"correct", "attempted", "failed", "metrics"};
#
#   run.sh [--smoke] [--workload W] [--seed N] [--seconds S]
#       every workload (or W), untraced then traced: prints every metric by
#       name with its unit and sample count, writes benchmark/out/*.json,
#       exits non-zero on any correctness failure. --smoke runs everything
#       at 1/50 size with every check and no timing assertion;
#
#   run.sh --repeat N [--workload W] [--seed N]
#       N sets of untraced runs of this one build, each set on another seed,
#       then per metric x workload the median and quartiles, flagged ok /
#       unresolved against the bound in BENCHMARK.json.
#
# Run it from the root of a checkout. It reads and writes only there.
set -euo pipefail

here="benchmark"
if [ ! -f "$here/Cargo.toml" ] || [ ! -f BENCHMARK.json ]; then
    echo "run.sh: run me from the root of a checkout (no $here/Cargo.toml here)" >&2
    exit 2
fi

workload="" seed=1 seconds="" trace="" scale=1 repeat=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) scale=0.02; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/stage-benchmark"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

# The run length the contract fixes, unless one was asked for.
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
fi
if [ -n "$workload" ]; then
    workloads="$workload"
else
    workloads="$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)"
fi

if [ -n "$trace" ]; then
    [ -n "$workload" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --out "$here/out"
fi

if [ "$repeat" -gt 0 ]; then
    sets="$here/out/repeat"
    rm -rf "$sets"
    for i in $(seq 1 "$repeat"); do
        for w in $workloads; do
            echo "set $i/$repeat: $w" >&2
            "$bin" --workload "$w" --seed $((seed + i - 1)) --seconds "$seconds" \
                --trace 0 --out "$sets/set_$(printf %02d "$i")" >/dev/null
        done
    done
    exec "$bin" summarize BENCHMARK.json "$sets"
fi

status=0
for w in $workloads; do
    for t in 0 1; do
        echo "== $w, $([ $t = 0 ] && echo untraced: end-to-end || echo traced: per-layer)"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
            --scale "$scale" --out "$here/out" | sed '$d' || status=1
    done
done
[ $status = 0 ] && echo "all checks passed" || echo "CHECKS FAILED"
exit $status
