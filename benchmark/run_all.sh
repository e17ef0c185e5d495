#!/usr/bin/env bash
# Everything the benchmark measures, twice, and the verdict: two back-to-back
# sets of runs of this checkout (ten seeds per workload untraced, one traced
# run per workload), then `hs-e2e compare` of the second set against the
# first. Run from the repository root. About 40 minutes; SEEDS=3 for a
# quicker look.
set -euo pipefail
SEEDS=${SEEDS:-10}
OUT=benchmark/out
WORKLOADS="matmul_local cholesky_local matmul_uds smallact smallact_wal"
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/hs-e2e
mkdir -p "$OUT"
for set in A B; do
    rm -f "$OUT/set_$set.jsonl"
    for w in $WORKLOADS; do
        for seed in $(seq 1 "$SEEDS"); do
            "$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
                --record "$OUT/set_$set.jsonl" >/dev/null
        done
        "$BIN" --workload "$w" --seed 1 --seconds "$SECONDS_PER_RUN" --trace 1 \
            --record "$OUT/set_$set.jsonl" >/dev/null
    done
done
"$BIN" compare "$OUT/set_A.jsonl" "$OUT/set_B.jsonl"
