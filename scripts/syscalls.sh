#!/usr/bin/env bash
# How often do a command's threads enter the kernel to sleep, wake or yield?
#
# Builds scripts/syscalls.c with cc into a temporary directory, runs the
# command with it preloaded (children of the command too: a benchmark's
# worker process is counted beside it) and prints, per thread-name prefix
# (the name up to its trailing number: hs-pool-0 and hs-pool-1 are hs-pool):
#
#   threads  threads of that name
#   wakes    futex wakes sent
#   woke     wakes that woke a thread
#   wasted   wakes - woke: a system call that woke nobody
#   waits    futex waits
#   yields   sched_yield calls
#
# then the total. With --actions N the total is also divided by N, and with
# --max-wasted X as well the script exits 1 when wasted wakes per action
# exceed X. The counts move with timing, so use the gate as a ceiling.
#
#   scripts/syscalls.sh [--actions N [--max-wasted X]] [--] COMMAND [ARGS...]
#
# Run a built binary, not `cargo run`: cargo and rustc would be counted too.
# For example, the benchmark's smallact smoke run is 4 repetitions (a warm-up
# and 3 measured) of 2,000 actions:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   scripts/syscalls.sh --actions 8000 --max-wasted 0.05 -- \
#       benchmark/target/release/hs-e2e --workload smallact --seed 1 --smoke --trace 0
#
# The command's exit status is kept: the script fails when the command does.
set -euo pipefail

actions= max_wasted=
while [ $# -gt 0 ]; do
    case $1 in
    --actions) actions=$2; shift 2 ;;
    --max-wasted) max_wasted=$2; shift 2 ;;
    --) shift; break ;;
    *) break ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "usage: $0 [--actions N [--max-wasted X]] [--] COMMAND [ARGS...]" >&2
    exit 2
fi
if [ -n "$max_wasted" ] && [ -z "$actions" ]; then
    echo "$0: --max-wasted needs --actions" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cc -O2 -shared -fPIC -o "$tmp/syscalls.so" "$(dirname "$0")/syscalls.c" -ldl

touch "$tmp/counts"
status=0
SYSCALLS_OUT=$tmp/counts LD_PRELOAD=$tmp/syscalls.so "$@" || status=$?
if [ "$status" -ne 0 ]; then
    echo "$0: the command exited with status $status" >&2
    exit "$status"
fi

# Each line: pid threads wakes woke waits yields name (the name may hold
# spaces, so it is the rest of the line).
awk -v actions="$actions" -v max_wasted="$max_wasted" '
{
    name = $0
    for (i = 1; i <= 6; i++) sub(/^[^ ]+ /, "", name)
    prefix = name
    sub(/-?[0-9]+$/, "", prefix)
    if (prefix == "") prefix = name
    if (!(prefix in threads)) order[++n] = prefix
    threads[prefix] += $2; wakes[prefix] += $3; woke[prefix] += $4
    waits[prefix] += $5; yields[prefix] += $6
}
END {
    fmt = "%-16s %8s %10s %10s %10s %10s %10s\n"
    printf fmt, "threads", "count", "wakes", "woke", "wasted", "waits", "yields"
    for (i = 1; i <= n; i++) {
        p = order[i]
        printf fmt, p, threads[p], wakes[p], woke[p], wakes[p] - woke[p], waits[p], yields[p]
        t[1] += threads[p]; t[2] += wakes[p]; t[3] += woke[p]
        t[4] += wakes[p] - woke[p]; t[5] += waits[p]; t[6] += yields[p]
    }
    printf fmt, "total", t[1], t[2], t[3], t[4], t[5], t[6]
    if (actions == "") exit 0
    printf "%-16s %8s %10.3f %10.3f %10.3f %10.3f %10.3f\n", "per action", "", \
        t[2] / actions, t[3] / actions, t[4] / actions, t[5] / actions, t[6] / actions
    if (max_wasted != "" && t[4] / actions > max_wasted) {
        printf "wasted futex wakes per action %.3f exceed %s\n", t[4] / actions, max_wasted
        exit 1
    }
}' "$tmp/counts"
