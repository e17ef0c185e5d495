#!/bin/bash
# Regenerates every paper table/figure plus the ablations.
#
# Failures are loud: stderr is shown, every failing bench is reported, and
# the script exits nonzero if any bench failed. fig6/fig7/kernel_gemm also
# emit machine-readable BENCH_fig6.json / BENCH_fig7.json /
# BENCH_kernel_gemm.json at the repo root (and enqueue_throughput, tune,
# transport and sec3_overheads their BENCH_enqueue/tune/transport/pool.json).
set -u
# HS_CHAOS_SEED passes through to every bench: fig6 switches into its
# fault-injection smoke (recovery assertions instead of the figure sweep)
# and write_bench_json refuses BENCH_*.json rows — chaotic measurements
# must never be mistaken for the paper's numbers.
if [ -n "${HS_CHAOS_SEED:-}" ]; then
  echo "HS_CHAOS_SEED=${HS_CHAOS_SEED}: fault injection armed;"
  echo "BENCH_*.json artifacts will be refused for this run."
fi
failed=()
for b in fig2_machines sec3_overheads fig3_coding fig6_matmul fig7_cholesky \
         fig8_abaqus fig9_supernode sec4_ompss_backend sec6_rtm ablation_lu \
         ablation_tuning ablation_scheduling runtime_primitives kernel_gemm \
         enqueue_throughput tune transport; do
  echo ""
  echo "################ bench: $b ################"
  if ! cargo bench -p hs-bench --bench "$b"; then
    echo "!!! bench $b FAILED"
    failed+=("$b")
  fi
done
echo ""
if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED benches: ${failed[*]}"
  exit 1
fi
if [ -n "${HS_CHAOS_SEED:-}" ]; then
  echo "all benches passed under fault injection (seed ${HS_CHAOS_SEED}); no JSON artifacts written"
else
  echo "all benches passed; JSON artifacts: BENCH_fig6.json BENCH_fig7.json BENCH_kernel_gemm.json BENCH_enqueue.json BENCH_tune.json BENCH_transport.json BENCH_pool.json"
fi
