#!/bin/sh
# Regenerates every paper table/figure: one bench binary per artifact.
# Each bench additionally drops a machine-readable run report
# BENCH_<name>.json (headstart-run-report/v1, with the bench name, scale
# and core count under "config") next to the output file; see README
# "Observability". bench_kernels emits BENCH_kernels.json — per-kernel
# and per-int8-tactic GFLOP/s (README "Kernel autotuning"). bench_infer
# self-gates against its committed baseline. Serving capacity and the
# measured parallel-search speedup come from the repository benchmark
# (hsbench/, README "Network serving" and "Parallel search"), not from
# this script.
# Usage: ./run_benches.sh [output-file]
out="${1:-/root/repo/bench_output.txt}"
outdir=$(dirname "$out")
: > "$out"
status=0
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "##### $b" >> "$out"
  case "$name" in
    bench_infer)
      # Gate the fresh int8 speedup and fidelity numbers against the
      # committed baseline before overwriting it: a >25% batch-1 int8
      # slowdown or an argmax-agreement drop below the floor fails the
      # run.
      baseline=""
      [ -f /root/repo/BENCH_infer.json ] && baseline="--baseline /root/repo/BENCH_infer.json"
      # shellcheck disable=SC2086
      "$b" --json "$outdir/BENCH_infer.json" $baseline >> "$out" 2>&1 ;;
    *)
      # Reports are named after the artifact, not the binary:
      # bench_infer -> BENCH_infer.json.
      "$b" --json "$outdir/BENCH_${name#bench_}.json" >> "$out" 2>&1 ;;
  esac
  rc=$?
  echo "exit=$rc $b" >> "$out"
  # A crashing or self-failing bench (e.g. bench_obs' overhead budget)
  # must fail the whole run, not vanish into the log.
  [ "$rc" -eq 0 ] || status=1
done
echo "ALL_BENCHES_DONE" >> "$out"
exit "$status"
