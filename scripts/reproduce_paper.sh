#!/usr/bin/env bash
# Reproduces every table and figure of the paper's evaluation, in order,
# writing one log (results/<bench>.txt) and one machine-readable
# commdet-run-report JSON (results/<bench>.json, schema v1) per
# experiment.
#
#   scripts/reproduce_paper.sh [extra bench flags...]
#
# Pass e.g. "--scale 24 --edgefactor 16 --max-threads 80" on paper-scale
# hardware; defaults fit a laptop/container.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results
for bench in \
    bench_table1_platform bench_table2_graphs bench_table3_rate \
    bench_fig1_time bench_fig2_speedup bench_fig3_large \
    bench_ablation_hashing bench_ablation_matching bench_ablation_contraction \
    bench_quality bench_complexity bench_refinement \
    bench_phase_scaling; do
  echo "== ${bench}"
  "./build/bench/${bench}" --report "results/${bench}.json" "$@" \
    | tee "results/${bench}.txt"
done
# bench_primitives is google-benchmark; its native JSON is the report.
./build/bench/bench_primitives \
  --benchmark_out=results/bench_primitives.json --benchmark_out_format=json \
  | tee results/bench_primitives.txt

echo "All experiment logs (.txt) and run reports (.json) written to results/."
