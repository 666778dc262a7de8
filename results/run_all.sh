#!/bin/sh
# Regenerates every experiment in DESIGN.md §5 that still has a bench of
# its own (default T=50; pass-through of the paper-scale run: add --slots
# 100 to each line). E9-E11, E14 and E15 are measured by perfbench/run.py
# and gated by ctest (EXPERIMENTS.md).
set -x
cd "$(dirname "$0")/.."
./build/bench/bench_headline_table          > results/headline.txt 2>&1
./build/bench/bench_fig2_beta    --csv results/fig2.csv > results/fig2.txt 2>&1
./build/bench/bench_fig3_window  --csv results/fig3.csv > results/fig3.txt 2>&1
./build/bench/bench_fig4_bandwidth --csv results/fig4.csv > results/fig4.txt 2>&1
./build/bench/bench_fig5_noise   --csv results/fig5.csv > results/fig5.txt 2>&1
./build/bench/bench_ablation                > results/ablation.txt 2>&1
./build/bench/bench_competitive_ratio       > results/competitive_ratio.txt 2>&1
./build/bench/bench_solvers                 > results/solvers.txt 2>&1
./build/bench/bench_deadline --json results/BENCH_deadline.json > results/deadline.txt 2>&1
./build/bench/bench_events --rss-slots 1500 --rss-scale 250 --min-requests 10000000 --json results/BENCH_events.json > results/events.txt 2>&1
# E16 — collaborative SBS-to-SBS caching: cooperative vs non-cooperative on
# ring/grid/geo topologies; fails unless cooperation strictly helps on every
# topology and the zero-bandwidth arms agree bit for bit.
./build/bench/bench_collab --require-coop-improvement --json results/BENCH_collab.json > results/collab.txt 2>&1
echo ALL_BENCHES_DONE
