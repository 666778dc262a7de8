#!/bin/sh
# Writes the deterministic outputs of one build into OUT_DIR, so two builds
# (say, a change and its parent) can be compared for identical bits with
#
#   results/bit_outputs.sh build-a out-a
#   results/bit_outputs.sh build-b out-b
#   diff -r out-a out-b
#
# Usage: results/bit_outputs.sh BUILD_DIR OUT_DIR
#
# Wall-clock columns are left out: the RHC ms/slot column of
# bench_competitive_ratio, and everything of bench_deadline except its
# checks-budget costs and expirations and its baseline cost. The source
# root the build was configured from is replaced by <root>, because
# fault_tolerance prints __FILE__ paths.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 1
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
root=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$build/CMakeCache.txt")
ex="$build/examples"
bench="$build/bench"

# Runs "$@" and writes its stdout and stderr, root path normalised, to $out/$name.
run() {
  name=$1
  shift
  "$@" 2>&1 | sed "s|$root|<root>|g" > "$out/$name"
}

cd "$out"
run quickstart.txt "$ex/quickstart"
run quickstart_sh2.txt env MDO_SHARDS=2 "$ex/quickstart"
run fault_tolerance.txt "$ex/fault_tolerance"
run event_replay.txt "$ex/event_replay"
run headline_t20.txt "$bench/bench_headline_table" --slots 20
"$bench/bench_fig2_beta" --slots 20 --csv "$out/fig2_t20.csv" > /dev/null 2>&1
# The eta sweep: the only output that moves with the predictor's noise.
"$bench/bench_fig5_noise" --slots 20 --csv "$out/fig5_t20.csv" > /dev/null 2>&1
"$bench/bench_collab" --slots 10 --json "$out/collab_t10.json" > /dev/null 2>&1
# E4 at one binding bandwidth: the only output whose P2 solves bind the
# bandwidth row (the theta step's blend).
"$bench/bench_fig4_bandwidth" --slots 10 --bandwidths 2 \
  --csv "$out/fig4_t10_b2.csv" > /dev/null 2>&1
# E8: RHC and FHC side by side; drop the trailing ms/slot column.
"$bench/bench_competitive_ratio" 2>&1 |
  awk '$1 ~ /^[0-9]+$/ && NF == 6 { $6 = "" } { print }' \
  > "$out/competitive_ratio.txt"
# bench_deadline's exit status carries a wall-clock latency gate, and its
# JSON report (written to the working directory) wall-clock figures; only
# its deterministic lines are kept.
"$bench/bench_deadline" 2>&1 |
  sed -n -e 's/^\(baseline cost=[^ ]*\).*/\1/p' \
         -e 's/^\(  checks=.*\)/\1/p' -e '/^robust/p' \
  > "$out/deadline_checks.txt"
rm -f BENCH_deadline.json
echo "wrote $(ls "$out" | wc -l) files to $out"
