#!/usr/bin/env bash
# Replays hot-repeat, paper-mix and paper-growth, each once with tracing
# off (end-to-end metrics) and once traced (per-layer metrics), and exits
# non-zero if any answer or ledger check failed. Run from the repository
# root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -uo pipefail

seed=${1:-1}
seconds=${2:-40}
status=0
for w in hot-repeat paper-mix paper-growth; do
	for t in 0 1; do
		echo "== $w trace=$t seed=$seed seconds=$seconds"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" || status=1
	done
done
exit "$status"
