#!/bin/sh
# Run every workload of the gcflsim benchmark in order.
# Usage, from the root of a checkout: sh perfbench/all.sh [SEED] [SECONDS] [TRACE]
# TRACE 0 (the default) prints the end-to-end metrics, 1 the per-layer ones.
set -e
seed=${1:-1}
seconds=${2:-40}
trace=${3:-0}
for workload in fed-synth hetero-synth analysis-tu; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace"
done
