#!/usr/bin/env bash
# Same-core A/B of two smtx-perfbench builds. Each round starts both at
# the same time, pinned with `taskset -c N` to the same CPU N (N
# alternates over this process's CPUs from round to round), so the two
# share whatever frequency, cache and neighbour load that core has. It
# prints each round's change/parent `cpu_s` ratio and their median.
#
# Only CPU time is compared: two processes time-sharing one core distort
# each other's wall time, not their CPU time. Sequential runs of one
# binary on a shared 2-CPU host differed 5-16% in median; one binary
# against itself under this script (fig5-window, 6 rounds, ~80 s) read
# round ratios 0.984-1.009 and a median of 0.997.
#
# Usage: scripts/same_core_ab.sh PARENT_BIN CHANGE_BIN WORKLOAD ROUNDS
#   PARENT_BIN, CHANGE_BIN  smtx-perfbench executables (each built in its
#                           own checkout: `cargo build --release --offline
#                           --locked --manifest-path perfbench/Cargo.toml`)
#   WORKLOAD                fig5-window | fig5-deep-ff | fig7-smt | fleet-closed
#   ROUNDS                  number of paired runs
set -euo pipefail

if [[ $# -ne 4 ]]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD ROUNDS" >&2
    exit 2
fi
PARENT=$1 CHANGE=$2 WORKLOAD=$3 ROUNDS=$4
for bin in "$PARENT" "$CHANGE"; do
    [[ -x "$bin" ]] || { echo "not an executable: $bin" >&2; exit 2; }
done
[[ "$ROUNDS" =~ ^[1-9][0-9]*$ ]] || { echo "ROUNDS must be a positive integer" >&2; exit 2; }
command -v taskset > /dev/null || { echo "taskset not found" >&2; exit 1; }

read -r -a CPUS <<< "$(python3 -c 'import os; print(*sorted(os.sched_getaffinity(0)))')"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cpu_s() { # perfbench stdout file -> its cpu_s metric
    sed -n 's/^metric cpu_s = \([^ ]*\) s$/\1/p' "$1"
}

RATIOS=()
for ((r = 0; r < ROUNDS; r++)); do
    cpu=${CPUS[r % ${#CPUS[@]}]}
    taskset -c "$cpu" "$PARENT" --workload "$WORKLOAD" > "$WORK/parent.txt" 2>&1 &
    parent_pid=$!
    taskset -c "$cpu" "$CHANGE" --workload "$WORKLOAD" > "$WORK/change.txt" 2>&1 &
    change_pid=$!
    ok=1
    wait "$parent_pid" || ok=0
    wait "$change_pid" || ok=0
    p=$(cpu_s "$WORK/parent.txt")
    c=$(cpu_s "$WORK/change.txt")
    if [[ $ok -eq 0 || -z "$p" || -z "$c" ]]; then
        echo "round $r: a run failed; its output:" >&2
        cat "$WORK/parent.txt" "$WORK/change.txt" >&2
        exit 1
    fi
    ratio=$(python3 -c 'import sys; print(f"{float(sys.argv[2]) / float(sys.argv[1]):.4f}")' "$p" "$c")
    RATIOS+=("$ratio")
    echo "round $r cpu $cpu: parent cpu_s $p change cpu_s $c ratio $ratio"
done
python3 -c 'import statistics, sys; print(f"median cpu_s ratio (change/parent) {statistics.median(map(float, sys.argv[1:])):.4f}")' "${RATIOS[@]}"
