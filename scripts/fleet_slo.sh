#!/usr/bin/env bash
# The `fleet-slo` CI gate: drive a live fleet with smtx-loadgen and fail
# the build when the latency budgets in FLEET_SLO.json are blown.
#
#   1. boot two smtxd nodes and an smtx-coord coordinator;
#   2. closed-loop run: budgets from FLEET_SLO.json `closed` — the
#      loadgen exits nonzero on an SLO violation, a failed job, or any
#      transport error. With the 64 closed jobs, the nearest-rank p99 is
#      rank 64 of 64: the p99 budget gates the slowest job (usually the
#      first cold compute), not a tail (DESIGN.md §15f);
#   3. burst run: FLEET_SLO.json `burst` releases N simultaneous
#      connections (256 in CI) through a barrier — this is the
#      "sustains N concurrent connections" gate; completion without
#      transport errors is the assertion, latency budgets are not
#      applied to the spike;
#   4. drain the fleet.
#
# Usage: scripts/fleet_slo.sh [--slo-file PATH]
set -euo pipefail
cd "$(dirname "$0")/.."

SLO_FILE=FLEET_SLO.json
while [[ $# -gt 0 ]]; do
    case "$1" in
        --slo-file) SLO_FILE="$2"; shift 2 ;;
        *) echo "usage: $0 [--slo-file PATH]" >&2; exit 2 ;;
    esac
done
[[ -r "$SLO_FILE" ]] || { echo "missing SLO file $SLO_FILE" >&2; exit 1; }

SMTXD=./target/release/smtxd
COORD=./target/release/smtx-coord
CLIENT=./target/release/smtx-client
LOADGEN=./target/release/smtx-loadgen
for bin in "$SMTXD" "$COORD" "$CLIENT" "$LOADGEN"; do
    [[ -x "$bin" ]] || { echo "missing $bin — build with: cargo build --release" >&2; exit 1; }
done

budget() { # section key -> value from FLEET_SLO.json
    python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))[sys.argv[2]][sys.argv[3]])' \
        "$SLO_FILE" "$1" "$2"
}

WORK=$(mktemp -d)
NODE0_PID=""; NODE1_PID=""; COORD_PID=""
cleanup() {
    for pid in "$NODE0_PID" "$NODE1_PID" "$COORD_PID"; do
        [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

scrape_addr() { # logfile prefix pid -> prints bound addr once it appears
    local log=$1 prefix=$2 pid=$3 addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n "s/^$prefix listening on \([^ ]*\).*/\1/p" "$log")
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; return 1; }
        sleep 0.2
    done
    echo "$prefix did not report its address" >&2; cat "$log" >&2; return 1
}

# 1. The fleet under test: two single-worker nodes, a coordinator with
#    queue headroom for the burst.
"$SMTXD" --port 0 --workers 1 > "$WORK/node0.log" 2>&1 &
NODE0_PID=$!
"$SMTXD" --port 0 --workers 1 > "$WORK/node1.log" 2>&1 &
NODE1_PID=$!
NODE0=$(scrape_addr "$WORK/node0.log" smtxd "$NODE0_PID")
NODE1=$(scrape_addr "$WORK/node1.log" smtxd "$NODE1_PID")
"$COORD" --port 0 --node "$NODE0" --node "$NODE1" --queue-cap 512 \
    > "$WORK/coord.log" 2>&1 &
COORD_PID=$!
ADDR=$(scrape_addr "$WORK/coord.log" smtx-coord "$COORD_PID")
echo "fleet up: coordinator $ADDR over $NODE0 + $NODE1"

# 2. Closed-loop SLO gate.
echo "closed-loop gate:"
"$LOADGEN" --addr "$ADDR" --mode closed \
    --conns "$(budget closed conns)" --jobs "$(budget closed jobs)" \
    --insts "$(budget closed insts)" --spread "$(budget closed spread)" \
    --slo-p50-ms "$(budget closed p50_ms)" --slo-p99-ms "$(budget closed p99_ms)"

# 3. Connection-scale burst (no latency budget on the spike; finishing
#    with zero failed jobs and zero transport errors IS the gate).
echo "burst gate ($(budget burst conns) simultaneous connections):"
"$LOADGEN" --addr "$ADDR" --mode burst \
    --conns "$(budget burst conns)" \
    --insts "$(budget burst insts)" --spread "$(budget burst spread)" \
    --poll-ms 100 --timeout-ms 300000

# 4. Drain.
"$CLIENT" --addr "$ADDR" shutdown --fleet > /dev/null
for pid in "$COORD_PID" "$NODE0_PID" "$NODE1_PID"; do
    for _ in $(seq 1 150); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.2
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "pid $pid did not exit after fleet shutdown" >&2
        exit 1
    fi
done
COORD_PID=""; NODE0_PID=""; NODE1_PID=""
echo "fleet slo ok"
