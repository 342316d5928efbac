#!/usr/bin/env bash
# End-to-end smoke of the smtx fleet (the `fleet-smoke` CI job):
#
#   1. boot two smtxd nodes and an smtx-coord coordinator (placement by
#      spec-digest shard);
#   2. submit a job through the coordinator and byte-compare the result
#      fragment with the fig5 binary's --json output (DESIGN.md §15c);
#   3. shut down the node that ran it, then submit cheap compress specs
#      over a fixed seed list until one homed to the dead node fails over
#      to the survivor (`smtx_coord_redispatches` reaches 1); shard homes
#      are a pure function of the spec, so the same seed wins every run.
#      Resubmitting that spec must be answered from the fleet-wide result
#      store and counted as a CROSS-NODE hit (its producer is not its
#      home);
#   4. stream a batch through the coordinator via smtx-client batch;
#   5. drain the whole fleet with one `shutdown --fleet` and require the
#      coordinator AND both nodes to exit cleanly.
#
# Usage: scripts/fleet_smoke.sh [--insts N] [--seed N]
set -euo pipefail
cd "$(dirname "$0")/.."

INSTS=8000
SEED=42
while [[ $# -gt 0 ]]; do
    case "$1" in
        --insts) INSTS="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        *) echo "usage: $0 [--insts N] [--seed N]" >&2; exit 2 ;;
    esac
done

SMTXD=./target/release/smtxd
COORD=./target/release/smtx-coord
CLIENT=./target/release/smtx-client
FIG5=./target/release/fig5
for bin in "$SMTXD" "$COORD" "$CLIENT" "$FIG5"; do
    [[ -x "$bin" ]] || { echo "missing $bin — build with: cargo build --release" >&2; exit 1; }
done

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

# 1. Two nodes, one coordinator.
"$SMTXD" --port 0 --workers 1 > "$WORK/node0.log" 2>&1 &
NODE0_PID=$!
"$SMTXD" --port 0 --workers 1 > "$WORK/node1.log" 2>&1 &
NODE1_PID=$!
NODE0=$(scrape_addr "$WORK/node0.log" smtxd "$NODE0_PID")
NODE1=$(scrape_addr "$WORK/node1.log" smtxd "$NODE1_PID")
"$COORD" --port 0 --node "$NODE0" --node "$NODE1" > "$WORK/coord.log" 2>&1 &
COORD_PID=$!
ADDR=$(scrape_addr "$WORK/coord.log" smtx-coord "$COORD_PID")
echo "fleet up: coordinator $ADDR over $NODE0 + $NODE1"

# 2. Job through the coordinator vs the fig5 binary, rows byte-compared.
"$CLIENT" --addr "$ADDR" --retries 3 submit --experiment fig5 \
    --insts "$INSTS" --seed "$SEED" --wait --out "$WORK/served.json"
"$FIG5" --insts "$INSTS" --seed "$SEED" --json "$WORK/direct.json" > /dev/null
python3 - "$WORK/served.json" "$WORK/direct.json" <<'EOF'
import json, sys
served, direct = (json.load(open(p)) for p in sys.argv[1:3])
for field in ("experiment", "insts", "seed", "columns", "rows"):
    assert served[field] == direct[field], (
        f"{field} differs:\nserved: {served[field]}\ndirect: {direct[field]}")
print(f"fleet rows identical to direct fig5 ({len(served['rows'])} rows)")
EOF

# 3. Failover, then a cross-node store hit. Shut down the node the fig5
#    job ran on; the first compress spec homed to it is refused there,
#    marks it dead and runs on the survivor.
metric() { "$CLIENT" --addr "$ADDR" metrics | sed -n "s/^$1 //p"; }
if [[ $(metric smtx_coord_node_dispatched_0) == 1 ]]; then
    DEAD=0 DEAD_ADDR=$NODE0 DEAD_PID=$NODE0_PID
else
    DEAD=1 DEAD_ADDR=$NODE1 DEAD_PID=$NODE1_PID
fi
"$CLIENT" --addr "$DEAD_ADDR" shutdown > /dev/null
for _ in $(seq 1 150); do
    kill -0 "$DEAD_PID" 2>/dev/null || break
    sleep 0.2
done
FAILOVER=""
for seed in $(seq 1 32); do
    "$CLIENT" --addr "$ADDR" submit --kernel compress --insts 2000 --seed "$seed" \
        --wait --out /dev/null
    if [[ $(metric smtx_coord_redispatches) == 1 ]]; then
        FAILOVER=$seed
        break
    fi
done
[[ -n "$FAILOVER" ]] \
    || { echo "no compress seed in 1..32 is homed to node $DEAD" >&2; exit 1; }
echo "node $DEAD shut down; compress seed $FAILOVER failed over to the survivor"
RESUBMIT=$("$CLIENT" --addr "$ADDR" submit --kernel compress --insts 2000 --seed "$FAILOVER")
echo "$RESUBMIT" | grep -q '"deduped": true' \
    || { echo "resubmission was not deduped: $RESUBMIT" >&2; exit 1; }
METRICS=$("$CLIENT" --addr "$ADDR" metrics)
for want in 'smtx_coord_store_hits 1' 'smtx_coord_store_cross_node_hits 1'; do
    echo "$METRICS" | grep -q "^$want\$" \
        || { echo "expected \`$want\` in coordinator metrics:"; echo "$METRICS"; exit 1; } >&2
done
echo "cross-node store hit ok"

# 4. Batch through the coordinator: the stored spec plus a fresh one.
cat > "$WORK/specs.json" <<SPECS
[{"experiment": "fig5", "insts": $INSTS, "seed": $SEED},
 {"kernel": "compress", "insts": $INSTS, "mechanism": "multithreaded", "seed": $SEED}]
SPECS
"$CLIENT" --addr "$ADDR" batch --file "$WORK/specs.json" > "$WORK/batch.ndjson"
grep -q '"done": true, "batch": 2' "$WORK/batch.ndjson" \
    || { echo "batch stream incomplete:" >&2; cat "$WORK/batch.ndjson" >&2; exit 1; }
echo "batch ok ($(wc -l < "$WORK/batch.ndjson") frames)"

# 5. One shutdown drains the coordinator, then both nodes.
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
grep -q "drained and stopped" "$WORK/coord.log" \
    || { echo "coordinator missing clean-exit line:" >&2; cat "$WORK/coord.log" >&2; exit 1; }
grep -q "drained and stopped" "$WORK/node0.log" \
    || { echo "node 0 missing clean-exit line:" >&2; cat "$WORK/node0.log" >&2; exit 1; }
grep -q "drained and stopped" "$WORK/node1.log" \
    || { echo "node 1 missing clean-exit line:" >&2; cat "$WORK/node1.log" >&2; exit 1; }
echo "fleet smoke ok"
