#!/usr/bin/env bash
# End-to-end smoke test for the astra_serve monitoring daemon.
#
# Generates a small fleet with examples/serve_fleet, batch-analyzes the
# combined dataset as the oracle, then runs the daemon for real: wait for it
# to quiesce, assert /fleet/report is byte-identical to the batch report,
# SIGTERM it, assert a clean exit that leaves the whole tree checkpointed as
# one file (the checkpoint directory holds manifest.ckp and nothing else: no
# node-*.ckp, no .tmp), delete the primary logs, and prove a second daemon
# restores the identical report from that file alone.
#
# Usage: serve_smoke.sh BUILD_DIR
set -euo pipefail

build_dir=${1:?usage: serve_smoke.sh BUILD_DIR}
serve_fleet=$build_dir/examples/serve_fleet
astra_mrt=$build_dir/src/tools/astra-mrt
astra_serve=$build_dir/src/tools/astra_serve

for binary in "$serve_fleet" "$astra_mrt" "$astra_serve"; do
  if [ ! -x "$binary" ]; then
    echo "serve-smoke: missing binary $binary" >&2
    exit 2
  fi
done

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

topology="--racks=2 --nodes-per-rack=6"

echo "serve-smoke: generating fleet + batch oracle"
"$serve_fleet" "$work/fleet" $topology --seed=42 > /dev/null
"$astra_mrt" analyze "$work/fleet/combined" > "$work/batch.txt"

echo "serve-smoke: starting daemon"
"$astra_serve" "$work/fleet" $topology \
  --poll-ms=50 --merge-ms=100 --quiesce-ms=300 \
  --port-file="$work/port" --checkpoint-dir="$work/ckp" \
  2> "$work/serve.log" &
daemon_pid=$!

for _ in $(seq 1 100); do
  [ -s "$work/port" ] && break
  sleep 0.1
done
if [ ! -s "$work/port" ]; then
  echo "serve-smoke: daemon never wrote its port file" >&2
  cat "$work/serve.log" >&2
  exit 1
fi
port=$(cat "$work/port")
base="http://127.0.0.1:$port"

echo "serve-smoke: waiting for quiesce on port $port"
quiesced=0
for _ in $(seq 1 300); do
  if "$astra_serve" get "$base/stats" 2>/dev/null \
      | grep -q '"quiesced": true'; then
    quiesced=1
    break
  fi
  sleep 0.1
done
if [ "$quiesced" -ne 1 ]; then
  echo "serve-smoke: daemon never quiesced" >&2
  cat "$work/serve.log" >&2
  exit 1
fi

"$astra_serve" get "$base/healthz" | grep -qx "ok"
"$astra_serve" get "$base/fleet/report" > "$work/served.txt"
cmp "$work/batch.txt" "$work/served.txt"
echo "serve-smoke: /fleet/report is byte-identical to batch analyze"

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
echo "serve-smoke: daemon exited cleanly on SIGTERM"

checkpoint_files=$(ls -A "$work/ckp")
if [ "$checkpoint_files" != "manifest.ckp" ]; then
  echo "serve-smoke: expected exactly manifest.ckp in the checkpoint" \
    "directory after shutdown, found: ${checkpoint_files:-nothing}" >&2
  exit 1
fi

echo "serve-smoke: deleting primary logs, restoring from checkpoint"
rm "$work"/fleet/node-*/memory_errors.tsv "$work"/fleet/node-*/het_events.tsv
"$astra_serve" "$work/fleet" $topology --drain \
  --checkpoint-dir="$work/ckp" > "$work/restored.txt"
cmp "$work/batch.txt" "$work/restored.txt"

echo "serve-smoke: OK (live report, clean shutdown, checkpoint restore)"
