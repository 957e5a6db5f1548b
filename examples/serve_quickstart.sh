#!/usr/bin/env bash
# Serving quickstart: boot gdlogd, register the paper's network-resilience
# program over curl, query it exactly (twice — the second answer comes from
# the inference cache), ask for marginals, sample, and read the counters.
#
# Usage: examples/serve_quickstart.sh [build_dir]   (default: build)
#
# Everything is plain curl + JSON, so this doubles as the HTTP API tour:
#   POST /v1/programs             register a program+DB once, get a stable id
#   POST /v1/query                exact inference (cached by fingerprint);
#                                 body is byte-identical to `gdlog_cli --json`
#   POST /v1/sample               Monte-Carlo estimates (never cached)
#   GET  /v1/healthz, /v1/stats   liveness and cache/request counters
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${1:-build}
gdlogd=$build_dir/tools/gdlogd
if [ ! -x "$gdlogd" ]; then
  echo "error: $gdlogd not built (cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

port=18090
"$gdlogd" --port $port &
daemon=$!
trap 'kill -TERM $daemon 2>/dev/null; wait $daemon 2>/dev/null' EXIT
for _ in $(seq 1 100); do
  curl -fsS "http://127.0.0.1:$port/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

base="http://127.0.0.1:$port/v1"

echo "== register the 3-router clique (Examples 1.1/3.6; expect P(consistent) = 19/100)"
id=$(curl -fsS -X POST "$base/programs" -d '{
  "program": "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y). uninfected(X) :- router(X), not infected(X, 1). :- uninfected(X), uninfected(Y), connected(X, Y).",
  "db": "router(1). router(2). router(3). connected(1,2). connected(2,1). connected(1,3). connected(3,1). connected(2,3). connected(3,2). infected(1, 1)."
}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "program id: $id"

echo
echo "== exact query (cold: runs the chase)"
curl -fsS -X POST "$base/query" -d "{\"program_id\":\"$id\"}"

echo
echo "== the same query again (served from the cache — see /v1/stats below)"
curl -fsS -X POST "$base/query" -d "{\"program_id\":\"$id\"}"

echo
echo "== credal marginal bounds for one atom, conditioned on consistency"
curl -fsS -X POST "$base/query" -d "{\"program_id\":\"$id\",
  \"queries\":[\"infected(2, 1)\"], \"condition\":true}"

echo
echo "== Monte-Carlo estimate (never cached)"
curl -fsS -X POST "$base/sample" -d "{\"program_id\":\"$id\",
  \"samples\":2000, \"seed\":7, \"queries\":[\"infected(2, 1)\"]}"

echo
echo "== counters: one miss (the cold chase), the repeat was a hit"
curl -fsS "$base/stats"
