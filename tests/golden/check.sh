#!/usr/bin/env bash
# Byte-identity against committed outputs: gdlog_cli --json on E1 (network
# clique-4), E3 (dime/quarter) and a plain Datalog¬ program must reproduce
# the files in this directory exactly, serially, with 3, 4 and 8 chase
# threads (3 makes uneven per-worker sorted runs; 8 outnumbers a 4-vCPU
# host's cores and leaves some workers' runs empty on the small programs),
# with 4 shards in one process, and with 4 shards run one per process
# (--shard-index 0..3, each partial written to a file) and recombined by
# --merge, which sends every partial through the partial wire format. A
# fifth configuration re-renders each partial file with Python's json
# module (keys sorted, one member per line) before --merge, so the partial
# reader is shown not to depend on member order or whitespace.
# The goldens were generated by the engine that preceded the perfect
# grounder's resume and leaf read-off, so this compares against an
# earlier binary, not only between configurations of the current one.
#
# Two runs reach the general stable-model solver instead of the perfect
# grounder's read-off: E1 under --grounder simple (which reproduces
# e1_clique4.json byte for byte), and the quarantine program, whose
# quarantined/free even loop is not stratified. e1_quarantine_clique4.json
# was generated by the engine that preceded the incremental solver.
#
# reach_islands.gdl is plain Datalog¬ (no Δ-terms) with two negation strata
# and a constraint: its chase tree is a single root, so one outcome of
# probability 1 carries the perfect model and three of the four shards are
# empty. reach_islands.json was generated by the engine that still carried
# a separate stratified Datalog evaluator.
#
# e1_mc_clique4.txt and e1_quarantine_mc_clique4.txt are the Monte-Carlo
# report (--mc 2000 --seed 7, two --query atoms) of the network and the
# quarantine program on clique-4, generated by the build that still walked
# the sampled paths once per statistic (1 + 2k passes for k queries). They
# run once, after the configuration loop: --mc takes no --threads or
# --shards.
#
#   tests/golden/check.sh [path/to/gdlog_cli]   (default build/tools/gdlog_cli)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cli="$(realpath "${1:-$here/../../build/tools/gdlog_cli}")"
cd "$here"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

rekey='import json, sys
json.dump(json.load(sys.stdin), sys.stdout, sort_keys=True, indent=1)'

# Runs gdlog_cli with the given arguments under configuration $config.
run() {
  if [ "${config%/--merge}" != "$config" ]; then
    local merge=()
    for i in 0 1 2 3; do
      "$cli" "$@" --shards 4 --shard-index "$i" > "$tmp/partial$i.json" \
        || return 1
      if [ "$config" = "--shard-index/rekey/--merge" ]; then
        python3 -c "$rekey" < "$tmp/partial$i.json" > "$tmp/rekeyed$i.json" \
          || return 1
        mv "$tmp/rekeyed$i.json" "$tmp/partial$i.json"
      fi
      merge+=(--merge "$tmp/partial$i.json")
    done
    "$cli" "$@" "${merge[@]}"
  else
    # shellcheck disable=SC2086  # $config is two words on purpose
    "$cli" "$@" $config
  fi
}

status=0
for config in "--threads 1" "--threads 3" "--threads 4" "--threads 8" \
    "--shards 4" "--shard-index/--merge" "--shard-index/rekey/--merge"; do
  if ! run --program network.gdl --db clique4.db --json --events \
      | cmp - e1_clique4.json; then
    echo "E1 clique-4 differs from the golden ($config)" >&2
    status=1
  fi
  if ! run --program network.gdl --db clique4.db --json --events \
      --grounder simple | cmp - e1_clique4.json; then
    echo "E1 clique-4 under --grounder simple differs from the golden" \
      "($config)" >&2
    status=1
  fi
  if ! run --program quarantine.gdl --db clique4.db --json --events \
      | cmp - e1_quarantine_clique4.json; then
    echo "E1 quarantine clique-4 differs from the golden ($config)" >&2
    status=1
  fi
  if ! run --program dime_quarter.gdl --db dime_quarter.db --json \
      --outcomes --events | cmp - e3_dime_quarter.json; then
    echo "E3 dime/quarter differs from the golden ($config)" >&2
    status=1
  fi
  if ! run --program reach_islands.gdl --db reach_islands.db --json \
      --outcomes --events | cmp - reach_islands.json; then
    echo "plain reach/islands differs from the golden ($config)" >&2
    status=1
  fi
done
for pair in network:e1_mc_clique4.txt \
    quarantine:e1_quarantine_mc_clique4.txt; do
  if ! "$cli" --program "${pair%%:*}.gdl" --db clique4.db --mc 2000 \
      --seed 7 --query 'infected(2, 1)' --query 'infected(3, 1)' \
      | cmp - "${pair#*:}"; then
    echo "Monte-Carlo report of ${pair%%:*}.gdl differs from the golden" >&2
    status=1
  fi
done
if [ "$status" = 0 ]; then echo "golden bytes: all configurations match"; fi
exit "$status"
