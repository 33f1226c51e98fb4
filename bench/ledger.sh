#!/usr/bin/env bash
# Prints the exhibit ledger: the md5 of the harness's stdout and of
# each CSV it writes, then the harness's work counters, at --quick and
# the given job count (default 1).
#
#   bash bench/ledger.sh [JOBS] > ledger.txt
#
# Exhibit stdout and CSVs are the specification of behaviour, so the
# ledger must equal the committed bench/ledger.txt at every job count.
# Before hashing, stdout loses its header line (it names the job
# count), the "done in" wall-time lines and everything from "Total
# harness time" on. Lines are "<md5>  <name>", stdout first, then the
# CSVs sorted by name.
#
# The counters come from the same run's --metrics table, as
# "<value>  <counter>" in the table's order: the simulations run
# (sim.runs) and the work they did (sim.instructions, sim.cycles, and
# the event kernel's ready-set insertions and skipped idle cycles,
# sim.events and sim.skipped_cycles), the IW kernel's points, cycles,
# instructions and binding terms (iw.*), the memo computations and
# joins, and the packings made and rows written (trace.packs,
# trace.rows). The harness memoizes every simulation by its machine
# configuration, benchmark and length, so a duplicate or lost
# simulation moves sim.runs and memo.computes; a kernel change that
# alters the simulated work moves the sim.* lines. These counters do
# not depend on scheduling; pool.*, memo.contention and spans.* do and
# stay out. The harness packs its presets explicitly, once each; only
# the phase exhibit goes through Packed.at_least, whose characterization
# reuses the packing its simulation just dropped. That reuse rests on a
# weak pointer, so a major GC cycle ending between the two calls would
# add a packing; nine runs at jobs 1 and fifteen at jobs 2 read the
# same trace.* lines.
#
# A change that alters an exhibit or the work on purpose regenerates
# the ledger in the same commit, so its diff shows what moved.
set -euo pipefail
cd "$(dirname "$0")/.."
jobs="${1:-1}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
dune build --display quiet ./bench/main.exe >&2
./_build/default/bench/main.exe --quick --jobs "$jobs" --csv "$dir/csv" --metrics > "$dir/stdout"
tail -n +2 "$dir/stdout" | grep -v 'done in' | sed -n '/^Total harness time/q;p' \
  | md5sum | sed 's/-$/stdout/'
(cd "$dir/csv" && LC_ALL=C ls -- *.csv | while read -r f; do md5sum "$f"; done)
sed -n '/^Observability metrics$/,$p' "$dir/stdout" \
  | awk '$1 ~ /^(sim|iw|trace)\./ || $1 == "memo.computes" || $1 == "memo.joins" { print $3 "  " $1 }'
