#!/usr/bin/env bash
# Prints the exhibit ledger: the md5 of the harness's stdout and of
# each CSV it writes, at --quick and the given job count (default 1).
#
#   bash bench/ledger.sh [JOBS] > ledger.txt
#
# Exhibit stdout and CSVs are the specification of behaviour, so the
# ledger must equal the committed bench/ledger.txt at every job count.
# Before hashing, stdout loses its header line (it names the job
# count), the "done in" wall-time lines and everything from "Total
# harness time" on. Lines are "<md5>  <name>", stdout first, then the
# CSVs sorted by name. A change that alters an exhibit on purpose
# regenerates the ledger in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."
jobs="${1:-1}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
dune build --display quiet ./bench/main.exe >&2
./_build/default/bench/main.exe --quick --jobs "$jobs" --csv "$dir/csv" > "$dir/stdout"
tail -n +2 "$dir/stdout" | grep -v 'done in' | sed -n '/^Total harness time/q;p' \
  | md5sum | sed 's/-$/stdout/'
(cd "$dir/csv" && LC_ALL=C ls -- *.csv | while read -r f; do md5sum "$f"; done)
