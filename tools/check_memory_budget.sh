#!/usr/bin/env bash
# Out-of-core training check for the budgeted index layer. Trains the
# Figure-11 T10000 database (R20.T10000.F2) twice — unbudgeted and under
# --memory-budget-mb — and proves three things end to end:
#
#   1. the models are byte-identical (eviction changes when indexes exist,
#      never what they contain);
#   2. the budgeted train fits where the unbudgeted one cannot: both are
#      re-run under a `ulimit -v` address-space cap calibrated between the
#      two measured peaks — the unbudgeted build must die, the budgeted one
#      must finish and still match the baseline model byte for byte;
#   3. the budgeted run really paged (train.index.rebuilds > 0) and never
#      materialized a borrowed column (storage.column.materializations == 0).
#
# The cap is calibrated per run by polling VmPeak from /proc (it is
# kernel-maintained and monotone, so the last sample before exit is the true
# peak); on hosts without /proc the capped phase is skipped and only the
# byte-identity and paging assertions run.
#
# Usage: tools/check_memory_budget.sh [crossmine-binary]
#        (default: build/tools/crossmine)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/tools/crossmine}"
[ -x "$BIN" ] || { echo "check_memory_budget: binary not found: $BIN" >&2; exit 1; }
command -v python3 > /dev/null || {
  echo "check_memory_budget: python3 not found" >&2; exit 1; }

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

DB="$DIR/fig11.cmdb"
BUDGET_MB=4
TRAIN_FLAGS=(--threads 1 --sampling --report json)

"$BIN" generate synthetic "$DB" --seed 1 --relations 20 --tuples 10000 \
  --fkeys 2 > /dev/null

# Runs one train, recording its VmPeak (kB) into $peak_kb; "" if /proc is
# unavailable. The JSON report lands in $2, the model in $1.
train_with_peak() {
  local model="$1" out="$2"; shift 2
  peak_kb=""
  "$BIN" train "$DB" "$model" "${TRAIN_FLAGS[@]}" "$@" > "$out" 2>&1 &
  local pid=$!
  if [ -r "/proc/$pid/status" ]; then
    peak_kb=0
    while kill -0 "$pid" 2>/dev/null; do
      local v
      v=$(awk '/^VmPeak:/{print $2}' "/proc/$pid/status" 2>/dev/null || true)
      [ -n "$v" ] && peak_kb=$v
      sleep 0.2
    done
  fi
  wait "$pid"
}

metric() {  # metric <report.json> <key>
  head -1 "$1" | python3 -c \
    'import json,sys; print(int(json.loads(sys.stdin.readline())[sys.argv[1]]))' \
    "$2"
}

train_with_peak "$DIR/unbudgeted.cmm" "$DIR/unbudgeted.json"
unbud_peak=$peak_kb
train_with_peak "$DIR/budgeted.cmm" "$DIR/budgeted.json" \
  --memory-budget-mb "$BUDGET_MB"
bud_peak=$peak_kb

cmp "$DIR/unbudgeted.cmm" "$DIR/budgeted.cmm" || {
  echo "check_memory_budget: budgeted model diverged from unbudgeted" >&2
  exit 1
}

rebuilds=$(metric "$DIR/budgeted.json" train.index.rebuilds)
[ "$rebuilds" -gt 0 ] || {
  echo "check_memory_budget: budget ${BUDGET_MB}MiB never evicted — cap is" \
       "not exercising the paging path" >&2
  exit 1
}
for report in unbudgeted budgeted; do
  mats=$(metric "$DIR/$report.json" storage.column.materializations)
  [ "$mats" -eq 0 ] || {
    echo "check_memory_budget: $report train materialized $mats borrowed" \
         "column(s) out of the mapping" >&2
    exit 1
  }
done
echo "check_memory_budget: models byte-identical at unlimited vs" \
     "${BUDGET_MB}MiB ($rebuilds rebuilds; peak RSS" \
     "$(metric "$DIR/unbudgeted.json" peak_rss_kb)kB ->" \
     "$(metric "$DIR/budgeted.json" peak_rss_kb)kB)"

if [ -z "$unbud_peak" ] || [ "$unbud_peak" -eq 0 ]; then
  echo "check_memory_budget: OK (no /proc; address-space-cap phase skipped)"
  exit 0
fi

[ "$bud_peak" -lt "$unbud_peak" ] || {
  echo "check_memory_budget: budgeted VmPeak ${bud_peak}kB not below" \
       "unbudgeted ${unbud_peak}kB — the budget saved no address space" >&2
  exit 1
}
cap_kb=$(( (bud_peak + unbud_peak) / 2 ))
echo "check_memory_budget: VmPeak ${unbud_peak}kB unbudgeted," \
     "${bud_peak}kB budgeted; capping address space at ${cap_kb}kB"

# The unbudgeted build must not fit under the cap...
if ( ulimit -v "$cap_kb"
     exec "$BIN" train "$DB" "$DIR/capped_unbud.cmm" "${TRAIN_FLAGS[@]}" \
       ) > "$DIR/capped_unbud.log" 2>&1; then
  echo "check_memory_budget: unbudgeted train fit under the ${cap_kb}kB" \
       "cap it was measured to exceed" >&2
  exit 1
fi

# ...and the budgeted one must train end to end under it, byte-identically.
( ulimit -v "$cap_kb"
  exec "$BIN" train "$DB" "$DIR/capped_bud.cmm" "${TRAIN_FLAGS[@]}" \
    --memory-budget-mb "$BUDGET_MB" ) > "$DIR/capped_bud.json" 2>&1 || {
  echo "check_memory_budget: budgeted train died under the ${cap_kb}kB cap" >&2
  tail -5 "$DIR/capped_bud.json" >&2
  exit 1
}
cmp "$DIR/unbudgeted.cmm" "$DIR/capped_bud.cmm" || {
  echo "check_memory_budget: capped budgeted model diverged" >&2
  exit 1
}

echo "check_memory_budget: OK (budgeted train fits and matches under a" \
     "${cap_kb}kB address-space cap the unbudgeted build exceeds)"
