#!/usr/bin/env bash
# End-to-end check of the observability reports: generates a small synthetic
# dataset, runs `crossmine evaluate --report json` for CrossMine, FOIL and
# TILDE, and validates that every stdout line is one JSON object and that
# fold lines carry the required schema — per-fold phase timings
# (propagation, literal search, sampling, re-estimation), propagation-cache
# hit/refresh/miss counters, the training frontier counters
# (train.propagation.pairs, train.propagation.peak_id_bytes), per-class
# clause counts and the predict-side frontier counter
# (predict.propagated_pairs). Malformed flag
# values must be rejected before any output: exit 2, nothing on stdout, no
# model file, and a stderr message naming the flag.
#
# Usage: tools/check_report_json.sh [crossmine-binary]
#        (default: build/tools/crossmine)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/tools/crossmine}"
[ -x "$BIN" ] || { echo "check_report_json: binary not found: $BIN" >&2; exit 1; }

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$BIN" generate synthetic "$DIR/data" --seed 7 --relations 6 --tuples 120 \
  > /dev/null

validate() {
  local classifier="$1"
  local out="$DIR/report_$classifier.jsonl"
  "$BIN" evaluate "$DIR/data" --folds 2 --classifier "$classifier" \
    --report json > "$out"
  if command -v python3 > /dev/null; then
    python3 - "$out" "$classifier" <<'EOF'
import json
import sys

path, classifier = sys.argv[1], sys.argv[2]
required = [
    "train.phase.propagation_seconds",
    "train.phase.literal_search_seconds",
    "train.phase.sampling_seconds",
    "train.phase.reestimation_seconds",
    "train.propagation.cache_hits",
    "train.propagation.cache_refreshes",
    "train.propagation.cache_misses",
    "train.propagation.pairs",
    "train.propagation.peak_id_bytes",
    "train.index.evictions",
    "train.index.rebuilds",
    "train.index.peak_bytes",
    "train.index.budget_bytes",
    "storage.column.materializations",
    "train.clauses_built",
    "train.clauses_built.class_0",
    "train.clauses_built.class_1",
    "train.wall_seconds",
    "predict.tuples",
    "predict.propagated_pairs",
    "accuracy",
    "test_size",
]
folds = totals = 0
with open(path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)  # every line must parse on its own
        if obj["report"] == "fold":
            folds += 1
            for key in required:
                assert key in obj, f"{classifier}: fold line missing {key}"
            if classifier == "crossmine":
                assert obj["train.propagation.pairs"] > 0, \
                    "crossmine: training propagated no pairs"
        elif obj["report"] == "cv_totals":
            totals += 1
            assert "train.phase.propagation_seconds" in obj
assert folds == 2, f"{classifier}: expected 2 fold lines, got {folds}"
assert totals == 1, f"{classifier}: expected 1 cv_totals line, got {totals}"
print(f"check_report_json: {classifier} OK")
EOF
  else
    # Degraded check without python3: the required keys must appear.
    for key in train.phase.propagation_seconds train.propagation.cache_hits \
               train.clauses_built.class_0 cv_totals; do
      grep -q "$key" "$out" || {
        echo "check_report_json: $classifier output missing $key" >&2
        exit 1
      }
    done
    echo "check_report_json: $classifier OK (grep-only: python3 not found)"
  fi
}

validate crossmine
validate foil
validate tilde

reject() {
  local flag="$1"
  shift
  local rc=0
  "$BIN" "$@" > "$DIR/reject.out" 2> "$DIR/reject.err" || rc=$?
  if [ "$rc" -ne 2 ] || [ -s "$DIR/reject.out" ] || [ -e "$DIR/reject.cmm" ] ||
    ! grep -q -- "$flag" "$DIR/reject.err"; then
    echo "check_report_json: $* was not rejected cleanly (exit $rc)" >&2
    cat "$DIR/reject.err" >&2
    exit 1
  fi
}

reject --threads train "$DIR/data" "$DIR/reject.cmm" --threads four
reject --min-gain train "$DIR/data" "$DIR/reject.cmm" --min-gain 1,5
reject --mode predict "$DIR/data" "$DIR/reject.cmm" --mode bestest

echo "check_report_json: OK"
