#!/usr/bin/env bash
# End-to-end check of the observability reports: generates a small synthetic
# dataset, runs `crossmine evaluate --report json` for CrossMine, FOIL and
# TILDE, and validates that every stdout line is one JSON object and that
# fold lines carry the required schema — per-fold phase timings
# (propagation, literal search, sampling, re-estimation), propagation-cache
# hit/refresh/miss counters, the training frontier counters
# (train.propagation.pairs, train.propagation.peak_id_bytes), per-class
# clause counts and the predict-side frontier counter
# (predict.propagated_pairs). Malformed flag values, out-of-range values,
# unknown flags (the removed shard flags among them) and wrong argument
# counts must be rejected before any output: exit 2, nothing on stdout, no
# model or database file, and a stderr message naming the flag or
# argument. Every flag `crossmine help` lists must have a `reject` line
# here, and `help` itself must exit 0 with the usage on stdout. Negative
# values are values: `--seed -7` and `--min-gain -1` must be read as given,
# not as a missing value.
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
# Removed shard flags are unknown flags, whatever their value.
reject --shards train "$DIR/data" "$DIR/reject.cmm" --shards -1
reject --shards train "$DIR/data" "$DIR/reject.cmm" --shards 0
reject --shards train "$DIR/data" "$DIR/reject.cmm" --shards 4
reject --shard-sample train "$DIR/data" "$DIR/reject.cmm" --shard-sample 5
reject --shard-exec train "$DIR/data" "$DIR/reject.cmm" --shard-exec process
reject --resume train "$DIR/data" "$DIR/reject.cmm" --resume
reject --memory-budget-mb train "$DIR/data" "$DIR/reject.cmm" \
  --memory-budget-mb -5
reject --thredas train "$DIR/data" "$DIR/reject.cmm" --thredas 4
reject --shard-quorom train "$DIR/data" "$DIR/reject.cmm" --shard-quorom 1
# A value flag with no value: at the end of the command, and before the
# next flag (which is not taken as its value).
reject --min-gain train "$DIR/data" "$DIR/reject.cmm" --min-gain
reject --threads train "$DIR/data" "$DIR/reject.cmm" --threads --sampling
# Values that parse but lie outside the option's range.
reject --folds evaluate "$DIR/data" --folds 0
reject --folds evaluate "$DIR/data" --folds 1
reject --threads train "$DIR/data" "$DIR/reject.cmm" --threads -3
reject --max-negative train "$DIR/data" "$DIR/reject.cmm" --max-negative -5
reject --neg-pos-ratio train "$DIR/data" "$DIR/reject.cmm" \
  --neg-pos-ratio -1
reject --min-gain train "$DIR/data" "$DIR/reject.cmm" --min-gain nan
# Generator sizes. The output path is the one `reject` checks was not
# written.
reject --tuples generate synthetic "$DIR/reject.cmm" --tuples 0
reject --tuples generate synthetic "$DIR/reject.cmm" --tuples 2147483648
reject --relations generate synthetic "$DIR/reject.cmm" --relations 1
reject --relations generate synthetic "$DIR/reject.cmm" \
  --relations 4294967298
reject --fkeys generate synthetic "$DIR/reject.cmm" --fkeys -1
reject --loans generate financial "$DIR/reject.cmm" --loans 4294967296
reject --molecules generate mutagenesis "$DIR/reject.cmm" \
  --molecules 4294967296
# Serve flags. The model file does not exist, so a wrongly accepted value
# would fail the model load (exit 1) instead of starting a server.
reject --port serve "$DIR/data" "$DIR/reject.cmm" --port 70000
reject --port serve "$DIR/data" "$DIR/reject.cmm" --port -1
reject --batch-size serve "$DIR/data" "$DIR/reject.cmm" --batch-size 0
reject --batch-size serve "$DIR/data" "$DIR/reject.cmm" --batch-size -1
reject --max-queue serve "$DIR/data" "$DIR/reject.cmm" --max-queue 0
reject --max-queue serve "$DIR/data" "$DIR/reject.cmm" --max-queue -1
reject --threads serve "$DIR/data" "$DIR/reject.cmm" --threads -1
reject --threads serve "$DIR/data" "$DIR/reject.cmm" --threads 2147483648
reject --deadline-ms serve "$DIR/data" "$DIR/reject.cmm" --deadline-ms -1
reject --deadline-ms serve "$DIR/data" "$DIR/reject.cmm" \
  --deadline-ms 9223372036854775807
reject --idle-timeout-ms serve "$DIR/data" "$DIR/reject.cmm" \
  --idle-timeout-ms -1
reject --max-connections serve "$DIR/data" "$DIR/reject.cmm" \
  --max-connections -1
# Thread counts are capped at 256 (0 still means hardware concurrency), so
# no flag can ask for thousands of OS threads.
reject --threads train "$DIR/data" "$DIR/reject.cmm" --threads 257
reject --threads serve "$DIR/data" "$DIR/reject.cmm" --threads 257
# The budget in MiB must fit `mb << 20` in 64 bits: 2^44 would wrap to 0
# (unlimited), and an out-of-range number must not saturate.
reject --memory-budget-mb train "$DIR/data" "$DIR/reject.cmm" \
  --memory-budget-mb 17592186044416
reject --memory-budget-mb train "$DIR/data" "$DIR/reject.cmm" \
  --memory-budget-mb 99999999999999999999
reject --classifier evaluate "$DIR/data" --classifier bogus
reject --report train "$DIR/data" "$DIR/reject.cmm" --report xml
reject --fault-plan train "$DIR/data" "$DIR/reject.cmm" --fault-plan garbage
reject --seed train "$DIR/data" "$DIR/reject.cmm" --seed 1.5
reject --mode evaluate "$DIR/data" --mode bestest
# Switches take no value, and each is unknown to commands it does not
# configure.
reject --json info "$DIR/data" --json=1
reject --sampling predict "$DIR/data" "$DIR/reject.cmm" --sampling
reject --no-lookahead predict "$DIR/data" "$DIR/reject.cmm" --no-lookahead
reject --no-aggregations serve "$DIR/data" "$DIR/reject.cmm" \
  --no-aggregations
reject --no-verify generate synthetic "$DIR/reject.cmm" --no-verify
# A single-dash flag, stray or missing positionals, a flag of another
# generator, --mode on train (the saved model does not keep it), a tuple id
# that is not a number, and a missing or unknown command.
reject -threads train "$DIR/data" "$DIR/reject.cmm" -threads 4
reject extra train "$DIR/data" "$DIR/reject.cmm" extra junk
reject --tuples generate financial "$DIR/reject.cmm" --tuples 5
reject --mode train "$DIR/data" "$DIR/reject.cmm" --mode vote
reject "<tuple-id>" explain "$DIR/data" "$DIR/reject.cmm" abc
reject "<model-file>" train "$DIR/data"
reject command
reject "'generate'" generate bogus "$DIR/reject.cmm"

# `help` prints the usage generated from the flag table, and every flag it
# names has a `reject` line above.
"$BIN" help > "$DIR/help.out"
[ -s "$DIR/help.out" ] || {
  echo "check_report_json: crossmine help printed nothing" >&2
  exit 1
}
for flag in $(grep -o -- '--[a-z][a-z-]*' "$DIR/help.out" | sort -u); do
  grep -q -- "^reject $flag " tools/check_report_json.sh || {
    echo "check_report_json: no reject line for $flag" >&2
    exit 1
  }
done

# A negative value is the flag's value, not a missing one: --seed -7
# generates a different database than --seed 1, and --min-gain -1 trains a
# different model than --min-gain 1 (on a database where the two
# thresholds select different literals).
"$BIN" generate synthetic "$DIR/neg.cmdb" --seed -7 --relations 6 \
  --tuples 120 > /dev/null
"$BIN" generate synthetic "$DIR/one.cmdb" --seed 1 --relations 6 \
  --tuples 120 > /dev/null
if cmp -s "$DIR/neg.cmdb" "$DIR/one.cmdb"; then
  echo "check_report_json: --seed -7 generated the --seed 1 database" >&2
  exit 1
fi
"$BIN" generate synthetic "$DIR/gain" --seed 3 --relations 6 --tuples 120 \
  > /dev/null
"$BIN" train "$DIR/gain" "$DIR/gain_neg.cmm" --min-gain -1 > /dev/null
"$BIN" train "$DIR/gain" "$DIR/gain_one.cmm" --min-gain 1 > /dev/null
if cmp -s "$DIR/gain_neg.cmm" "$DIR/gain_one.cmm"; then
  echo "check_report_json: --min-gain -1 trained the --min-gain 1 model" >&2
  exit 1
fi

echo "check_report_json: OK"
