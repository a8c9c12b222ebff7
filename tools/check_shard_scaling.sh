#!/usr/bin/env bash
# End-to-end check of the shard-parallel training contract, driven through
# the CLI the way a user would run it:
#   1. `--shards 1` saves a model byte-identical to the unsharded path —
#      partition + per-shard training + merge collapses to the plain trainer —
#      and so does an unsharded `--threads 4` train;
#   2. `--shards 4` is deterministic: byte-identical across worker thread
#      counts and across repeated runs (merge order is fixed by shard index,
#      never by scheduling);
#   3. the shard metrics (train.shard.count / clauses_in / clauses_kept /
#      merge_seconds) appear in `--report json`;
#   4. informational scaling report: train walls at --shards 1/2/4. On a
#      multi-core host the wall should drop with K; on 1 CPU it reports the
#      (expected) lack of speedup without failing.
#
# Usage: tools/check_shard_scaling.sh [crossmine-binary]
#        (default: build/tools/crossmine)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/tools/crossmine}"
[ -x "$BIN" ] || {
  echo "check_shard_scaling: binary not found: $BIN" >&2
  exit 1
}

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# Generate once, straight to the binary columnar format (the XL path).
"$BIN" generate synthetic "$DIR/data.cmdb" --seed 31 --relations 10 \
  --tuples 300 > /dev/null

# 1. shards=1 == unsharded == unsharded at 4 threads, byte for byte.
"$BIN" train "$DIR/data.cmdb" "$DIR/plain.cmm" > /dev/null
"$BIN" train "$DIR/data.cmdb" "$DIR/sh1.cmm" --shards 1 > /dev/null
cmp "$DIR/plain.cmm" "$DIR/sh1.cmm" || {
  echo "check_shard_scaling: --shards 1 model differs from unsharded" >&2
  exit 1
}
"$BIN" train "$DIR/data.cmdb" "$DIR/plain_t4.cmm" --threads 4 > /dev/null
cmp "$DIR/plain.cmm" "$DIR/plain_t4.cmm" || {
  echo "check_shard_scaling: unsharded --threads 4 model differs" >&2
  exit 1
}

# 2. shards=4 deterministic across thread counts and runs.
"$BIN" train "$DIR/data.cmdb" "$DIR/sh4_t1.cmm" --shards 4 --threads 1 \
  > /dev/null
"$BIN" train "$DIR/data.cmdb" "$DIR/sh4_t4.cmm" --shards 4 --threads 4 \
  > /dev/null
"$BIN" train "$DIR/data.cmdb" "$DIR/sh4_t4b.cmm" --shards 4 --threads 4 \
  > /dev/null
cmp "$DIR/sh4_t1.cmm" "$DIR/sh4_t4.cmm" || {
  echo "check_shard_scaling: --shards 4 model differs across threads" >&2
  exit 1
}
cmp "$DIR/sh4_t4.cmm" "$DIR/sh4_t4b.cmm" || {
  echo "check_shard_scaling: --shards 4 model differs across runs" >&2
  exit 1
}

# 3. Shard metrics surface in the train report.
REPORT="$("$BIN" train "$DIR/data.cmdb" "$DIR/rep.cmm" --shards 2 \
  --report json)"
for key in train.shard.count train.shard.clauses_in \
           train.shard.clauses_kept train.shard.merge_seconds; do
  echo "$REPORT" | grep -q "\"$key\"" || {
    echo "check_shard_scaling: missing metric $key in --report json" >&2
    echo "$REPORT" >&2
    exit 1
  }
done

# 4. Informational scaling numbers (never a failure: wall-clock speedup
# depends on core count, and CI hosts are often single-core).
cores="$(nproc 2> /dev/null || echo 1)"
for k in 1 2 4; do
  start=$(date +%s%N)
  "$BIN" train "$DIR/data.cmdb" "$DIR/scale_$k.cmm" --shards "$k" > /dev/null
  end=$(date +%s%N)
  echo "check_shard_scaling: shards=$k train wall $(((end - start) / 1000000))ms (host cores: $cores)"
done

echo "check_shard_scaling: OK (shards=1 byte-identical; K=4 deterministic)"
