#!/usr/bin/env bash
# Resume smoke test: start a persisted campaign, kill -9 it mid-flight, check
# the store survives an integrity walk, resume it, assert the resumed
# campaign's coverage is a superset of what the killed one had durably
# checkpointed, and check that the resumed store verifies with no damage at
# all. This is the crash-safety contract end to end, with a real SIGKILL
# instead of a simulated one.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
store="$workdir/corpus"
ckpt="$store/freertos/stm32h745/checkpoint.json"

go build -o "$workdir/eof" ./cmd/eof
go build -o "$workdir/eofcorpus" ./cmd/eofcorpus
go build -o "$workdir/eoftrace" ./cmd/eoftrace

# A deliberately unreachable budget with a tight checkpoint cadence: the
# campaign will still be running whenever we get around to killing it, and
# several epochs will have committed.
"$workdir/eof" -os freertos -seed 7 -minutes 100000 -sync-minutes 1 \
  -corpus "$store" -trace "$workdir/first.jsonl" \
  > "$workdir/first.log" 2>&1 &
pid=$!

for _ in $(seq 1 240); do
  [ -s "$ckpt" ] && break
  sleep 0.5
done
test -s "$ckpt" || { echo "no checkpoint appeared before the kill" >&2; exit 1; }
sleep 1 # let a few more epochs land mid-write
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

# The killed store must verify: every manifest line against its schema and
# its program's hash, the checkpoint against its self-checksum. Damage from
# the kill (a torn manifest tail at worst) is tolerated, not fatal: the tail
# is cut off the file.
"$workdir/eofcorpus" -dir "$store" -os freertos -board stm32h745 verify
before=$("$workdir/eofcorpus" -dir "$store" -os freertos -board stm32h745 -edges info)
test "$before" -gt 0 || { echo "killed store checkpointed no coverage" >&2; exit 1; }
"$workdir/eofcorpus" -dir "$store" -os freertos -board stm32h745 info

# Resume from the killed store and run a bounded continuation.
"$workdir/eof" -os freertos -resume "$store" -minutes 5 -sync-minutes 1 \
  -trace "$workdir/second.jsonl" | tee "$workdir/second.log"
grep -q 'resumed:' "$workdir/second.log"

# Coverage superset: the resumed campaign starts from the checkpointed edges,
# so its final branch count can only be >= what the kill left behind.
after=$(grep -o 'branches: [0-9]*' "$workdir/second.log" | head -1 | awk '{print $2}')
test "$after" -ge "$before" || {
  echo "resumed coverage $after below the killed checkpoint's $before" >&2
  exit 1
}

# Both journals must parse: the killed one's torn tail is tolerated with a
# warning, the resumed one is whole.
"$workdir/eoftrace" summary "$workdir/first.jsonl" > /dev/null
"$workdir/eoftrace" summary "$workdir/second.jsonl" > /dev/null

# The resumed store must be whole: a torn tail was cut before the resumed run
# appended, so a strict verify finds no damage. The namespace is one manifest
# plus the checkpoint rotation; the old per-program blobs/ directory is gone.
"$workdir/eofcorpus" -dir "$store" -os freertos -board stm32h745 verify -strict
test ! -e "$store/freertos/stm32h745/blobs" || { echo "store still has a blobs/ directory" >&2; exit 1; }

echo "resume smoke OK: $before edges survived the kill, $after after resume"
