#!/usr/bin/env bash
# Differential smoke for the standing-query server: rl0_serve driven
# through rl0_client must return samples BYTE-IDENTICAL to the offline
# `rl0_cli sample` pipeline in all three windowing modes (sequence,
# time, bounded-lateness), given the same sampler options, window,
# shard count, seed and expected stream length (m=...).
#
# The only permitted divergence: the CLI's time-mode output appends
# " stamp N" (it keeps the full stamp array; the server does not), so
# that suffix is stripped from the CLI side before diffing.
#
# A recover=1 CREATE that contradicts its checkpoint must answer ERR and
# leave the server serving. Two checkpointed tenants, one fed past its
# last cut and one fed short of its first cadence cut, are then killed
# with SIGKILL; both before and after the restart each tenant directory
# must hold exactly ckpt-000000.full and journal.log, and the restarted
# server's recovered samples must match `rl0_cli sample` over the same
# prefix. It ends with a one-shard
# `rl0_cli sample --checkpoint-dir` run whose `rl0_cli recover` output
# must match the run's own samples.
#
# Usage: tools/ci_serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
for bin in rl0_cli rl0_serve rl0_client; do
  [[ -x "$BUILD/$bin" ]] || { echo "missing $BUILD/$bin" >&2; exit 1; }
done

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "$SERVER_PID" ]] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# One dataset per mode, shared seed so m is identical.
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 > "$TMP/seq.csv"
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 --time > "$TMP/time.csv"
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 --time --lateness 50 \
  > "$TMP/late.csv"
M=$(grep -vc '^#' "$TMP/seq.csv")
echo "smoke: $M points per stream"

# Starts rl0_serve on $TMP/sock, logging to $1, and waits until it
# listens. Every instance shares the checkpoint root $TMP/ck.
start_server() {
  "$BUILD/rl0_serve" --unix "$TMP/sock" --threads 4 \
    --checkpoint-dir "$TMP/ck" > "$1" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 100); do
    grep -q listening "$1" 2>/dev/null && break
    sleep 0.1
  done
  grep -q listening "$1" || {
    echo "server never came up:" >&2; cat "$1" >&2; exit 1;
  }
}

start_server "$TMP/server.log"

client() { "$BUILD/rl0_client" --unix "$TMP/sock" "$@"; }

client \
  "CREATE s dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M" \
  "CREATE t dim=5 alpha=0.5 window=4000 mode=time shards=4 seed=42 m=$M" \
  "CREATE l dim=5 alpha=0.5 window=4000 mode=late lateness=50 shards=4 seed=42 m=$M"
client --feed-csv "$TMP/seq.csv" --tenant s --chunk 1000
client --feed-csv "$TMP/time.csv" --tenant t --stamped --chunk 1000
client --feed-csv "$TMP/late.csv" --tenant l --stamped --lateness 50 \
  --chunk 1000
client "FLUSH l" > /dev/null

client "SAMPLE s q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/s.server"
client "SAMPLE t q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/t.server"
client "SAMPLE l q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/l.server"

"$BUILD/rl0_cli" sample --alpha 0.5 --window 2000 --shards 4 --seed 42 \
  --queries 3 "$TMP/seq.csv" 2> /dev/null > "$TMP/s.cli"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 4000 --time --shards 4 \
  --seed 42 --queries 3 "$TMP/time.csv" 2> /dev/null \
  | sed 's/ stamp -\{0,1\}[0-9]*$//' > "$TMP/t.cli"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 4000 --time --lateness 50 \
  --shards 4 --seed 42 --queries 3 "$TMP/late.csv" 2> /dev/null \
  | sed 's/ stamp -\{0,1\}[0-9]*$//' > "$TMP/l.cli"

for mode in s t l; do
  [[ -s "$TMP/$mode.server" ]] || {
    echo "smoke: mode $mode produced no samples" >&2; exit 1;
  }
  diff -u "$TMP/$mode.cli" "$TMP/$mode.server" || {
    echo "smoke: mode $mode diverged from rl0_cli" >&2; exit 1;
  }
done

# Checkpointed tenant round-trip: CLOSE then recover must return the
# same samples as before the restart of the tenant.
client \
  "CREATE ck dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M ckpt=1 every=512" \
  > /dev/null
client --feed-csv "$TMP/seq.csv" --tenant ck --chunk 1000
client "SAMPLE ck q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/ck.before"
client "CLOSE ck" > /dev/null
client \
  "CREATE ck dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M ckpt=1 recover=1" \
  > /dev/null
client "SAMPLE ck q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/ck.after"
diff -u "$TMP/ck.before" "$TMP/ck.after" || {
  echo "smoke: checkpoint recover diverged" >&2; exit 1;
}
diff -u "$TMP/s.cli" "$TMP/ck.after" > /dev/null || {
  echo "smoke: recovered tenant diverged from rl0_cli" >&2; exit 1;
}

# A recover=1 line that contradicts the checkpoint (ck is a sequence
# tenant) must be refused with ERR, and the server must keep serving.
client "CLOSE ck" > /dev/null
if client \
  "CREATE ck dim=5 alpha=0.5 window=2000 mode=time shards=4 seed=42 m=$M ckpt=1 recover=1" \
  > "$TMP/ck.mismatch"; then
  echo "smoke: mismatched recover=1 was accepted" >&2; exit 1
fi
grep -q '^ERR' "$TMP/ck.mismatch" || {
  echo "smoke: mismatched recover=1 did not answer ERR" >&2
  cat "$TMP/ck.mismatch" >&2
  exit 1
}
client "STATS" > /dev/null || {
  echo "smoke: server stopped serving after a mismatched recover=1" >&2
  exit 1
}

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q "shutting down" "$TMP/server.log" || {
  echo "smoke: server did not shut down cleanly" >&2
  cat "$TMP/server.log" >&2
  exit 1
}

# Kill -9 recovery: with every=4096, an 11000-point feed leaves 2808
# acknowledged points past the last cut, held only by the appended
# journal. Tenant k0 (every=100000) never reaches its first cadence cut,
# so only the cut CREATE made and the journal hold its feed. A restarted
# server must recover all 11000 points of both.
awk '!/^#/ && n++ < 11000' "$TMP/seq.csv" > "$TMP/prefix.csv"
start_server "$TMP/server-k9.log"
for tenant_every in k9:4096 k0:100000; do
  client \
    "CREATE ${tenant_every%%:*} dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=11000 ckpt=1 every=${tenant_every##*:}" \
    > /dev/null
  client --feed-csv "$TMP/prefix.csv" --tenant "${tenant_every%%:*}" \
    --chunk 1000
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
# Every cut rewrites one full checkpoint: a tenant directory holds
# exactly ckpt-000000.full and journal.log, never a *.delta file.
expect_full_only() {
  local listing
  listing=$(ls "$TMP/ck/$1" | tr '\n' ' ')
  [[ "$listing" == "ckpt-000000.full journal.log " ]] || {
    echo "smoke: $2 tenant $1's directory holds: $listing" >&2
    exit 1
  }
}
expect_full_only k9 "killed"
expect_full_only k0 "killed"
start_server "$TMP/server-k9-recovered.log"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 2000 --shards 4 --seed 42 \
  --queries 3 "$TMP/prefix.csv" 2> /dev/null > "$TMP/k9.cli"
for tenant in k9 k0; do
  client \
    "CREATE $tenant dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=11000 ckpt=1 recover=1" \
    > "$TMP/$tenant.create" || {
    echo "smoke: kill -9 recovery of $tenant refused:" >&2
    cat "$TMP/$tenant.create" >&2
    exit 1
  }
  client "SAMPLE $tenant q=3 seed=42" | sed -n 's/^ITEM //p' \
    > "$TMP/$tenant.server"
  [[ -s "$TMP/$tenant.server" ]] || {
    echo "smoke: kill -9 recovered tenant $tenant produced no samples" >&2
    exit 1
  }
  diff -u "$TMP/k9.cli" "$TMP/$tenant.server" || {
    echo "smoke: kill -9 recovery of $tenant diverged from rl0_cli" >&2
    exit 1
  }
  expect_full_only "$tenant" "recovered"
done
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# One-shard CLI durability round trip: checkpointing works at any shard
# count, and `recover` must reproduce the sampled run byte for byte.
"$BUILD/rl0_cli" sample --alpha 0.5 --window 2000 --shards 1 --seed 42 \
  --queries 3 --checkpoint-dir "$TMP/cli1" --checkpoint-every 512 \
  "$TMP/seq.csv" 2> /dev/null > "$TMP/cli1.sample"
"$BUILD/rl0_cli" recover --checkpoint-dir "$TMP/cli1" --seed 42 \
  --queries 3 2> /dev/null > "$TMP/cli1.recover"
[[ -s "$TMP/cli1.sample" ]] || {
  echo "smoke: one-shard CLI run produced no samples" >&2; exit 1;
}
diff -u "$TMP/cli1.sample" "$TMP/cli1.recover" || {
  echo "smoke: one-shard CLI recover diverged from its run" >&2; exit 1;
}

echo "smoke: all three modes byte-identical to rl0_cli; recover and kill -9 recovery OK"
