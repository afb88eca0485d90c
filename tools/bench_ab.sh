#!/usr/bin/env bash
# Same-host A/B of the benchmark of record between two revisions.
#
#   tools/bench_ab.sh <base-rev> <head-rev> <workload> [pairs] [seconds] [scale]
#
# Exports both revisions (git archive) into a fresh temporary directory,
# then runs `rl0bench/run.py --trace 0` of each checkout `pairs` times
# (default 7) for `seconds` each (default 30) at `scale` (default 1),
# alternating which side runs first and giving both sides of a pair the
# same seed. Each side builds from its own sources on its first run.
#
# Prints, for every end-to-end metric of the head's BENCHMARK.json, the
# median and interquartile range of each side, the head/base ratio of
# the medians, and in how many pairs the head was better. Exits non-zero
# when any run fails or reports incorrect output or failed operations,
# or when a head median is worse than the base median by more than the
# metric's bound. The temporary directory and every process the runs
# start are removed on exit.
#
# CI runs it in smoke mode (HEAD HEAD <workload> 1 1 0.05) to keep it
# working; the numbers of a claim need the full-size defaults.

set -euo pipefail

if [[ $# -lt 3 || $# -gt 6 ]]; then
  sed -n '3,4p' "$0" >&2
  exit 2
fi
base_rev=$1
head_rev=$2
workload=$3
pairs=${4:-7}
seconds=${5:-30}
scale=${6:-1}

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/rl0_bench_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in base head; do
  rev=${base_rev}
  [[ $side == head ]] && rev=${head_rev}
  mkdir "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
  echo "bench_ab: $side = $(git -C "$repo" rev-parse --short "$rev")" >&2
done

run_side() {  # side pair
  local side=$1 pair=$2
  local out="$work/$side-$pair.json"
  echo "bench_ab: pair $pair $side" >&2
  if ! python3 "$work/$side/rl0bench/run.py" --workload "$workload" \
      --seed "$pair" --seconds "$seconds" --trace 0 --scale "$scale" \
      > "$work/$side-$pair.out" 2> "$work/$side-$pair.err"; then
    tail -n 20 "$work/$side-$pair.err" >&2
    echo "bench_ab: $side run $pair failed" >&2
    exit 1
  fi
  tail -n 1 "$work/$side-$pair.out" > "$out"
}

for ((pair = 1; pair <= pairs; ++pair)); do
  if ((pair % 2 == 1)); then
    run_side base "$pair"
    run_side head "$pair"
  else
    run_side head "$pair"
    run_side base "$pair"
  fi
done

python3 - "$work" "$pairs" "$work/head/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

work, pairs, spec_path, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
with open(spec_path) as f:
    spec = json.load(f)

runs = {"base": [], "head": []}
ok = True
for side in runs:
    for pair in range(1, pairs + 1):
        with open("%s/%s-%d.json" % (work, side, pair)) as f:
            result = json.load(f)
        if not result["correct"] or result["failed"] != 0:
            print("bench_ab: %s run %d: correct=%s failed=%d of %d"
                  % (side, pair, result["correct"], result["failed"],
                     result["attempted"]), file=sys.stderr)
            ok = False
        runs[side].append(result["metrics"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


print("workload %s, %d pairs" % (workload, pairs))
print("%-22s %12s %12s %12s %12s %7s %5s  %s" % (
    "metric", "base_median", "base_iqr", "head_median", "head_iqr",
    "ratio", "wins", "bound"))
for metric in spec["end_to_end"]:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    base = [m[name]["value"] for m in runs["base"]]
    head = [m[name]["value"] for m in runs["head"]]
    bm, hm = statistics.median(base), statistics.median(head)
    bq, hq = quartiles(base), quartiles(head)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    ratio = hm / bm if bm else float("inf")
    worse = (1 - ratio) if better == "higher" else (ratio - 1)
    verdict = "ok"
    if worse > bound:
        verdict = "WORSE than bound %.2f" % bound
        ok = False
    print("%-22s %12.4g %12.4g %12.4g %12.4g %7.3f %2d/%-2d  %s" % (
        name, bm, bq[1] - bq[0], hm, hq[1] - hq[0], ratio, wins, pairs,
        verdict))
sys.exit(0 if ok else 1)
EOF
