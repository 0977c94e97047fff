#!/usr/bin/env bash
# ab_perfbench.sh — A/B of the repository benchmark (perfbench/) between a
# base revision and the current work tree, on the same host.
#
#   scripts/ab_perfbench.sh [-n PAIRS] [-s SECONDS] [-c CPUS] [-w WORKLOAD]...
#                           [BASE_REV]
#
# BASE_REV defaults to HEAD when the work tree has uncommitted changes and
# to HEAD^ otherwise, i.e. the parent of the change under test. The base is
# exported with `git archive` into a temporary directory (removed on exit),
# so the repository's .git gains no state. Both sides build their own
# perfbench driver through perfbench/run.py: the base into its temporary
# copy, the work tree into .bench_build/. Nothing under perfbench/ is
# written.
#
# For each workload (default: fig4_fmm32 and sweep_fleet) it runs PAIRS
# interleaved pairs at seed 0, alternating which side runs first, every run
# pinned with `taskset -c CPUS`, then one pair at the held-out seed 4099.
# It prints, per end-to-end metric of BENCHMARK.json: each side's median
# and quartiles, the ratio B/A, in how many pairs the work tree (B) was
# better by the metric's own direction, and "gain" when B won at least nine
# tenths of the pairs and the medians differ by more than A's
# interquartile range; then the held-out pair's values.
#
# Defaults: PAIRS=10, SECONDS=20, CPUS = the last three CPUs (the driver
# pins itself to the last CPU it may use; sweep_fleet's two workers take
# the others).
set -euo pipefail

pairs=10
seconds=20
workloads=()
ncpu=$(nproc)
cpus="$((ncpu >= 3 ? ncpu - 3 : 0))-$((ncpu - 1))"

usage() {
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
  exit 2
}
while getopts "n:s:c:w:h" opt; do
  case $opt in
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    c) cpus=$OPTARG ;;
    w) workloads+=("$OPTARG") ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
((${#workloads[@]})) || workloads=(fig4_fmm32 sweep_fleet)
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
if (($# > 0)); then
  base_rev=$1
elif git diff --quiet HEAD --; then
  base_rev=HEAD^
else
  base_rev=HEAD
fi
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/out"
git archive "$base_sha" | tar -x -C "$tmp/base"
echo "# A = $base_rev ($base_sha), B = work tree;" \
     "$pairs pairs x ${seconds} s; taskset -c $cpus" >&2

# run SIDE WORKLOAD SEED OUTFILE: one perfbench run; its JSON line goes to
# OUTFILE, its comment lines to OUTFILE.log.
run() {
  local dir=$root
  [[ $1 == A ]] && dir=$tmp/base
  if ! (cd "$dir" && taskset -c "$cpus" python3 perfbench/run.py \
          --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) \
        > "$4.log" 2>&1; then
    echo "run failed: side $1 $2 seed $3 (log: $4.log)" >&2
    tail -5 "$4.log" >&2
    exit 1
  fi
  grep '^{' "$4.log" | tail -1 > "$4"
}

for w in "${workloads[@]}"; do
  for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then order=(A B); else order=(B A); fi
    for side in "${order[@]}"; do
      run "$side" "$w" 0 "$tmp/out/$w.$side.$k.json"
    done
    echo "# $w pair $((k + 1))/$pairs done" >&2
  done
  run A "$w" 4099 "$tmp/out/$w.A.heldout.json"
  run B "$w" 4099 "$tmp/out/$w.B.heldout.json"
done

python3 - "$root/BENCHMARK.json" "$tmp/out" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench, out, workloads = sys.argv[1], sys.argv[2], sys.argv[4:]
pairs = int(sys.argv[3])
metrics = json.load(open(bench))["end_to_end"]

def load(path):
    return json.load(open(path))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for w in workloads:
    runs = {s: [load("%s/%s.%s.%d.json" % (out, w, s, k)) for k in range(pairs)]
            for s in "AB"}
    held = {s: load("%s/%s.%s.heldout.json" % (out, w, s)) for s in "AB"}
    print("== %s: %d pairs, seed 0 (correct: A %d/%d, B %d/%d)" % (
        w, pairs, sum(r["correct"] for r in runs["A"]), pairs,
        sum(r["correct"] for r in runs["B"]), pairs))
    print("%-14s %-28s %-28s %6s %6s %5s   %s" % (
        "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "B won",
        "", "seed 4099 A -> B"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        gain = wins * 10 >= pairs * 9 and abs(mb - ma) > a3 - a1
        ha = held["A"]["metrics"][name]["value"]
        hb = held["B"]["metrics"][name]["value"]
        print("%-14s %-28s %-28s %6.3f %3d/%-2d %5s   %.5g -> %.5g" % (
            name, "%.5g [%.5g, %.5g]" % (ma, a1, a3),
            "%.5g [%.5g, %.5g]" % (mb, b1, b3),
            mb / ma if ma else float("nan"), wins, pairs,
            "gain" if gain else "", ha, hb))
    print("held-out seed 4099 correct: A %s, B %s" % (
        held["A"]["correct"], held["B"]["correct"]))
EOF
