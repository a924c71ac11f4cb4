#!/usr/bin/env bash
# Alternating A/B pairs of the wall-clock benchmark: perfbench built at
# <base-rev> against perfbench built from the working tree, on one
# workload, for <pairs> pairs at the benchmark's own run length
# (BENCHMARK.json `run_seconds`). Pair i runs both sides with seed i, the
# side that goes first alternating from pair to pair. Prints, per side,
# the median and quartiles of every end-to-end metric, how many pairs the
# change won on each (by the metric's `better` direction; ties count for
# neither side), the metric's bound from BENCHMARK.json and one verdict,
# and writes the same summary as JSON to $AB_DIR/summary-<workload>.json.
# Both sides build with the caller's RUSTFLAGS (e.g. a link layout such as
# `-C link-arg=-Wl,--sort-section=name`); the table header and the
# summary's "rustflags" record them.
# Verdicts, first match wins:
#   gain          the change wins at least 9 in 10 pairs and its median
#                 beats the base's by more than the base's interquartile
#                 range;
#   regression    the change's median is worse than the base's by more
#                 than the bound (a fraction of the base's median);
#   unresolved    either side's IQR/median exceeds the bound, and not
#                 every change run beats every base run;
#   within bound  otherwise.
#
# The base revision is exported with `git archive` into its own directory
# and built with its own target directory, so the two builds never share
# artifacts. Exits non-zero if any run reports "correct": false or
# "failed" > 0.
#
# Usage: scripts/ab.sh <base-rev> <workload> <pairs>
#   AB_DIR     scratch directory for the base checkout, builds and run
#              outputs (default: target/ab)
#   RUSTFLAGS  passed to both builds and recorded in the summary
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: scripts/ab.sh <base-rev> <workload> <pairs>" >&2
  exit 2
fi
base_rev=$1 workload=$2 pairs=$3
cd "$(git rev-parse --show-toplevel)"
repo=$PWD
dir=$(mkdir -p "${AB_DIR:-target/ab}" && cd "${AB_DIR:-target/ab}" && pwd)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

base_src=$dir/base-src
rm -rf "$base_src" "$dir/runs"
mkdir -p "$base_src" "$dir/runs"
git archive "$base_rev" | tar -x -C "$base_src"
build() { # <source dir> <target dir>
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/perfbench/Cargo.toml"
}
build "$base_src" "$dir/base-target"
build "$repo" "$dir/change-target"

run() { # <side> <pair>
  local bin=$dir/$1-target/release/perfbench
  echo "# pair $2: $1" >&2
  "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1 \
    > "$dir/runs/$1-$2.json"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done

python3 - "$dir/runs" "$pairs" "$base_rev" "$workload" "$seconds" "$dir" "${RUSTFLAGS:-}" <<'EOF'
import json, statistics, sys

runs, pairs, base_rev, workload, seconds, out_dir, rustflags = (
    sys.argv[1], int(sys.argv[2]), *sys.argv[3:])
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
load = lambda side, i: json.load(open(f"{runs}/{side}-{i}.json"))
res = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
bad = [(s, i + 1) for s, rs in res.items() for i, r in enumerate(rs) if not r["correct"] or r["failed"] > 0]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def verdict(b, c, qb, qc, wins, bound, higher):
    gain = (lambda x, y: y - x) if higher else (lambda x, y: x - y)
    if wins >= 0.9 * len(b) and gain(qb[1], qc[1]) > qb[2] - qb[0]:
        return "gain"
    if qb[1] and -gain(qb[1], qc[1]) / abs(qb[1]) > bound:
        return "regression"
    spread = lambda q: (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
    every = min(gain(x, y) for x in b for y in c) > 0
    if max(spread(qb), spread(qc)) > bound and not every:
        return "unresolved"
    return "within bound"

print(f"{workload}: {pairs} pairs against {base_rev}, both sides built with RUSTFLAGS={rustflags!r}")
print(f"{'metric':<18} {'base q1/median/q3':>30} {'change q1/median/q3':>30} {'median':>8} "
      f"{'wins':>6} {'bound':>6}  verdict")
summary = {"base_rev": base_rev, "workload": workload, "pairs": pairs,
           "run_seconds": float(seconds), "rustflags": rustflags, "metrics": {}}
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    b = [r["metrics"][name]["value"] for r in res["base"]]
    c = [r["metrics"][name]["value"] for r in res["change"]]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
    qb, qc = quartiles(b), quartiles(c)
    move = (qc[1] / qb[1] - 1) * 100 if qb[1] else float("nan")
    call = verdict(b, c, qb, qc, wins, bound, higher)
    fmt = lambda q: "/".join(f"{v:.4f}" for v in q)
    print(f"{name:<18} {fmt(qb):>30} {fmt(qc):>30} {move:>+7.1f}% {wins:>3}/{pairs} "
          f"{bound:>6.2f}  {call}")
    side = lambda q: dict(zip(("q1", "median", "q3"), q))
    summary["metrics"][name] = {"base": side(qb), "change": side(qc), "change_wins": wins,
                                "bound": bound, "verdict": call}
json.dump(summary, open(f"{out_dir}/summary-{workload}.json", "w"), indent=2)
for side, pair in bad:
    print(f"FAIL: {side} run of pair {pair} reported incorrect results or failures")
sys.exit(1 if bad else 0)
EOF
