#!/usr/bin/env bash
# Paired benchmark ratchet: the working tree against a base revision.
#
#   ./pairs.sh [--base REV] [--pairs N] [--seed S] [--seconds T] [--trace 0|1] [workload...]
#
# Builds benchmark/ at REV (default HEAD, exported with `git archive`
# into a temporary directory) and benchmark/ of the working tree, each
# into its own target directory under target/pairs/, offline. Then runs
# N pairs of `--workload W --seed S --seconds T --trace X` (X from
# --trace, default 0) per workload (default: every workload in
# BENCHMARK.json), flipping which side runs first each pair, and prints
# one row per workload and end-to-end metric:
# each side's median and quartiles, how many pairs the change won (ties
# count for neither), and a verdict under BENCHMARK.json's `better` and
# `bound`:
#
#   improved    the change won at least 9 pairs in 10 and the medians
#               differ by more than the base's quartile distance;
#   regressed   the change's median is worse than the base's by more
#               than the bound;
#   unresolved  either side's quartile distance is wider than the bound
#               (as a share of its median), unless every change run
#               reads better than every base run; setup_s, a fraction
#               of a second, is held by its median alone, as `compare`
#               holds it;
#   same        otherwise.
#
# Under the table, each workload's median `attempted` operations per
# run are printed for both sides with their ratio, and no verdict: a
# move in peak_rss_mb can then be read against how many operations a
# run's window held (the benchmark keeps a sample per operation).
#
# Under --trace 1 the benchmark reports its per-layer metrics, not the
# end-to-end ones, so each workload gets one row instead,
# `trace.overhead_pct`: each side's median and quartiles and the pairs
# the change won, with no verdict — BENCHMARK.json gives that metric no
# bound. The failed-share check holds either way.
#
# Exits nonzero on a regressed row, or when the change fails a larger
# share of operations than the base on some workload. Every run is
# printed as it finishes. Nothing under benchmark/ or BENCHMARK.json is
# edited; the exported tree is removed on exit. Ten pairs of one workload at
# the benchmark's 10 s take about five minutes; build nothing else
# while they run.
set -euo pipefail
cd "$(dirname "$0")"

usage() { sed -n '4p' "$0" | sed 's/^# */usage: /'; }
base=HEAD pairs=10 seed=1 seconds=10 trace=0
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --base | --pairs | --seed | --seconds | --trace)
      [ $# -ge 2 ] || { echo "pairs: $1 needs a value" >&2; exit 2; }
      declare "${1#--}=$2"
      shift 2
      ;;
    -h | --help) usage; exit 0 ;;
    --*) echo "pairs: unknown option $1" >&2; usage >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done

[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pairs: --pairs takes a count of at least 1" >&2; exit 2; }
[[ "$trace" =~ ^[01]$ ]] || { echo "pairs: --trace takes 0 or 1" >&2; exit 2; }

dir=target/pairs
tree="$dir/base-tree"
cleanup() { rm -rf "$tree"; }
trap cleanup EXIT
cleanup
mkdir -p "$tree"
git archive "$base" | tar -x -C "$tree"
cargo build --release --offline -q --manifest-path "$tree/benchmark/Cargo.toml" --target-dir "$dir/base"
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml --target-dir "$dir/change"

python3 - "$(git rev-parse --short "$base")" "$tree" "$dir" "$pairs" "$seed" "$seconds" "$trace" \
  "${workloads[@]}" <<'PY'
import json, math, os, statistics, subprocess, sys

rev, tree, out, pairs, seed, seconds, trace = sys.argv[1:8]
pairs = int(pairs)
bench = json.load(open("BENCHMARK.json"))
workloads = sys.argv[8:] or [w["name"] for w in bench["workloads"]]
# A traced run reports the per-layer metrics only; of those, pairs show
# the tracing overhead, unjudged.
metrics = bench["end_to_end"] if trace == "0" else []
shown = metrics or [{"name": "trace.overhead_pct"}]
sides = {
    "base": (os.path.join(out, "base/release/panda-benchmark"), tree),
    "change": (os.path.join(out, "change/release/panda-benchmark"), "."),
}


def run(side, workload):
    binary, cwd = sides[side]
    cmd = [os.path.abspath(binary), "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", trace]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"pairs: {side} {workload} printed no result (exit {done.returncode}):\n{done.stderr}")
    values = {m: v["value"] for m, v in result["metrics"].items()}
    return result["attempted"], result["failed"], values


def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3


def number(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


ok = True
rows = []
ops = {}
for w in workloads:
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            attempted, failed, values = run(side, w)
            runs[side].append((attempted, failed, values))
            line = " ".join(f"{m['name']}={values.get(m['name'], float('nan')):.4g}" for m in shown)
            print(f"{w} pair {i + 1}/{pairs} {side}: {attempted} ops, {failed} failed, {line}", flush=True)
    ops[w] = {s: statistics.median(r[0] for r in rs) for s, rs in runs.items()}
    share = {s: sum(r[1] for r in rs) / max(1, sum(r[0] for r in rs)) for s, rs in runs.items()}
    if share["change"] > share["base"]:
        print(f"pairs: {w}: the change failed {share['change']:.2%} of operations, the base {share['base']:.2%}")
        ok = False
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        b = [r[2].get(name) for r in runs["base"]]
        c = [r[2].get(name) for r in runs["change"]]
        if not all(map(number, b + c)):
            rows.append((w, name, None))
            continue
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(b, c))
        qb, qc = quartiles(b), quartiles(c)
        mb, mc = statistics.median(b), statistics.median(c)
        worse = ((mc - mb) if lower else (mb - mc)) / mb if mb else 0.0
        spread = max((qb[2] - qb[0]) / mb if mb else 0.0, (qc[2] - qc[0]) / mc if mc else 0.0)
        every = all(better(y, x) for x in b for y in c)
        if wins >= math.ceil(0.9 * pairs) and better(mc, mb) and abs(mc - mb) > qb[2] - qb[0]:
            verdict = "improved"
        elif worse > bound:
            verdict = "regressed"
            ok = False
        elif spread > bound and name != "setup_s" and not every:
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append((w, name, (mb, qb, mc, qc, wins, spread, bound, verdict)))
    if trace == "1":
        name = "trace.overhead_pct"
        b = [r[2].get(name) for r in runs["base"]]
        c = [r[2].get(name) for r in runs["change"]]
        if not all(map(number, b + c)):
            rows.append((w, name, None))
            continue
        wins = sum(y < x for x, y in zip(b, c))
        mb, mc = statistics.median(b), statistics.median(c)
        rows.append((w, name, (mb, quartiles(b), mc, quartiles(c), wins, None, None, "-")))

print()
print(f"{pairs} pairs, seed {seed}, {seconds} s, trace {trace}; base {rev}, change: the working tree")
print(f"{'workload':<15} {'metric':<18} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
      f"{'ratio':>6} {'won':>6} {'spread':>7} {'bound':>6}  verdict")
for w, name, row in rows:
    if row is None:
        print(f"{w:<15} {name:<18} {'(not reported)':>30}")
        continue
    mb, qb, mc, qc, wins, spread, bound, verdict = row
    side = lambda m, q: f"{m:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    ratio = mc / mb if mb else float("nan")
    spread = "-" if spread is None else f"{spread:.1%}"
    bound = "-" if bound is None else f"{bound:.0%}"
    print(f"{w:<15} {name:<18} {side(mb, qb):>30} {side(mc, qc):>30} {ratio:>6.3f} "
          f"{wins:>3}/{pairs:<2} {spread:>7} {bound:>6}  {verdict}")
print()
print(f"{'workload':<15} {'attempted':<18} {'base median':>30} {'change median':>30} {'ratio':>6}")
for w, o in ops.items():
    ratio = o["change"] / o["base"] if o["base"] else float("nan")
    print(f"{w:<15} {'ops per run':<18} {o['base']:>30.0f} {o['change']:>30.0f} {ratio:>6.3f}")
sys.exit(0 if ok else 1)
PY
