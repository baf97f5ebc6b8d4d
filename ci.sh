#!/usr/bin/env bash
# Repo gate: build, tests, lints, formatting. Run before every commit.
#
# Note: the workspace root is itself a package (panda-examples), so a
# bare `cargo test` would only run the root package's tests — every
# cargo invocation here must say --workspace to cover the crates.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The benchmark of record is its own workspace: nothing above compiles
# it, so an API change in crates/* that breaks it must fail here, not
# in the pipeline. Build it, run its own tests (wrapper transparency,
# BENCHMARK.json == its registry), then hold a --quick run of all four
# workloads against the committed baseline: `compare` exits nonzero on
# a `regressed` row or a failed operation (`unresolved` does not fail).
# With BENCHMARK.json's 20-25 % bounds this is a floor that catches the
# loss of a quarter against the committed baseline, not a ratchet.
benchmark() {
  cargo "$1" --release --offline --manifest-path benchmark/Cargo.toml "${@:2}"
}
benchmark build
benchmark test
ledger=$(mktemp /tmp/panda_ledger_ci.XXXXXX.json)
benchmark run -q -- run --quick --runs 3 --out "$ledger"
benchmark run -q -- compare benchmark/results/baseline.json "$ledger"
rm -f "$ledger"

# Purity gate: the collective window (crates/core/src/window.rs) decides
# when a step may start and nothing else. The runtime and the DES can
# share it only while it has no transport, file system, recorder, clock,
# channel or thread to reach for; a mention of one fails here.
if grep -nE 'panda_msg|panda_fs|panda_obs|std::time|mpsc|std::thread' crates/core/src/window.rs; then
  echo "ci: window.rs must stay a pure state machine (see the hits above)" >&2
  exit 1
fi

# Page-fault budget: natural chunking recycles its piece-sized buffers
# (panda_msg::freelist) and MemFs rewrites a re-created file's pages in
# place, so a steady-state bulk_mem operation faults in almost nothing.
# Minor faults of the run (set-up included) per attempted operation:
# ~10 800 before buffers were recycled, ~600 since. A count, not a
# timing, so the budget holds on a noisy host.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json, resource, subprocess
cmd = ["cargo", "run", "--release", "--offline", "-q", "--manifest-path", "benchmark/Cargo.toml",
       "--", "--workload", "bulk_mem", "--seed", "1", "--seconds", "5", "--trace", "0"]
out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
attempted = json.loads(out.strip().splitlines()[-1])["attempted"]
faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
per_op = faults / attempted
assert per_op <= 2000, f"bulk_mem: {per_op:.0f} minor page faults per operation exceeds the budget of 2000"
print(f"fault budget: {faults} minor faults / {attempted} operations = {per_op:.0f} per operation ok")
PY
fi

# Message budget: a 4 KiB session write is four messages (the OneShot
# that carries its bytes, its relay, and a Complete from each of the two
# servers: nothing is fetched), a read six (Collective, its relay, a
# Data and a Complete from each server), and small_sessions alternates
# them. Messages of 2000 traced operations, per operation: 4.97 (9 934,
# shutdown included; 7.03 / 14 066 while a small write still cost a
# Fetch and a Data per server). A count, not a timing: protocol growth
# fails here, and ROADMAP item 3's "<= 4 per op" tightens this number.
# The same run holds the bytes, not only the count: those 9 934
# messages are 13 398 680 bytes (6699.3 per operation; 13 402 680 until
# the 2 x 2 000 request frames lost their unused priority byte). That is
# MORE than the 9 452 488 (4726.2 per operation) of the fetching protocol,
# and meant: a one-shot delivers the whole 4 KiB to each I/O node, the
# master's relay included, where a Fetch drew only the node's own
# 2 KiB half — fewer hand-offs bought with bytes that are cheap at this
# size. A wire-format change that grows (or shrinks) a frame fails here
# the way a new message does; one made on purpose updates the number
# with it.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json, subprocess
ops = 2000
cmd = ["cargo", "run", "--release", "--offline", "-q", "--manifest-path", "benchmark/Cargo.toml",
       "--", "--workload", "small_sessions", "--seed", "1", "--seconds", "2", "--trace", "1",
       "--traced-ops", str(ops)]
out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
sent, sent_bytes = (metrics[name]["value"] for name in ("msg.sent", "msg.sent_bytes"))
per_op = sent / ops
assert per_op <= 5.1, f"small_sessions: {per_op:.2f} messages per operation exceeds the budget of 5.1"
assert sent_bytes == 13398680, f"small_sessions: {sent_bytes:.0f} bytes sent over {ops} operations, not 13398680"
print(f"message budget: {sent} messages, {sent_bytes} bytes / {ops} operations = {per_op:.2f} per operation ok")
PY
fi

# Durability counts: the write path got faster by paying for a
# checkpoint file once (create_sized) and by overlapping the device
# with the exchange (SubmitFs starts writeback as each subchunk
# completes), not by skipping a sync or a write. On a traced
# group_submit run, per checkpoint: 9 fs.sync calls -- the 8 data files
# under the per-collective policy, and the previous checkpoint's
# generation marker, which the master makes durable before it relays
# the next write -- 64 one-MiB submits + 2 marker writes = 66 write
# calls and 64 MiB + 70 marker bytes; every user byte crosses the file
# system once. Counts, not timings. A restart syncs nothing: it writes
# nothing, and a read never waits for the raw plane.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json, subprocess
ops = 4
cmd = ["cargo", "run", "--release", "--offline", "-q", "--manifest-path", "benchmark/Cargo.toml",
       "--", "--workload", "group_submit", "--seed", "1", "--seconds", "2", "--trace", "1",
       "--traced-ops", str(ops)]
out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
m = {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()}
checkpoints = ops // 2
want = {"fs.syncs": 9 * checkpoints, "fs.write_ops": 66 * checkpoints,
        "fs.write_bytes": (64 * 1024 * 1024 + 70) * checkpoints}
for name, count in want.items():
    assert m[name] == count, f"group_submit: {name} = {m[name]:.0f}, not {count}"
per_byte = m["fs.bytes_per_user_byte"]
assert abs(per_byte - 1) < 1e-4, f"group_submit: fs.bytes_per_user_byte = {per_byte}, not 1"
print(f"durability counts: {want} over {ops} operations, {per_byte:.4f} fs bytes per user byte ok")
PY
fi

# Experiment smokes: each bin below runs --quick end to end. Every bin
# validates each JSON line it writes (panda_obs::json::validate) and
# asserts its own invariants (byte-identical files across the modes it
# compares, read-back equality), exiting nonzero otherwise; python
# re-parses the output with an independent parser, then runs the bin's
# gate_<bin> function when one is defined.
#
#   group_timestep  sequential vs batched 4-array timestep
#   disk            LocalFs vs SubmitFs across sync policies
#   tenancy         sequential vs interleaved multi-session sweep
#   tuner           calibrate per backend profile, race tuned vs fixed depths
#   obs             recorder overhead, mid-run throttle drift, live scrape

# On MemFs the tuned cell must not be more than 5% slower than the best
# fixed-depth cell — the auto-tuner is allowed to tie, never to clearly
# lose.
gate_tuner() {
  python3 - "$1" <<'PY'
import json, sys
cells = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
memfs = [c for c in cells if c["profile"] == "memfs"]
assert memfs, "tuner bench emitted no memfs cells"
tuned = [c for c in memfs if c["mode"] == "tuned"]
fixed = [c for c in memfs if c["mode"].startswith("fixed/")]
assert len(tuned) == 1 and fixed, "memfs profile missing tuned or fixed cells"
best_fixed = min(c["measured_wall_s"] for c in fixed)
wall = tuned[0]["measured_wall_s"]
assert wall <= 1.05 * best_fixed, (
    f"tuned cell {wall:.6f}s is >5% slower than best fixed {best_fixed:.6f}s"
)
print(f"tuner gate: tuned {wall:.6f}s vs best fixed {best_fixed:.6f}s ok")
PY
}

# Store-only recorder overhead <= 3% (the always-on shape), the drift
# detector stays quiet on-model and fires after the throttle flip, the
# triggered retune recovers >= 80% of a fresh manual calibration, and
# every scraped Prometheus line parses.
gate_obs() {
  python3 - "$1" <<'PY'
import json, re, sys
rows = {c["id"]: c for l in open(sys.argv[1]) if l.strip() for c in [json.loads(l)]}
store = rows["obs/overhead/store"]
assert store["overhead_pct"] <= 3.0, (
    f"store-only recorder overhead {store['overhead_pct']:.2f}% exceeds the 3% budget"
)
assert rows["obs/drift/baseline"]["drifted"] == 0, "detector fired on-model"
thr = rows["obs/drift/throttled"]
assert thr["drifted"] == 1, "drift detector failed to fire on the throttled backend"
ret = rows["obs/drift/retuned"]
assert ret["recovery_vs_manual"] >= 0.8, (
    f"triggered retune recovered only {ret['recovery_vs_manual']:.2f} of manual"
)
scrape = rows["obs/scrape"]
line_re = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+)$"
)
lines = [l for l in scrape["metrics_text"].splitlines() if l.strip()]
bad = [l for l in lines if not line_re.match(l)]
assert not bad, f"unparseable Prometheus lines: {bad[:3]}"
for family in ("panda_events_total", "panda_health_status", "panda_live_requests"):
    assert any(l.startswith(family) for l in lines), f"missing family {family}"
assert scrape["healthz"]["status"] == "ok", scrape["healthz"]
print(
    f"obs gate: store overhead {store['overhead_pct']:.2f}%, drift score "
    f"{thr['drift_score']:.2f}, recovery {ret['recovery_vs_manual']:.2f}, "
    f"{len(lines)} metric lines ok"
)
PY
}

for bin in group_timestep disk tenancy tuner obs; do
  out=$(mktemp "/tmp/panda_${bin}_ci.XXXXXX.json")
  cargo run --release -q -p panda-bench --bin "$bin" -- --quick --out "$out"
  if command -v python3 >/dev/null; then
    python3 -c "import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$out"
    if declare -F "gate_$bin" >/dev/null; then
      "gate_$bin" "$out"
    fi
  fi
  rm -f "$out"
done

echo "ci: all green"
