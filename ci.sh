#!/usr/bin/env bash
# Repo gate: build, tests, lints, formatting. Run before every commit.
#
# Note: the workspace root is itself a package (panda-examples); its
# `default-members` make a bare `cargo build` / `cargo test` cover every
# crate under crates/ and the examples, but not the offline stand-ins
# under third_party/ (their own tests), so every cargo invocation here
# still says --workspace.
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

# Purity gate: one pure machine per role decides, and nothing else: the
# collective window (when a server's step may start), the participant
# (what a compute node makes of each server's message) and admission
# (which request starts, waits or is refused); and one composition of
# the three, the mesh, which the walker and the DES both drive. The
# runtime, the DES and the walker can share them only while they have no
# transport, file system, recorder, clock, channel or thread to reach
# for; a mention of one, or a missing file, fails here.
for machine in window participant admission mesh; do
  file="crates/core/src/$machine.rs"
  if [ ! -f "$file" ] || grep -nE 'panda_msg|panda_fs|panda_obs|std::time|mpsc|std::thread' "$file"; then
    echo "ci: $file must exist and stay pure (see any hits above)" >&2
    exit 1
  fi
done

# One-composition gate: the protocol is composed once, in
# crates/core/src/mesh.rs. The DES is a scheduler over it that charges
# what each move emits, so crates/model/src builds no window of its own
# and has no server or client actor; and the simulation engine is a timed
# queue with no actor registry.
if grep -rnE 'Window::new|ServerActor|ClientActor' crates/model/src ||
  grep -rnE 'trait Actor' crates/sim/src; then
  echo "ci: the DES drives panda_core::mesh; no actors or windows of its own (see the hits above)" >&2
  exit 1
fi
# The I/O node's decisions are one `mesh::Node`, which the runtime's
# driver runs too: the non-test, non-comment code of
# crates/core/src/server.rs builds no window or admission, submits to
# and retires from no admission, and feeds no window itself.
driver_code=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/server.rs | grep -vE '^[[:space:]]*//')
if grep -nE 'Window::new|Admission::new|\.submit\(|\.retire\(\)|win\.on\(' <<<"$driver_code"; then
  echo "ci: server.rs drives mesh::Node; no windows or admission of its own (see the hits above)" >&2
  exit 1
fi
# The compute node's decisions are one `participant::Participant`,
# which lives across its collectives: it takes each message, sets aside
# what is for the next collective and takes that first when the next
# begins. So the non-test, non-comment code of crates/core/src/client.rs
# feeds no participant message by message and keeps no queue of its own,
# and that of crates/core/src/mesh.rs keeps no set-aside either.
client_code=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/client.rs | grep -vE '^[[:space:]]*//')
mesh_code=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/mesh.rs | grep -vE '^[[:space:]]*//')
if grep -nE '\.on\(|SetAside|VecDeque' <<<"$client_code" || grep -nE 'SetAside|early' <<<"$mesh_code"; then
  echo "ci: client.rs and mesh.rs drive participant::Participant; no set-aside of their own (see the hits above)" >&2
  exit 1
fi

# Purity gate: the metrics store (crates/obs/src/store.rs) has one
# concurrency idiom, a mutex per shard around plain numbers, and a
# snapshot that holds every shard lock at once. An atomic, fence, spin,
# yield or CAS above its tests would bring back a second protocol to
# reason about; its tests may use atomics for their stop flags.
if sed '/^#\[cfg(test)\]/,$d' crates/obs/src/store.rs |
  grep -nE 'std::sync::atomic|fence|spin_loop|yield_now|compare_exchange|fetch_update'; then
  echo "ci: store.rs must stay a mutex around plain numbers (see the hits above)" >&2
  exit 1
fi

# Thread gate: an I/O node is two threads, its driver and its disk task.
# The driver reorganizes in both directions (a write piece where it
# lands, a read piece where it is pushed), so the non-test code of
# crates/core/src/server.rs names no worker pool and spawns exactly one
# thread, the one named panda-disk-<server>. Comment lines are skipped.
server_code=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/server.rs | grep -vE '^[[:space:]]*//')
if grep -nE 'IoPool' <<<"$server_code"; then
  echo "ci: server.rs must not name IoPool: the driver packs read pieces itself" >&2
  exit 1
fi
spawns=$(grep -cE 'spawn|thread::scope' <<<"$server_code" || true)
names=$(grep -oE '\.name\(format!\("[^"{]*' <<<"$server_code" | sed 's/.*"//' | tr '\n' ' ')
if [ "$spawns" -ne 1 ] || [ "$names" != "panda-disk- " ]; then
  echo "ci: server.rs spawns $spawns thread(s) named '${names}'; only the disk task (panda-disk-)" >&2
  exit 1
fi

# Polling gate: a thread waits by parking. The one poll is the bounded
# hand-off of a small collective (`poll_handoff` in
# crates/core/src/handoff.rs: at most HANDOFF_POLL, then the thread
# parks), which three callers share: an I/O node's driver waiting for a
# small run's disk answer, its disk task for the run's next command, and
# a small collective's client, once a server has answered, for the
# others' answers. So the non-test code under crates/*/src names
# `yield_now` or `spin_loop` nowhere else. A second poll would take a
# core from the copies on a host with two, and its bound would be one
# more to keep. Each hit is named by the innermost `fn` whose braces
# enclose it; comment lines are skipped.
polls=$(find crates/*/src -name '*.rs' | sort | while read -r file; do
  sed '/^#\[cfg(test)\]/,$d' "$file" | awk -v file="$file" '
    /^[[:space:]]*\/\// { next }
    {
      if (match($0, /fn [A-Za-z_][A-Za-z0-9_]*/)) pending = substr($0, RSTART + 3, RLENGTH - 3)
      if ($0 ~ /yield_now|spin_loop/) {
        inner = "(none)"
        for (d = depth; d > 0; d--) if (d in fn) { inner = fn[d]; break }
        if (inner == "(none)" && pending != "") inner = pending
        print file ":" NR ": fn " inner ": " $0
      }
      for (i = 1; i <= length($0); i++) {
        c = substr($0, i, 1)
        if (c == "{") { depth++; if (pending != "") { fn[depth] = pending; pending = "" } }
        if (c == "}") { delete fn[depth]; depth-- }
      }
      if ($0 ~ /;[[:space:]]*$/) pending = ""
    }'
done)
if grep -vE '^crates/core/src/handoff\.rs:[0-9]+: fn poll_handoff: ' <<<"$polls" | grep .; then
  echo "ci: yield_now/spin_loop only in handoff.rs's poll_handoff, the bounded hand-off poll (see the hits above)" >&2
  exit 1
fi

# Disk-command gate: a disk command names a request and a step. Its
# run's `Open` shares the schedule with the disk task, which reads each
# step's file, offset, length and sync point off it, as the DES's disk
# does. A layout fact restated as a field of `enum DiskCmd` in
# crates/core/src/server.rs would be a second copy of the plan to keep
# in step with the first. Comment lines are skipped.
disk_cmd=$(sed -n '/^enum DiskCmd {/,/^}/p' crates/core/src/server.rs | grep -vE '^[[:space:]]*//' || true)
if [ -z "$disk_cmd" ]; then
  echo "ci: enum DiskCmd not found in crates/core/src/server.rs" >&2
  exit 1
fi
if grep -nE '(^|[^[:alnum:]_])(offset|last_of_file|key|file|files|empty_files|bytes)[[:space:]]*:([^:]|$)' <<<"$disk_cmd"; then
  echo "ci: a DiskCmd names a step; the disk task reads its layout off the schedule" >&2
  exit 1
fi
# The same schedule says which step is a run's last, so the answer to
# that step is the run's end: no command or answer closes a run, and
# the window, which decides when a run retires, names no `Close`.
# `enum DiskCmd` holds exactly `Open`, `Write` and `Read`, `enum DiskOut`
# exactly `Written` and `Full` (variants are the 4-space-indented
# capitalized names; comment lines skipped).
variants() {
  sed -n "/^$2 {/,/^}/p" "$1" | grep -vE '^[[:space:]]*//' |
    grep -oE '^    [A-Z][A-Za-z0-9_]*' | tr -d ' ' | tr '\n' ' ' || true
}
for want in "DiskCmd:Open Write Read " "DiskOut:Written Full "; do
  got=$(variants crates/core/src/server.rs "enum ${want%%:*}")
  if [ "$got" != "${want#*:}" ]; then
    echo "ci: enum ${want%%:*} holds '${got}', not '${want#*:}': a run's last answer is its end" >&2
    exit 1
  fi
done
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/window.rs | grep -vE '^[[:space:]]*//' | grep -n 'Close'; then
  echo "ci: window.rs names Close: a write retires on its last Written" >&2
  exit 1
fi

# Performer gate: performing an action may answer it at once, and that
# is one rule, not a case per action: `Perform::act` returns the answer
# (a one-shot's `Piece`, the runtime's `Pushed`) and the node feeds it
# back. A run's end is its window's state (`Window::retired`), not an
# action. So `enum Action` in crates/core/src/window.rs holds exactly
# `Fetch`, `Write`, `Read` and `Scatter`; `trait Perform` in
# crates/core/src/mesh.rs declares no associated `const` and no
# `fn carried`; and the non-test, non-comment code of server.rs and
# mesh.rs names neither `PUSHED` nor `Action::Retire`.
actions=$(variants crates/core/src/window.rs "pub enum Action")
if [ "$actions" != "Fetch Write Read Scatter " ]; then
  echo "ci: enum Action holds '${actions}', not 'Fetch Write Read Scatter ': a run's end is its window's state" >&2
  exit 1
fi
perform=$(sed -n '/^pub(crate) trait Perform</,/^}/p' crates/core/src/mesh.rs | grep -vE '^[[:space:]]*//' || true)
if [ -z "$perform" ] || grep -nE '(^|[^[:alnum:]_])const[[:space:]]|fn carried' <<<"$perform"; then
  echo "ci: trait Perform in mesh.rs must exist with no const and no fn carried: act returns an at-once answer" >&2
  exit 1
fi
if grep -nE 'PUSHED|Action::Retire' <<<"$server_code" || grep -nE 'PUSHED|Action::Retire' <<<"$mesh_code"; then
  echo "ci: server.rs and mesh.rs name PUSHED or Action::Retire: act returns an at-once answer (see the hits above)" >&2
  exit 1
fi

# One-plan gate: the planner has one output, `CollectiveSchedule`, which
# the servers, the DES, the tuner and the benchmark's ceilings all walk;
# where a chunk sits in a file is `server_chunks` alone. A per-array plan
# type beside the schedule (`ServerPlan`, `PlanChunk` and
# `build_server_plan` were one) would be a second plan to keep in step
# with the first. And the file tools (crates/tools/src) name no subchunk
# cap: a file's layout does not depend on how its chunks are cut.
# Comment lines are skipped in the first check.
if grep -rnE 'ServerPlan|PlanChunk|build_server_plan' crates examples |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "ci: CollectiveSchedule is the planner's one output (see the hits above)" >&2
  exit 1
fi
if grep -rnE 'DEFAULT_SUBCHUNK_BYTES' crates/tools/src; then
  echo "ci: the file tools read chunk placements; a file's layout names no subchunk cap" >&2
  exit 1
fi

# Count gate: the event vocabulary (crates/obs/src/event.rs) holds at
# most 17 kinds. A new kind must replace one: the window's actions are
# already one kind (`Event::Step`, named by its `StepAction`), so what a
# step did is an action, not a kind of its own; and with the disk task
# the I/O node's one write queue, a write has no submission or
# completion of its own to report.
kinds=$(sed -nE 's/^pub const KIND_COUNT: usize = ([0-9]+);$/\1/p' crates/obs/src/event.rs)
if [ -z "$kinds" ] || [ "$kinds" -gt 17 ]; then
  echo "ci: KIND_COUNT is ${kinds:-not found} in crates/obs/src/event.rs; at most 17 (replace a kind)" >&2
  exit 1
fi

# One-setter gate: each setting has one setter. The nine `fn with_` in
# crates/core/src are PandaConfig's setters, which the frozen benchmark
# calls (ROADMAP B(g)); a tenth would be a second way to set something
# (a per-array subchunk cap beside the request's was one). A file-system
# backend takes its recorder through FileSystem::set_recorder, never a
# constructor of its own. And FabricStats is four atomics: a Mutex in
# crates/msg/src/stats.rs above its tests would put a lock on every send.
setters=$(grep -roE 'fn with_' crates/core/src | wc -l)
if [ "$setters" -gt 9 ]; then
  grep -rnE 'fn with_' crates/core/src >&2
  echo "ci: $setters 'fn with_' in crates/core/src; at most 9 (one setter per setting)" >&2
  exit 1
fi
if grep -rnE 'fn with_recorder' crates/fs/src; then
  echo "ci: a backend attaches its recorder through FileSystem::set_recorder only" >&2
  exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/msg/src/stats.rs | grep -nE 'Mutex'; then
  echo "ci: FabricStats must stay four atomics (no lock on a send)" >&2
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

# Traced counts: counts, not timings, so they hold on a noisy host. Each
# row runs one workload traced over a fixed number of operations and
# holds named metrics to exact values (`exact`) or to a ceiling per
# traced operation (`per_op`). The reason for every number is the
# comment above its row.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json, subprocess
MIB = 1024 * 1024
CHECKPOINTS = 4 // 2  # group_submit alternates a checkpoint and a restart
TABLE = [
    # Message budget: a 4 KiB session write is four messages (the OneShot
    # that carries its bytes, its relay, and a Complete from each of the
    # two servers: nothing is fetched), a read six (Collective, its relay,
    # a Data and a Complete from each server), and small_sessions
    # alternates them. Messages of 2000 traced operations, per operation:
    # 4.97 (9 934, shutdown included; 7.03 / 14 066 while a small write
    # still cost a Fetch and a Data per server). Protocol growth fails
    # here, and ROADMAP item 6(c)'s "<= 4 per op" tightens this number.
    # The same run holds the bytes, not only the count: those 9 934
    # messages are 13 366 680 bytes (6683.3 per operation; 13 402 680
    # until the 2 x 2 000 request frames lost their unused priority byte,
    # 13 398 680 until each lost its array's 8-byte subchunk cap).
    # That is MORE than the 9 452 488 (4726.2 per operation) of the
    # fetching protocol, and meant: a one-shot delivers the whole 4 KiB to
    # each I/O node, the master's relay included, where a Fetch drew only
    # the node's own 2 KiB half -- fewer hand-offs bought with bytes that
    # are cheap at this size. A wire-format change that grows (or
    # shrinks) a frame fails here the way a new message does; one made on
    # purpose updates the number with it. Read credits left both numbers
    # where they were: a read of at most pipeline_depth steps per I/O
    # node awaits nothing, so these reads (one step per node) send no
    # Credit, and whether a piece is awaited travels as its tag
    # (awaited_data), not as a byte added to every data frame.
    # The same run holds its file-system counts, which every change to
    # the disk path must leave alone: seed 1 draws 1 033 session writes
    # and 967 reads, and each is one 2 KiB access per I/O node -- 2 066
    # writes of 4 231 168 bytes, each file synced once (per-file policy,
    # one file per write per node: 2 066 syncs), and 1 934 reads.
    ("small_sessions", 2000, {"msg.sent_bytes": 13366680, "fs.write_ops": 2066,
                              "fs.write_bytes": 4231168, "fs.read_ops": 1934,
                              "fs.syncs": 2066}, {"msg.sent": 5.1}),
    # Credit count: a read is paced by its readers, one Credit per awaited
    # piece. On a traced bulk_mem run of 20 operations (10 writes, 10
    # reads) each I/O node pushes 32 one-MiB steps per read at depth 2, so
    # 30 are awaited: 60 credits per read. 2 640 messages, 2 040 before
    # credits; the count repeats exactly. A read that stops crediting, or
    # a write that starts, fails here. The same run holds the bytes, as
    # the message budget does: 1 342 363 640 (1 342 363 960 until the 2 x
    # 20 request frames lost their array's 8-byte subchunk cap). A piece
    # is named by its seq
    # (step << 32 | piece) and a credit by its request alone, so a change
    # to how either is named that grows a frame fails here too, not only
    # on small_sessions (whose reads send no credit).
    ("bulk_mem", 20, {"msg.sent": 2640, "msg.sent_bytes": 1342363640}, {}),
    # Durability counts: the write path got faster by paying for a
    # checkpoint file once (create_sized) and by overlapping the device
    # with the exchange (LocalFs starts writeback as each subchunk
    # lands), not by skipping a sync or a write. Per checkpoint: 9
    # fs.sync calls -- the 8 data files under the per-collective policy,
    # and the previous checkpoint's generation marker, which the master
    # makes durable before it relays the next write -- 64 one-MiB writes
    # + 2 marker writes = 66 write calls and 64 MiB + 70 marker bytes;
    # every user byte crosses the file system once. A restart syncs
    # nothing: it writes nothing, and a read never waits for the raw
    # plane. The same run holds its traffic: 548 messages, 268 478 424
    # bytes (identical on seeds 1, 2, 3 and 7; 268 478 680 until the 2 x 4
    # request frames lost 8 bytes per array, 4 arrays each). Assembling a write piece
    # where it lands, and making the disk task the I/O node's one write
    # queue (SubmitFs's completion threads gone, each write answered where
    # it is issued), changed when actions are performed, not what is sent
    # or written.
    ("group_submit", 4, {"fs.syncs": 9 * CHECKPOINTS, "fs.write_ops": 66 * CHECKPOINTS,
                         "fs.write_bytes": (64 * MIB + 70) * CHECKPOINTS,
                         "msg.sent": 548, "msg.sent_bytes": 268478424,
                         "fs.bytes_per_user_byte": 1}, {}),
    # The same for bulk_tcp_disk, whose LocalFs disk task also starts
    # writeback as each subchunk lands: on 20 traced operations (10
    # writes of 64 MiB over two I/O nodes, 10 reads) 640 one-MiB writes,
    # 671 088 640 bytes, one fdatasync per written file (20), every user
    # byte written once, 5 160 messages and 1 342 539 320 message bytes
    # (1 342 539 640 until the 2 x 20 request frames lost their array's
    # 8-byte subchunk cap). The closing sync may wait less, never be
    # skipped.
    ("bulk_tcp_disk", 20, {"fs.write_ops": 640, "fs.write_bytes": 671088640, "fs.syncs": 20,
                           "msg.sent": 5160, "msg.sent_bytes": 1342539320,
                           "fs.bytes_per_user_byte": 1}, {}),
]
for workload, ops, exact, per_op in TABLE:
    cmd = ["cargo", "run", "--release", "--offline", "-q", "--manifest-path", "benchmark/Cargo.toml",
           "--", "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1",
           "--traced-ops", str(ops)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    m = {k: v["value"] for k, v in json.loads(out.strip().splitlines()[-1])["metrics"].items()}
    for name, want in exact.items():
        # Counts are whole numbers; the one ratio is held to 1e-4.
        assert abs(m[name] - want) < 1e-4, f"{workload}: {name} = {m[name]}, not {want}"
    for name, ceiling in per_op.items():
        per = m[name] / ops
        assert per <= ceiling, f"{workload}: {per:.2f} {name} per operation exceeds {ceiling}"
    print(f"traced counts: {workload}, {ops} operations: {exact} exactly, {per_op} per operation ok")
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
#   disk            LocalFs across sync policies and depths
#   tenancy         sequential vs interleaved multi-session sweep
#   tuner           calibrate per backend profile, race tuned vs fixed depths
#   obs             recorder overhead, live scrape

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

# Store-only recorder overhead <= 3% (the always-on shape), and every
# scraped Prometheus line parses.
gate_obs() {
  python3 - "$1" <<'PY'
import json, re, sys
rows = {c["id"]: c for l in open(sys.argv[1]) if l.strip() for c in [json.loads(l)]}
store = rows["obs/overhead/store"]
assert store["overhead_pct"] <= 3.0, (
    f"store-only recorder overhead {store['overhead_pct']:.2f}% exceeds the 3% budget"
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
print(f"obs gate: store overhead {store['overhead_pct']:.2f}%, {len(lines)} metric lines ok")
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

# Paired ratchet, on request: `PAIRS=N ./ci.sh` runs N interleaved
# pairs of every workload, this tree against HEAD (pairs.sh), and fails
# on a regressed row or a larger failed share. Not by default: ten pairs
# of the four workloads take ~20 min.
if [ -n "${PAIRS:-}" ]; then
  ./pairs.sh --pairs "$PAIRS"
fi

echo "ci: all green"
