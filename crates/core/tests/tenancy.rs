//! Multi-tenant service mode: concurrent session requests interleaving
//! on shared I/O nodes must honor admission control (typed rejection
//! when saturated, queue drain otherwise), never starve a tenant, and
//! produce byte-identical files whether requests run one at a time or
//! interleaved. Request-scoped observability must attribute each
//! event to the request that caused it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use panda_core::{
    AdmissionIssue, ArrayMeta, PandaConfig, PandaError, PandaService, PandaSystem, ReadSet,
    Session, WriteSet,
};
use panda_fs::{FileHandle, FileSystem, FsError, IoStats, MemFs};
use panda_obs::{DumpTrigger, Recorder, TelemetryRecorder, DEFAULT_RING_CAPACITY};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

/// A single-node-mesh array (the session-mode requirement): this
/// session's buffer covers the whole array.
fn solo_meta(name: &str, dims: &[usize]) -> ArrayMeta {
    let shape = Shape::new(dims).unwrap();
    let mesh = Mesh::new(&vec![1; dims.len()]).unwrap();
    let mem = DataSchema::block_all(shape, ElementType::U8, mesh).unwrap();
    ArrayMeta::natural(name, mem).unwrap()
}

/// Deterministic per-tenant payload, never zero.
fn tenant_bytes(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((seed.wrapping_mul(131).wrapping_add(i.wrapping_mul(7))) % 251) as u8 + 1)
        .collect()
}

// ---------------------------------------------------------------------
// A gate that blocks the disk stage's writes until released, so a test
// can hold one request live on the server deterministically.
// ---------------------------------------------------------------------

#[derive(Default)]
struct GateState {
    open: bool,
    reached: bool,
}

#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    /// Called from the disk thread: note that a write arrived, then
    /// block until the gate opens.
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.reached = true;
        self.cv.notify_all();
        while !st.open {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Block the test thread until some write has reached the gate.
    fn wait_reached(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.reached {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        let mut st = self.state.lock().unwrap();
        st.open = true;
        self.cv.notify_all();
    }
}

/// MemFs whose write path blocks on a [`Gate`].
struct GateFs {
    inner: Arc<MemFs>,
    gate: Arc<Gate>,
}

struct GateHandle {
    inner: Box<dyn FileHandle>,
    gate: Arc<Gate>,
}

impl FileHandle for GateHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.gate.pass();
        self.inner.write_at(offset, data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&mut self) -> Result<(), FsError> {
        self.inner.sync()
    }
}

impl FileSystem for GateFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(Box::new(GateHandle {
            inner: self.inner.create(path)?,
            gate: Arc::clone(&self.gate),
        }))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(Box::new(GateHandle {
            inner: self.inner.open(path)?,
            gate: Arc::clone(&self.gate),
        }))
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.inner.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }
}

fn serve_gated_rec(
    sessions: usize,
    max_concurrent: usize,
    max_queued: usize,
    recorder: Option<Arc<dyn Recorder>>,
) -> (PandaService, Arc<MemFs>, Arc<Gate>) {
    let mem = Arc::new(MemFs::new());
    let gate = Arc::new(Gate::default());
    let (fs, g) = (Arc::clone(&mem), Arc::clone(&gate));
    let mut config = PandaConfig::new(sessions, 1)
        .with_max_concurrent_collectives(max_concurrent)
        .with_max_queued_collectives(max_queued)
        .with_recv_timeout(Duration::from_secs(20));
    if let Some(rec) = recorder {
        config = config.with_recorder(rec);
    }
    let service = PandaSystem::builder()
        .config(config)
        .serve(move |_| {
            Arc::new(GateFs {
                inner: Arc::clone(&fs),
                gate: Arc::clone(&g),
            }) as Arc<dyn FileSystem>
        })
        .unwrap();
    (service, mem, gate)
}

fn serve_gated(
    sessions: usize,
    max_concurrent: usize,
    max_queued: usize,
) -> (PandaService, Arc<MemFs>, Arc<Gate>) {
    serve_gated_rec(sessions, max_concurrent, max_queued, None)
}

#[test]
fn saturated_service_rejects_with_typed_error() {
    let (mut service, mem, gate) = serve_gated(2, 1, 0);
    let a = service.open().unwrap();
    let mut b = service.open().unwrap();
    assert!(service.open().is_none(), "only two slots configured");

    let meta = solo_meta("t", &[8, 8]);
    let data_a = tenant_bytes(1, 64);
    let data_b = tenant_bytes(2, 64);

    let (a, req_a) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut a = a;
            let req = a
                .write_set(&WriteSet::new().array(&meta, "a", &data_a))
                .unwrap();
            (a, req)
        });
        // A's request is live on the server (its first disk write is
        // parked at the gate). A second submission must be rejected
        // *typed*, not blocked: max_concurrent 1, queue 0.
        gate.wait_reached();
        let err = b
            .write_set(&WriteSet::new().array(&meta, "b", &data_b))
            .unwrap_err();
        match err {
            PandaError::Admission {
                issue: AdmissionIssue::Saturated { live, max },
            } => {
                assert_eq!((live, max), (1, 1));
            }
            other => panic!("expected Saturated admission error, got {other}"),
        }
        gate.open();
        h.join().unwrap()
    });

    // The slot is free again: the rejected tenant retries and succeeds.
    let req_b = b
        .write_set(&WriteSet::new().array(&meta, "b", &data_b))
        .unwrap();
    assert_ne!(req_a, req_b);
    assert_eq!(mem.contents("a.s0").unwrap(), data_a);
    assert_eq!(mem.contents("b.s0").unwrap(), data_b);
    service.shutdown(vec![a, b]).unwrap();
}

#[test]
fn queued_request_drains_when_slot_frees() {
    let (mut service, mem, gate) = serve_gated(2, 1, 8);
    let a = service.open().unwrap();
    let b = service.open().unwrap();

    let meta = solo_meta("t", &[8, 8]);
    let data_a = tenant_bytes(3, 64);
    let data_b = tenant_bytes(4, 64);

    let (a, b, req_a, req_b) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            let mut a = a;
            let req = a
                .write_set(&WriteSet::new().array(&meta, "a", &data_a))
                .unwrap();
            (a, req)
        });
        gate.wait_reached();
        // B is admitted into the queue (not rejected) and blocks until
        // A's slot frees.
        let hb = s.spawn(|| {
            let mut b = b;
            let req = b
                .write_set(&WriteSet::new().array(&meta, "b", &data_b))
                .unwrap();
            (b, req)
        });
        std::thread::sleep(Duration::from_millis(50));
        gate.open();
        let (a, req_a) = ha.join().unwrap();
        let (b, req_b) = hb.join().unwrap();
        (a, b, req_a, req_b)
    });

    assert_ne!(req_a, req_b);
    assert_eq!(mem.contents("a.s0").unwrap(), data_a);
    assert_eq!(mem.contents("b.s0").unwrap(), data_b);
    service.shutdown(vec![a, b]).unwrap();
}

/// The three tenants' 64-byte writes above are one-shots: each carries
/// its bytes with its request. Here with two I/O nodes, so the master
/// must hold a *queued* one-shot's bytes and relay them when the slot
/// frees, and a *refused* one must still come back as typed flow
/// control, not as a write that half happened.
#[test]
fn a_queued_one_shot_keeps_its_bytes_and_a_refused_one_its_typed_error() {
    use panda_core::protocol::tags;

    let mems: Vec<Arc<MemFs>> = (0..2).map(|_| Arc::new(MemFs::new())).collect();
    let gate = Arc::new(Gate::default());
    let (fss, g) = (mems.clone(), Arc::clone(&gate));
    let mut service = PandaSystem::builder()
        .config(
            PandaConfig::new(3, 2)
                .with_max_concurrent_collectives(1)
                .with_max_queued_collectives(1)
                .with_recv_timeout(Duration::from_secs(20)),
        )
        .serve(move |s| {
            Arc::new(GateFs {
                inner: Arc::clone(&fss[s]),
                gate: Arc::clone(&g),
            }) as Arc<dyn FileSystem>
        })
        .unwrap();
    let a = service.open().unwrap();
    let b = service.open().unwrap();
    let mut c = service.open().unwrap();

    // Rows over the two I/O nodes: each holds half of every file.
    let shape = Shape::new(&[8, 8]).unwrap();
    let mem = DataSchema::block_all(shape.clone(), ElementType::U8, Mesh::new(&[1, 1]).unwrap());
    let disk = DataSchema::traditional_order(shape, ElementType::U8, 2).unwrap();
    let meta = ArrayMeta::new("t", mem.unwrap(), disk).unwrap();
    let datas: Vec<Vec<u8>> = (6..9).map(|seed| tenant_bytes(seed, 64)).collect();

    let health = Arc::clone(service.system().health());
    let (a, b) = std::thread::scope(|s| {
        let submit = |mut sess: Session, tag: &'static str, data| {
            let meta = &meta;
            s.spawn(move || {
                sess.write_set(&WriteSet::new().array(meta, tag, data))
                    .unwrap();
                sess
            })
        };
        let ha = submit(a, "a", &datas[0]);
        gate.wait_reached();
        let hb = submit(b, "b", &datas[1]);
        while health.snapshot().queued < 1 {
            std::thread::yield_now();
        }
        let err = c
            .write_set(&WriteSet::new().array(&meta, "c", &datas[2]))
            .unwrap_err();
        let full = AdmissionIssue::QueueFull { queued: 1, max: 1 };
        gate.open();
        assert!(
            matches!(err, PandaError::Admission { issue } if issue == full),
            "expected QueueFull, got {err}"
        );
        (ha.join().unwrap(), hb.join().unwrap())
    });

    for (tag, data) in [("a", &datas[0]), ("b", &datas[1])] {
        for (s, half) in data.chunks(32).enumerate() {
            assert_eq!(mems[s].contents(&format!("{tag}.s{s}")).unwrap(), half);
        }
    }
    assert!(!mems
        .iter()
        .any(|m| m.list().iter().any(|f| f.starts_with("c."))));
    // Three submissions and two relays, all with their bytes; nothing
    // fetched, nothing sent back but completions and the refusal.
    // (Counted once the I/O nodes have exited: a send is counted just
    // after it is made, which its receiver need not wait for.)
    let stats = Arc::clone(&service.system().fabric_stats);
    service.shutdown(vec![a, b, c]).unwrap();
    let msgs = |tag| stats.tag_counts(tag).msgs;
    assert_eq!(msgs(tags::ONE_SHOT), 5);
    assert_eq!(
        (msgs(tags::COLLECTIVE), msgs(tags::FETCH), msgs(tags::DATA)),
        (0, 0, 0)
    );
    assert_eq!((msgs(tags::COMPLETE), msgs(tags::REJECT)), (4, 1));
}

/// Eight tenants submitting at once, more than the concurrency limit:
/// every request completes (queued ones drain, nobody starves), every
/// request id is distinct, and every tenant reads its own bytes back.
#[test]
fn eight_concurrent_sessions_none_starve() {
    const TENANTS: usize = 8;
    let mems: Vec<Arc<MemFs>> = (0..2).map(|_| Arc::new(MemFs::new())).collect();
    let handles = mems.clone();
    let mut service = PandaSystem::builder()
        .config(
            PandaConfig::new(TENANTS, 2)
                .with_max_concurrent_collectives(3)
                .with_max_queued_collectives(TENANTS)
                .with_recv_timeout(Duration::from_secs(30)),
        )
        .serve(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap();

    let sessions: Vec<Session> = (0..TENANTS).map(|_| service.open().unwrap()).collect();
    let metas: Vec<ArrayMeta> = (0..TENANTS)
        .map(|i| solo_meta(&format!("t{i}"), &[16, 16]))
        .collect();

    let (sessions, ids) = std::thread::scope(|s| {
        let joins: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut sess)| {
                let meta = &metas[i];
                s.spawn(move || {
                    let data = tenant_bytes(i, 256);
                    let tag = format!("t{i}");
                    let req = sess
                        .write_set(&WriteSet::new().array(meta, tag.as_str(), &data))
                        .unwrap();
                    let mut back = vec![0u8; 256];
                    sess.read_set(&mut ReadSet::new().array(meta, tag.as_str(), &mut back))
                        .unwrap();
                    assert_eq!(back, data, "tenant {i} read back wrong bytes");
                    (sess, req)
                })
            })
            .collect();
        let mut sessions = Vec::new();
        let mut ids = Vec::new();
        for j in joins {
            let (sess, req) = j.join().unwrap();
            sessions.push(sess);
            ids.push(req);
        }
        (sessions, ids)
    });

    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        TENANTS,
        "request ids must be distinct: {ids:?}"
    );
    service.shutdown(sessions).unwrap();
}

const TENANTS: usize = 4;

/// Run `TENANTS` session writes over the given backends.
fn run_tenant_writes(max_concurrent: usize, fs_for: impl Fn(usize) -> Arc<dyn FileSystem> + Send) {
    let mut service = PandaSystem::builder()
        .config(
            PandaConfig::new(TENANTS, 2)
                .with_max_concurrent_collectives(max_concurrent)
                .with_max_queued_collectives(TENANTS)
                .with_subchunk_bytes(64)
                .with_recv_timeout(Duration::from_secs(30)),
        )
        .serve(fs_for)
        .unwrap();
    let sessions: Vec<Session> = (0..TENANTS).map(|_| service.open().unwrap()).collect();
    let metas: Vec<ArrayMeta> = (0..TENANTS)
        .map(|i| solo_meta(&format!("t{i}"), &[16, 16]))
        .collect();
    let sessions = std::thread::scope(|s| {
        let joins: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, mut sess)| {
                let meta = &metas[i];
                s.spawn(move || {
                    let data = tenant_bytes(i.wrapping_mul(17), 256);
                    let tag = format!("t{i}");
                    sess.write_set(&WriteSet::new().array(meta, tag.as_str(), &data))
                        .unwrap();
                    sess
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect::<Vec<_>>()
    });
    service.shutdown(sessions).unwrap();
}

/// Every file's bytes across the given MemFs backends, sorted by name.
fn memfs_snapshot(mems: &[Arc<MemFs>]) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for (s, fs) in mems.iter().enumerate() {
        for name in fs.list() {
            files.push((format!("s{s}/{name}"), fs.contents(&name).unwrap()));
        }
    }
    files.sort();
    files
}

#[test]
fn interleaved_requests_write_identical_bytes_memfs() {
    let run = |conc: usize| {
        let mems: Vec<Arc<MemFs>> = (0..2).map(|_| Arc::new(MemFs::new())).collect();
        let handles = mems.clone();
        run_tenant_writes(conc, move |s| {
            Arc::clone(&handles[s]) as Arc<dyn FileSystem>
        });
        memfs_snapshot(&mems)
    };
    let sequential = run(1);
    let interleaved = run(4);
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, interleaved,
        "interleaving requests changed bytes on disk"
    );
}

#[test]
fn interleaved_requests_write_identical_bytes_localfs() {
    let root = std::env::temp_dir().join(format!("panda-tenancy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |sub: &str, conc: usize| {
        let sub_root = root.join(sub);
        let fs_root = sub_root.clone();
        run_tenant_writes(conc, move |s| {
            Arc::new(panda_fs::LocalFs::new(fs_root.join(format!("ionode{s}"))).unwrap())
                as Arc<dyn FileSystem>
        });
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for s in 0..2 {
            let dir = sub_root.join(format!("ionode{s}"));
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                files.push((format!("s{s}/{name}"), std::fs::read(entry.path()).unwrap()));
            }
        }
        files.sort();
        files
    };
    let sequential = run("seq", 1);
    let interleaved = run("conc", 4);
    assert!(!sequential.is_empty());
    assert_eq!(sequential, interleaved);
    let _ = std::fs::remove_dir_all(&root);
}

/// One HTTP GET against the scrape listener; returns (head, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape listener");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

/// Poll `/healthz` until it reports `want` (the gauges are published by
/// the server thread, so transitions are asynchronous).
fn wait_health_status(addr: std::net::SocketAddr, want: &str) -> (String, String) {
    let needle = format!("\"status\":\"{want}\"");
    for _ in 0..1000 {
        let (head, body) = http_get(addr, "/healthz");
        if body.contains(&needle) {
            return (head, body);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("healthz never reached status {want:?}");
}

/// The scrape surface tracks admission state live: `/healthz` is `ok`
/// while nothing waits, `degraded` while a queue is non-empty, and
/// `unhealthy` (HTTP 503) once a queue hits its cap — the point where
/// the next session request is refused with `QueueFull`.
#[test]
fn healthz_degrades_with_queue_and_goes_unhealthy_at_cap() {
    let (mut service, _mem, gate) = serve_gated(4, 1, 2);
    let scrape = service.serve_metrics("127.0.0.1:0").unwrap();
    let addr = scrape.addr();

    let (head, body) = http_get(addr, "/healthz");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "idle service is ok: {head}"
    );
    assert!(body.contains("\"status\":\"ok\""));
    panda_obs::json::validate(&body).expect("healthz body is valid JSON");

    let a = service.open().unwrap();
    let b = service.open().unwrap();
    let c = service.open().unwrap();
    let mut d = service.open().unwrap();
    let meta = solo_meta("t", &[8, 8]);
    let data = tenant_bytes(5, 64);

    let (a, b, c) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            let mut a = a;
            a.write_set(&WriteSet::new().array(&meta, "a", &data))
                .unwrap();
            a
        });
        // A is live (parked at the gate), nothing queued: still ok.
        gate.wait_reached();
        let (head, _) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));

        // B waits in the queue: degraded, but still HTTP 200.
        let hb = s.spawn(|| {
            let mut b = b;
            b.write_set(&WriteSet::new().array(&meta, "b", &data))
                .unwrap();
            b
        });
        let (head, _) = wait_health_status(addr, "degraded");
        assert!(head.starts_with("HTTP/1.1 200"), "degraded is 200: {head}");

        // C fills the queue to its cap: unhealthy, HTTP 503.
        let hc = s.spawn(|| {
            let mut c = c;
            c.write_set(&WriteSet::new().array(&meta, "c", &data))
                .unwrap();
            c
        });
        let (head, _) = wait_health_status(addr, "unhealthy");
        assert!(head.starts_with("HTTP/1.1 503"), "unhealthy is 503: {head}");

        // And the next session request is indeed refused.
        let err = d
            .write_set(&WriteSet::new().array(&meta, "d", &data))
            .unwrap_err();
        assert!(
            matches!(
                err,
                PandaError::Admission {
                    issue: AdmissionIssue::QueueFull { queued: 2, max: 2 }
                }
            ),
            "expected QueueFull, got {err}"
        );

        gate.open();
        (ha.join().unwrap(), hb.join().unwrap(), hc.join().unwrap())
    });

    // Everything drained: back to ok, and the rejection is on the
    // metrics surface.
    wait_health_status(addr, "ok");
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(body.contains("panda_admission_rejects_total 1"), "{body}");
    assert!(body.contains("panda_health_status 0"));

    scrape.stop();
    service.shutdown(vec![a, b, c, d]).unwrap();
}

/// One recorder instance serves everything an injected `QueueFull`
/// rejection should leave behind: the triggered ring dumps a valid
/// Chrome trace (trigger plus the history before it) before the
/// submitter even sees the error, the store puts the rejection on the
/// `/metrics` surface fleet-wide and per tenant, and the same ring
/// still scopes a `RunReport` to the neighbouring tenant that was
/// admitted.
#[test]
fn one_recorder_serves_dump_scrape_and_scoped_report_on_queue_full() {
    let dir = std::env::temp_dir().join(format!("panda-flight-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = Arc::new(TelemetryRecorder::with_trigger(
        DEFAULT_RING_CAPACITY,
        DumpTrigger::new(&dir),
    ));
    // One live slot, one queue slot: A runs (parked at the gate), B
    // queues, C is refused with QueueFull.
    let (mut service, _mem, gate) =
        serve_gated_rec(3, 1, 1, Some(Arc::clone(&rec) as Arc<dyn Recorder>));
    let scrape = service.serve_metrics("127.0.0.1:0").unwrap();
    let a = service.open().unwrap();
    let b = service.open().unwrap();
    let mut c = service.open().unwrap();
    let meta = solo_meta("t", &[8, 8]);
    let data = tenant_bytes(6, 64);

    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            let mut a = a;
            a.write_set(&WriteSet::new().array(&meta, "a", &data))
                .unwrap();
            a
        });
        gate.wait_reached();
        let hb = s.spawn(|| {
            let mut b = b;
            b.write_set(&WriteSet::new().array(&meta, "b", &data))
                .unwrap();
            b
        });
        wait_health_status(scrape.addr(), "unhealthy");
        assert!(rec.dumps().is_empty(), "no incident yet, no dump");
        let err = c
            .write_set(&WriteSet::new().array(&meta, "c", &data))
            .unwrap_err();
        assert!(
            matches!(
                err,
                PandaError::Admission {
                    issue: AdmissionIssue::QueueFull { queued: 1, max: 1 }
                }
            ),
            "expected QueueFull, got {err}"
        );
        // The dump was written by the server thread *before* it sent
        // the rejection, so it exists by the time the submitter saw the
        // error.
        assert_eq!(rec.dumps().len(), 1, "rejection produced a dump");
        gate.open();
        (ha.join().unwrap(), hb.join().unwrap())
    });

    let doc = std::fs::read_to_string(&rec.dumps()[0]).unwrap();
    panda_obs::json::validate(&doc).expect("dump is a valid Chrome trace");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("admission_reject"), "trigger event retained");
    assert!(
        doc.contains("request_issued"),
        "pre-incident history retained"
    );

    wait_health_status(scrape.addr(), "ok");
    let (head, body) = http_get(scrape.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(body.contains("panda_admission_rejects_total 1"), "{body}");
    let tenant_c = panda_obs::tenant_of(c.last_request_id().unwrap()).unwrap();
    assert!(
        body.contains(&format!(
            "panda_tenant_rejected_total{{tenant=\"{tenant_c}\"}} 1"
        )),
        "{body}"
    );

    // The neighbour that queued behind A still gets a report of its
    // own work only.
    let req_b = b.last_request_id().unwrap();
    let report = panda_obs::RunReport::for_request(rec.as_ref(), req_b);
    assert!(!report.per_subchunk.is_empty());
    assert!(report.per_subchunk.iter().all(|sc| sc.key.request == req_b));
    assert!(report.disk_s() > 0.0);

    scrape.stop();
    service.shutdown(vec![a, b, c]).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability bugfix: phase decomposition and event keys are
/// scoped by request id, so one tenant's report never absorbs
/// another's concurrent work.
#[test]
fn run_report_scopes_phases_by_request() {
    let rec = Arc::new(TelemetryRecorder::with_ring(8192));
    let mut service = PandaSystem::builder()
        .config(
            PandaConfig::new(2, 1)
                .with_max_concurrent_collectives(2)
                .with_recv_timeout(Duration::from_secs(20))
                .with_recorder(rec.clone() as Arc<dyn Recorder>),
        )
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut a = service.open().unwrap();
    let mut b = service.open().unwrap();

    let meta_a = solo_meta("a", &[8, 8]);
    let meta_b = solo_meta("b", &[16, 16]);
    let data_a = tenant_bytes(9, 64);
    let data_b = tenant_bytes(11, 256);
    let req_a = a
        .write_set(&WriteSet::new().array(&meta_a, "a", &data_a))
        .unwrap();
    let req_b = b
        .write_set(&WriteSet::new().array(&meta_b, "b", &data_b))
        .unwrap();
    assert_ne!(req_a, req_b);
    assert_eq!(a.last_request_id(), Some(req_a));

    let report_a = panda_obs::RunReport::for_request(rec.as_ref(), req_a);
    let report_b = panda_obs::RunReport::for_request(rec.as_ref(), req_b);
    assert!(
        !report_a.per_subchunk.is_empty() && !report_b.per_subchunk.is_empty(),
        "both requests must have recorded subchunk work"
    );
    for sc in &report_a.per_subchunk {
        assert_eq!(sc.key.request, req_a, "foreign subchunk in a's report");
    }
    for sc in &report_b.per_subchunk {
        assert_eq!(sc.key.request, req_b, "foreign subchunk in b's report");
    }
    // A request id that never ran reports nothing.
    let empty = panda_obs::RunReport::for_request(rec.as_ref(), 0xdead_beef);
    assert!(empty.per_subchunk.is_empty());

    service.shutdown(vec![a, b]).unwrap();
}
