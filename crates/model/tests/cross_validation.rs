//! Cross-validation: the performance model and the real runtime must
//! agree *exactly* on the protocol's message counts and byte volumes.
//!
//! The model's credibility rests on replaying the implementation's
//! schedule; these tests run the same collective through both the
//! threaded runtime (counting real messages per tag on the fabric) and
//! the DES (counting simulated messages), and require equality:
//!
//! * write path: real `FETCH` messages == model control messages, and
//!   real `DATA` messages == model data messages;
//! * read path: real `DATA` messages == model data messages;
//! * `DATA` payload bytes == total array bytes in both.
//!
//! And on *order*, at pipeline depths 1, 2 and 3: both drive one
//! `panda_core::Window`, so each I/O node's sequence of fetches (write)
//! and pushes (read) in the DES is the sequence of `FetchSent` /
//! `PushSent` events the runtime recorded.

use std::sync::Arc;

use panda_core::protocol::tags;
use panda_core::{ArrayMeta, OpKind, PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_model::{issue_order, simulate, CollectiveSpec, Sp2Machine};
use panda_obs::{EventKind, Recorder, TelemetryRecorder};
use panda_schema::{DataSchema, Dist, ElementType, Mesh, Shape};

struct Case {
    name: &'static str,
    meta: ArrayMeta,
    servers: usize,
    subchunk: usize,
}

fn cases() -> Vec<Case> {
    let shape = Shape::new(&[16, 16, 8]).unwrap();
    let mem = DataSchema::block_all(
        shape.clone(),
        ElementType::F64,
        Mesh::new(&[2, 2, 2]).unwrap(),
    )
    .unwrap();
    let natural = ArrayMeta::natural("n", mem.clone()).unwrap();
    let traditional = ArrayMeta::new(
        "t",
        mem.clone(),
        DataSchema::traditional_order(shape.clone(), ElementType::F64, 3).unwrap(),
    )
    .unwrap();
    let columns = ArrayMeta::new(
        "c",
        mem,
        DataSchema::new(
            shape,
            ElementType::F64,
            &[Dist::Star, Dist::Block, Dist::Block],
            Mesh::new(&[3, 2]).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    vec![
        Case {
            name: "natural",
            meta: natural,
            servers: 3,
            subchunk: 512,
        },
        Case {
            name: "traditional",
            meta: traditional,
            servers: 3,
            subchunk: 1024,
        },
        Case {
            name: "columns",
            meta: columns,
            servers: 2,
            subchunk: 256,
        },
    ]
}

fn run_real(
    meta: &ArrayMeta,
    servers: usize,
    subchunk: usize,
    op: OpKind,
    depth: usize,
) -> (u64, u64, u64) {
    let config = PandaConfig::new(meta.num_clients(), servers)
        .with_subchunk_bytes(subchunk)
        .with_pipeline_depth(depth);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let datas: Vec<Vec<u8>> = (0..meta.num_clients())
        .map(|r| vec![1u8; meta.client_bytes(r)])
        .collect();
    // Write first (also the file source for the read case).
    std::thread::scope(|s| {
        for (client, data) in clients.iter_mut().zip(&datas) {
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "x", data.as_slice()))
                    .unwrap()
            });
        }
    });
    let fetch_w = system.fabric_stats.tag_counts(tags::FETCH);
    let data_w = system.fabric_stats.tag_counts(tags::DATA);

    if matches!(op, OpKind::Write) {
        system.shutdown(clients).unwrap();
        return (fetch_w.msgs, data_w.msgs, data_w.bytes);
    }

    std::thread::scope(|s| {
        for (client, data) in clients.iter_mut().zip(&datas) {
            let mut buf = vec![0u8; data.len()];
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().array(meta, "x", buf.as_mut_slice()))
                    .unwrap();
            });
        }
    });
    let data_r = system.fabric_stats.tag_counts(tags::DATA);
    system.shutdown(clients).unwrap();
    // Read-path DATA = total minus the write-phase share. Payload
    // includes the encoded region header; compare message counts only
    // for reads (byte framing is checked on the write path).
    (0, data_r.msgs - data_w.msgs, 0)
}

fn run_model(meta: &ArrayMeta, servers: usize, subchunk: usize, op: OpKind) -> (u64, u64, u64) {
    let m = Sp2Machine::nas_sp2();
    let r = simulate(
        &m,
        &CollectiveSpec {
            arrays: vec![meta.clone()],
            op,
            num_servers: servers,
            subchunk_bytes: subchunk,
            fast_disk: false,
            section: None,
        },
    );
    (r.ctrl_msgs, r.data_msgs, r.total_bytes)
}

#[test]
fn write_path_message_counts_match_exactly() {
    for case in cases() {
        let (real_fetch, real_data, real_data_bytes) =
            run_real(&case.meta, case.servers, case.subchunk, OpKind::Write, 1);
        let (model_ctrl, model_data, model_bytes) =
            run_model(&case.meta, case.servers, case.subchunk, OpKind::Write);
        assert_eq!(
            real_fetch, model_ctrl,
            "{}: FETCH count vs model control msgs",
            case.name
        );
        assert_eq!(
            real_data, model_data,
            "{}: DATA count vs model data msgs",
            case.name
        );
        // Real DATA payloads carry an encoded region header on top of
        // the raw array bytes; the array bytes themselves must match.
        assert!(
            real_data_bytes >= model_bytes,
            "{}: payload bytes at least the array bytes",
            case.name
        );
        assert_eq!(model_bytes, case.meta.total_bytes() as u64, "{}", case.name);
    }
}

#[test]
fn section_read_message_counts_match_exactly() {
    use panda_schema::Region;
    for case in cases() {
        let section = Region::new(&[2, 3, 1], &[11, 14, 7]).unwrap();
        // Real runtime.
        let config = PandaConfig::new(case.meta.num_clients(), case.servers)
            .with_subchunk_bytes(case.subchunk);
        let (system, mut clients) = PandaSystem::builder()
            .config(config.clone())
            .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
            .unwrap();
        let datas: Vec<Vec<u8>> = (0..case.meta.num_clients())
            .map(|r| vec![1u8; case.meta.client_bytes(r)])
            .collect();
        std::thread::scope(|s| {
            for (client, data) in clients.iter_mut().zip(&datas) {
                let meta = &case.meta;
                s.spawn(move || {
                    client
                        .write_set(&WriteSet::new().array(meta, "x", data.as_slice()))
                        .unwrap()
                });
            }
        });
        let data_before = system.fabric_stats.tag_counts(tags::DATA);
        std::thread::scope(|s| {
            for client in clients.iter_mut() {
                let (meta, section) = (&case.meta, &section);
                s.spawn(move || {
                    let mut buf = vec![0u8; client.section_bytes(meta, section)];
                    client
                        .read_set(&mut ReadSet::new().section(meta, "x", section.clone(), &mut buf))
                        .unwrap();
                });
            }
        });
        let real_data = system.fabric_stats.tag_counts(tags::DATA).msgs - data_before.msgs;
        system.shutdown(clients).unwrap();

        // Model with the same section.
        let m = Sp2Machine::nas_sp2();
        let r = simulate(
            &m,
            &CollectiveSpec {
                arrays: vec![case.meta.clone()],
                op: OpKind::Read,
                num_servers: case.servers,
                subchunk_bytes: case.subchunk,
                fast_disk: false,
                section: Some(section.clone()),
            },
        );
        assert_eq!(real_data, r.data_msgs, "{}: section DATA count", case.name);
        // A proper section moves fewer bytes than the whole array.
        assert!(
            r.total_bytes < case.meta.total_bytes() as u64,
            "{}",
            case.name
        );
    }
}

#[test]
fn pipelined_runtime_sends_the_same_message_set() {
    // Pipelining reorders work in time but must not change *what*
    // crosses the fabric: at depth 3 the FETCH/DATA counts still match
    // the model exactly, so the model's replay stays valid for
    // pipelined deployments.
    for case in cases() {
        let (real_fetch, real_data, _) =
            run_real(&case.meta, case.servers, case.subchunk, OpKind::Write, 3);
        let (model_ctrl, model_data, _) =
            run_model(&case.meta, case.servers, case.subchunk, OpKind::Write);
        assert_eq!(
            real_fetch, model_ctrl,
            "{}: depth-3 FETCH count vs model control msgs",
            case.name
        );
        assert_eq!(
            real_data, model_data,
            "{}: depth-3 write DATA count vs model",
            case.name
        );

        let (_, real_data, _) = run_real(&case.meta, case.servers, case.subchunk, OpKind::Read, 3);
        let (_, model_data, _) = run_model(&case.meta, case.servers, case.subchunk, OpKind::Read);
        assert_eq!(
            real_data, model_data,
            "{}: depth-3 read DATA count vs model",
            case.name
        );
    }
}

#[test]
fn read_path_message_counts_match_exactly() {
    for case in cases() {
        let (_, real_data, _) = run_real(&case.meta, case.servers, case.subchunk, OpKind::Read, 1);
        let (model_ctrl, model_data, _) =
            run_model(&case.meta, case.servers, case.subchunk, OpKind::Read);
        assert_eq!(
            real_data, model_data,
            "{}: read DATA count vs model",
            case.name
        );
        // The read path sends no per-piece control messages.
        assert_eq!(model_ctrl, 0, "{}", case.name);
    }
}

/// One `Fetch` or pushed `Data`, as both sides can name it: array,
/// subchunk, and the participant it went to.
type Sent = (u32, u32, u32);

/// Per I/O node, what the runtime's `kind` events say it sent, in order.
fn real_order(
    meta: &ArrayMeta,
    servers: usize,
    subchunk: usize,
    depth: usize,
) -> [Vec<Vec<Sent>>; 2] {
    let rec = Arc::new(TelemetryRecorder::with_ring(1 << 16));
    let config = PandaConfig::new(meta.num_clients(), servers)
        .with_subchunk_bytes(subchunk)
        .with_pipeline_depth(depth)
        .with_recorder(rec.clone());
    let (system, mut clients) = PandaSystem::builder()
        .config(config)
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let datas: Vec<Vec<u8>> = (0..meta.num_clients())
        .map(|r| vec![1u8; meta.client_bytes(r)])
        .collect();
    std::thread::scope(|s| {
        for (client, data) in clients.iter_mut().zip(&datas) {
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "x", data.as_slice()))
                    .unwrap();
                let mut buf = vec![0u8; data.len()];
                client
                    .read_set(&mut ReadSet::new().array(meta, "x", buf.as_mut_slice()))
                    .unwrap();
            });
        }
    });
    system.shutdown(clients).unwrap();
    assert_eq!(rec.dropped(), 0);
    let events = rec.timeline().unwrap();
    [EventKind::FetchSent, EventKind::PushSent].map(|kind| {
        let mut per_server = vec![Vec::new(); servers];
        for e in events.iter().filter(|e| e.kind == kind) {
            let key = e.key.unwrap();
            per_server[key.server as usize].push((key.array, key.subchunk, e.peer.unwrap()));
        }
        per_server
    })
}

/// Per I/O node, what the DES issued, in order, named the same way.
fn model_order(spec: &CollectiveSpec, depth: usize) -> Vec<Vec<Sent>> {
    let m = Sp2Machine::nas_sp2().with_pipeline_depth(depth);
    let steps: Vec<_> = (0..spec.num_servers)
        .map(|s| spec.schedule(s).steps)
        .collect();
    let mut per_server = vec![Vec::new(); spec.num_servers];
    for (server, step, piece) in issue_order(&m, spec) {
        let step = &steps[server][step];
        let client = step.sub.pieces[piece].client;
        per_server[server].push((step.array, step.subchunk as u32, client as u32));
    }
    per_server
}

#[test]
fn the_model_issues_fetches_and_pushes_in_the_runtimes_order() {
    for case in cases() {
        for depth in 1..=3 {
            let [fetches, pushes] = real_order(&case.meta, case.servers, case.subchunk, depth);
            for (op, real) in [(OpKind::Write, fetches), (OpKind::Read, pushes)] {
                let spec = CollectiveSpec {
                    arrays: vec![case.meta.clone()],
                    op,
                    num_servers: case.servers,
                    subchunk_bytes: case.subchunk,
                    fast_disk: false,
                    section: None,
                };
                let model = model_order(&spec, depth);
                assert!(model.iter().any(|s| s.len() > 1), "{}", case.name);
                assert_eq!(real, model, "{}: {op:?} order at depth {depth}", case.name);
            }
        }
    }
}
