//! Inspect a Panda dataset: what actually lands on the I/O nodes.
//!
//! Writes a two-array group (with a checkpoint and schema manifest) to
//! real files, then plays the role of an offline tool: it reloads the
//! group definition from the manifest alone, walks each I/O node's
//! directory, and cross-checks every file's size against the planner's
//! prediction. Finally it replays the write in memory under a
//! `TelemetryRecorder` and prints the first few disk accesses so you
//! can *see* the strictly sequential write pattern server-directed
//! I/O produces.
//!
//! Run with: `cargo run --example inspect_dataset`

use std::sync::Arc;

use panda_core::{build_server_plan, ArrayGroup, GroupData, PandaConfig, PandaSystem};
use panda_fs::{FileSystem, LocalFs, MemFs};
use panda_obs::{EventKind, Recorder, TelemetryRecorder, DEFAULT_RING_CAPACITY};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

const SERVERS: usize = 2;

fn group_arrays() -> ArrayGroup {
    let shape = Shape::new(&[64, 64]).unwrap();
    let mesh = Mesh::new(&[2, 2]).unwrap();
    let memory = DataSchema::block_all(shape.clone(), ElementType::F64, mesh).unwrap();
    let t = panda_core::ArrayMeta::new(
        "temperature",
        memory.clone(),
        DataSchema::traditional_order(shape.clone(), ElementType::F64, SERVERS).unwrap(),
    )
    .unwrap();
    let p = panda_core::ArrayMeta::natural("pressure", memory).unwrap();
    let mut g = ArrayGroup::new("run42");
    g.include(t).include(p);
    g
}

fn main() {
    let root = std::env::temp_dir().join(format!("panda-inspect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let roots: Vec<_> = (0..SERVERS)
        .map(|s| root.join(format!("ionode{s}")))
        .collect();

    // --- produce a dataset -------------------------------------------------
    let (system, mut clients) = PandaSystem::builder()
        .config(PandaConfig::new(4, SERVERS).clone())
        .launch(|s| Arc::new(LocalFs::new(&roots[s]).unwrap()) as Arc<dyn FileSystem>)
        .unwrap();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || {
                let mut g = group_arrays();
                let mut data = GroupData::zeroed(&g, client.rank());
                for (i, b) in (0..data.len()).collect::<Vec<_>>().into_iter().zip(0u8..) {
                    data.buffer_mut(i).fill(b + 1);
                }
                g.timestep(client, &data.slices()).unwrap();
                g.checkpoint(client, &data.slices()).unwrap();
                if client.rank() == 0 {
                    g.save_schema(client).unwrap();
                }
            });
        }
    });

    // --- inspect it like an offline tool -----------------------------------
    println!("dataset root: {}", root.display());
    let loaded = ArrayGroup::load(&mut clients[0], "run42").unwrap();
    println!(
        "manifest: group '{}', {} arrays, {} timesteps taken",
        loaded.name(),
        loaded.arrays().len(),
        loaded.timesteps_taken()
    );
    for meta in loaded.arrays() {
        println!("  array '{}':", meta.name());
        println!("    memory: {}", meta.memory().describe());
        println!(
            "    disk:   {} (natural: {})",
            meta.disk().describe(),
            meta.is_natural()
        );
    }
    println!();

    // Every file's size must match the planner's total for its server.
    let mut checked = 0;
    for (s, r) in roots.iter().enumerate() {
        for meta in loaded.arrays() {
            let plan = build_server_plan(meta, s, SERVERS, 1 << 20);
            for tag_kind in ["ts0", "ckpt-a"] {
                let path = r
                    .join("run42")
                    .join(format!("{}.{tag_kind}.s{s}", meta.name()));
                let size = std::fs::metadata(&path).unwrap().len();
                assert_eq!(size, plan.total_bytes, "{}", path.display());
                checked += 1;
                println!(
                    "i/o node {s}: {:<28} {:>8} bytes  (= planner total ✓)",
                    path.file_name().unwrap().to_string_lossy(),
                    size
                );
            }
        }
    }
    println!("{checked} files verified against the planner\n");
    system.shutdown(clients).unwrap();

    // --- show the access pattern via a recorded in-memory run --------------
    let rec = Arc::new(TelemetryRecorder::with_ring(DEFAULT_RING_CAPACITY));
    let config = PandaConfig::new(4, SERVERS).with_recorder(rec.clone());
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || {
                let mut g = group_arrays();
                let data = GroupData::zeroed(&g, client.rank());
                g.timestep(client, &data.slices()).unwrap();
            });
        }
    });
    println!("access trace of i/o node 0 (first 8 disk writes):");
    let node0 = 4; // fabric ranks: clients 0..4, then servers
    for e in rec
        .timeline()
        .unwrap()
        .iter()
        .filter(|e| e.node == node0 && e.kind == EventKind::FsWrite)
        .take(8)
    {
        println!(
            "  write {:>6} B  {}  ({})",
            e.bytes,
            e.label.as_deref().unwrap_or("?"),
            if e.sequential == Some(true) {
                "sequential"
            } else {
                "seek"
            }
        );
    }
    let snap = rec.snapshot();
    println!(
        "note: {} of {} accesses were sequential — the defining property",
        snap.fs_sequential,
        snap.fs_sequential + snap.fs_seeks
    );
    println!("of server-directed i/o.");
    system.shutdown(clients).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
