//! Collective section reads: arbitrary rectangular subarrays come back
//! correctly, cheaply (fewer bytes off disk), and in server-directed
//! file order.

mod common;

use common::*;
use panda_core::protocol::{ArrayOp, OpKind};
use panda_core::{CollectiveSchedule, PandaClient, ReadSet};
use panda_fs::{FileSystem as _, SyncPolicy};
use panda_schema::copy::offset_in_region;
use panda_schema::{ElementType, Region};
use proptest::prelude::*;

/// Expected bytes for `client`'s share of `section` under the pattern.
fn pattern_section(meta: &panda_core::ArrayMeta, rank: usize, section: &Region) -> Vec<u8> {
    let elem = meta.elem_size();
    let Some(target) = meta.client_region(rank).intersect(section) else {
        return Vec::new();
    };
    let mut out = vec![0u8; target.num_bytes(elem)];
    let shape = target.shape().expect("nonempty");
    for local in shape.iter_indices() {
        let global: Vec<usize> = local
            .iter()
            .zip(target.lo())
            .map(|(&l, &o)| l + o)
            .collect();
        let lin = meta.shape().linearize(&global);
        let off = offset_in_region(&target, &global, elem);
        for b in 0..elem {
            out[off + b] = element_byte(lin, b);
        }
    }
    out
}

fn run_section_read(
    clients: &mut [PandaClient],
    meta: &panda_core::ArrayMeta,
    tag: &str,
    section: &Region,
) -> Vec<Vec<u8>> {
    let mut bufs: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| vec![0u8; c.section_bytes(meta, section)])
        .collect();
    std::thread::scope(|s| {
        for (client, buf) in clients.iter_mut().zip(bufs.iter_mut()) {
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().section(
                        meta,
                        tag,
                        section.clone(),
                        buf.as_mut_slice(),
                    ))
                    .unwrap();
            });
        }
    });
    bufs
}

#[test]
fn interior_box_section() {
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let (system, mut clients, _mems) = launch_mem(4, 2, 128);
    collective_write(&mut clients, &meta, "t");
    let section = Region::new(&[3, 5], &[13, 11]).unwrap();
    let bufs = run_section_read(&mut clients, &meta, "t", &section);
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &pattern_section(&meta, r, &section), "client {r}");
    }
    system.shutdown(clients).unwrap();
}

#[test]
fn natural_chunking_section_that_clips_subchunks_is_not_passed_through() {
    // Natural chunking with a cap above the chunk size: every step is
    // one piece that *is* the subchunk — the identity pass-through —
    // unless a section cuts it. This box cuts all four chunks, so every
    // step must reorganize and each client gets exactly its share.
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Natural,
    );
    let section = Region::new(&[3, 5], &[13, 11]).unwrap();
    let schedule = |section: Option<Region>, server| {
        let arrays = [ArrayOp {
            meta: meta.clone(),
            file_tag: "t".into(),
            section,
        }];
        let policy = SyncPolicy::PerCollective;
        CollectiveSchedule::build(&arrays, OpKind::Read, server, 2, 1 << 20, policy)
    };
    let mut sent = 0;
    for server in 0..2 {
        let whole = schedule(None, server);
        let clipped = schedule(Some(section.clone()), server);
        assert_eq!(whole.steps.len(), 2);
        assert!(whole.steps.iter().all(|step| step.identity));
        assert_eq!(clipped.steps.len(), 2);
        assert!(clipped.steps.iter().all(|step| !step.identity));
        for step in &clipped.steps {
            sent += step.sub.pieces[0].region.num_bytes(step.elem);
        }
    }
    assert_eq!(sent, section.num_bytes(meta.elem_size()));

    let (system, mut clients, _mems) = launch_mem(4, 2, 1 << 20);
    collective_write(&mut clients, &meta, "t");
    let bufs = run_section_read(&mut clients, &meta, "t", &section);
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &pattern_section(&meta, r, &section), "client {r}");
    }
    system.shutdown(clients).unwrap();
}

#[test]
fn section_covering_whole_array_equals_full_read() {
    let meta = make_array(
        "t",
        &[8, 12],
        ElementType::I32,
        &[2, 2],
        DiskSchema::Natural,
    );
    let (system, mut clients, _mems) = launch_mem(4, 2, 64);
    collective_write(&mut clients, &meta, "t");
    let all = Region::new(&[0, 0], &[8, 12]).unwrap();
    let bufs = run_section_read(&mut clients, &meta, "t", &all);
    assert_pattern(&meta, &bufs);
    system.shutdown(clients).unwrap();
}

#[test]
fn section_disjoint_from_some_clients() {
    // A single plane owned entirely by the top row of clients: the
    // bottom clients participate with empty buffers.
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(3),
    );
    let (system, mut clients, _mems) = launch_mem(4, 3, 256);
    collective_write(&mut clients, &meta, "t");
    let plane = Region::new(&[2, 0], &[3, 16]).unwrap();
    let bufs = run_section_read(&mut clients, &meta, "t", &plane);
    assert!(!bufs[0].is_empty() && !bufs[1].is_empty());
    assert!(bufs[2].is_empty() && bufs[3].is_empty());
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &pattern_section(&meta, r, &plane));
    }
    system.shutdown(clients).unwrap();
}

#[test]
fn section_reads_less_from_disk() {
    let meta = make_array(
        "t",
        &[64, 64],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let (system, mut clients, mems) = launch_mem(4, 2, 1024);
    collective_write(&mut clients, &meta, "t");
    let before: u64 = mems.iter().map(|m| m.stats().bytes_read()).sum();
    // A thin slab: 4 of 64 rows.
    let slab = Region::new(&[30, 0], &[34, 64]).unwrap();
    let _ = run_section_read(&mut clients, &meta, "t", &slab);
    let read: u64 = mems.iter().map(|m| m.stats().bytes_read()).sum::<u64>() - before;
    let full = meta.total_bytes() as u64;
    assert!(
        read < full / 4,
        "section read {read} bytes; full array is {full}"
    );
    system.shutdown(clients).unwrap();
}

#[test]
fn wrong_section_buffer_size_rejected() {
    let meta = make_array("t", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    let (system, mut clients, _mems) = launch_mem(4, 1, 1 << 20);
    collective_write(&mut clients, &meta, "t");
    let section = Region::new(&[0, 0], &[2, 2]).unwrap();
    let mut bad = vec![0u8; 3];
    let err = clients[1]
        .read_set(&mut ReadSet::new().section(&meta, "t", section.clone(), &mut bad))
        .unwrap_err();
    assert!(matches!(
        err,
        panda_core::PandaError::BadClientBuffer { .. }
    ));
    system.shutdown(clients).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any section of any written array reads back as the matching
    /// slice of the pattern, across schema kinds.
    #[test]
    fn arbitrary_sections_roundtrip(
        lo0 in 0usize..12, lo1 in 0usize..10,
        ext0 in 1usize..=12, ext1 in 1usize..=10,
        traditional in any::<bool>(),
    ) {
        let meta = make_array(
            "t",
            &[12, 10],
            ElementType::U8,
            &[2, 2],
            if traditional {
                DiskSchema::Traditional(2)
            } else {
                DiskSchema::Natural
            },
        );
        let section = Region::new(
            &[lo0.min(11), lo1.min(9)],
            &[(lo0 + ext0).min(12), (lo1 + ext1).min(10)],
        )
        .unwrap();
        let (system, mut clients, _mems) = launch_mem(4, 2, 16);
        collective_write(&mut clients, &meta, "t");
        let bufs = run_section_read(&mut clients, &meta, "t", &section);
        for (r, buf) in bufs.iter().enumerate() {
            prop_assert_eq!(buf, &pattern_section(&meta, r, &section), "client {}", r);
        }
        system.shutdown(clients).unwrap();
    }
}
