//! Property tests: write-then-read through the full threaded runtime is
//! the identity for arbitrary valid schema pairs, traditional-order
//! files always concatenate to the row-major array, the planner's
//! pieces tile every array cell exactly once across all servers, and a
//! section read's lowered schedule tiles exactly the section.

mod common;

use common::*;
use panda_core::protocol::{ArrayOp, OpKind};
use panda_core::{build_server_plan, ArrayMeta, CollectiveSchedule};
use panda_fs::{FileSystem as _, SyncPolicy};
use panda_schema::copy::is_contiguous_in;
use panda_schema::{DataSchema, Dist, ElementType, Mesh, Region, SchemaError, Shape};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    dims: Vec<usize>,
    mem_mesh: Vec<usize>,
    disk: Vec<(Dist, usize)>, // per-dim directive and (if Block) parts
    servers: usize,
    subchunk: usize,
    elem: ElementType,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let rank = 1usize..=3;
    rank.prop_flat_map(|r| {
        let dims = prop::collection::vec(2usize..=8, r..=r);
        let mem_parts = prop::collection::vec(1usize..=3, r..=r);
        let disk = prop::collection::vec(
            prop_oneof![
                (1usize..=3).prop_map(|p| (Dist::Block, p)),
                Just((Dist::Star, 1usize)),
            ],
            r..=r,
        );
        (
            dims,
            mem_parts,
            disk,
            1usize..=3,
            prop_oneof![Just(16usize), Just(64), Just(1 << 20)],
            prop_oneof![Just(ElementType::U8), Just(ElementType::F64)],
        )
            .prop_map(|(dims, mem_mesh, disk, servers, subchunk, elem)| Scenario {
                dims,
                mem_mesh,
                disk,
                servers,
                subchunk,
                elem,
            })
    })
}

fn build(scenario: &Scenario) -> panda_core::ArrayMeta {
    // Disk mesh axes: one per Block dim.
    let disk_dists: Vec<Dist> = scenario.disk.iter().map(|&(d, _)| d).collect();
    let disk_mesh: Vec<usize> = scenario
        .disk
        .iter()
        .filter(|&&(d, _)| d.is_distributed())
        .map(|&(_, p)| p)
        .collect();
    // At least one distributed dim is needed only if the mesh is
    // nonempty; an all-Star disk schema gets a rank-0 mesh.
    make_array(
        "prop",
        &scenario.dims,
        scenario.elem,
        &scenario.mem_mesh,
        DiskSchema::Custom(disk_dists, disk_mesh),
    )
}

proptest! {
    // Each case launches threads; keep the count moderate.
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn write_read_roundtrip_is_identity(scenario in scenario()) {
        let meta = build(&scenario);
        let num_clients = meta.num_clients();
        let (system, mut clients, _mems) =
            launch_mem(num_clients, scenario.servers, scenario.subchunk);
        collective_write(&mut clients, &meta, "prop");
        let bufs = collective_read(&mut clients, &meta, "prop");
        for (r, buf) in bufs.iter().enumerate() {
            prop_assert_eq!(buf, &pattern_chunk(&meta, r), "client {}", r);
        }
        system.shutdown(clients).unwrap();
    }

    #[test]
    fn files_always_hold_each_byte_exactly_once(scenario in scenario()) {
        let meta = build(&scenario);
        let num_clients = meta.num_clients();
        let (system, mut clients, mems) =
            launch_mem(num_clients, scenario.servers, scenario.subchunk);
        collective_write(&mut clients, &meta, "prop");
        let total: usize = mems
            .iter()
            .enumerate()
            .map(|(i, m)| m.contents(&format!("prop.s{i}")).map(|v| v.len()).unwrap_or(0))
            .sum();
        prop_assert_eq!(total, meta.total_bytes());
        // Zero seeks, always.
        for m in &mems {
            prop_assert_eq!(m.stats().seeks(), 0);
        }
        system.shutdown(clients).unwrap();
    }
}

/// (dims, memory mesh, per-dim disk directive, servers, subchunk).
type PlanCase = (Vec<usize>, Vec<usize>, Vec<(Dist, usize)>, usize, usize);

/// Like [`scenario`] but for pure planning (no threads): disk dists may
/// also be `CYCLIC(b)`, which the schema layer must reject up front.
fn plan_scenario() -> impl Strategy<Value = PlanCase> {
    let rank = 1usize..=3;
    rank.prop_flat_map(|r| {
        (
            prop::collection::vec(2usize..=9, r..=r),
            prop::collection::vec(1usize..=3, r..=r),
            prop::collection::vec(
                prop_oneof![
                    (1usize..=4).prop_map(|p| (Dist::Block, p)),
                    Just((Dist::Star, 1usize)),
                    (1usize..=3, 1usize..=3).prop_map(|(b, p)| (Dist::Cyclic(b), p)),
                ],
                r..=r,
            ),
            1usize..=4,
            prop_oneof![Just(8usize), Just(64), Just(4096)],
        )
    })
}

proptest! {
    // Pure planner arithmetic — no threads, so many more cases.
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    /// The paper's correctness core: across *all* servers' plans, the
    /// client pieces of every subchunk tile the array — each cell
    /// covered exactly once, for any BLOCK/`*` schema, server count,
    /// and subchunk size. CYCLIC schemas never reach the planner: the
    /// schema constructor rejects them with a typed error.
    #[test]
    fn plans_cover_every_cell_exactly_once(case in plan_scenario()) {
        let (dims, mem_mesh, disk, servers, subchunk) = case;
        let shape = Shape::new(&dims).unwrap();
        let elem = ElementType::U8;
        let disk_dists: Vec<Dist> = disk.iter().map(|&(d, _)| d).collect();
        let disk_mesh: Vec<usize> = disk
            .iter()
            .filter(|&&(d, _)| d.is_distributed())
            .map(|&(_, p)| p)
            .collect();
        let built = DataSchema::new(
            shape.clone(),
            elem,
            &disk_dists,
            Mesh::new(&disk_mesh).unwrap(),
        );
        if let Some(dim) = disk_dists.iter().position(|d| matches!(d, Dist::Cyclic(_))) {
            prop_assert_eq!(
                built.unwrap_err(),
                SchemaError::UnsupportedDistribution { dim }
            );
        } else {
            let mem = DataSchema::block_all(
                shape.clone(),
                elem,
                Mesh::new(&mem_mesh).unwrap(),
            )
            .unwrap();
            let meta = ArrayMeta::new("prop", mem, built.unwrap()).unwrap();
            let mut counts = vec![0u32; shape.num_elements()];
            for s in 0..servers {
                let plan = build_server_plan(&meta, s, servers, subchunk);
                for sub in plan.subchunks() {
                    for p in &sub.pieces {
                        let pshape = p.region.shape().unwrap();
                        for local in pshape.iter_indices() {
                            let global: Vec<usize> = local
                                .iter()
                                .zip(p.region.lo())
                                .map(|(&l, &o)| l + o)
                                .collect();
                            counts[shape.linearize(&global)] += 1;
                        }
                    }
                }
            }
            prop_assert!(
                counts.iter().all(|&c| c == 1),
                "some cell covered != once across {} servers",
                servers
            );
        }
    }

    /// The lowered schedule is the message list: over all servers a
    /// section read's pieces lie inside the section, are pairwise
    /// disjoint and cover it (each section cell exactly once, so bytes
    /// sum to the section's), every piece carries the flags of its own
    /// (clipped) region, and `identity` means exactly "one piece that is
    /// the subchunk". The write schedule ignores the section: its steps
    /// are `build_server_plan`'s subchunks, pieces tiling each.
    #[test]
    fn section_schedules_tile_exactly_the_section(
        scenario in scenario(),
        corners in prop::collection::vec((0usize..8, 0usize..8), 3..=3),
    ) {
        let meta = build(&scenario);
        let (lo, hi): (Vec<usize>, Vec<usize>) = scenario
            .dims
            .iter()
            .zip(&corners)
            .map(|(&dim, &(a, b))| {
                let lo = a.min(b) % dim;
                (lo, lo + 1 + a.max(b) % (dim - lo))
            })
            .unzip();
        let section = Region::new(&lo, &hi).unwrap();
        let arrays = [ArrayOp {
            meta: meta.clone(),
            file_tag: "prop".into(),
            section: Some(section.clone()),
        }];
        let build = |op, server| {
            let policy = SyncPolicy::PerCollective;
            CollectiveSchedule::build(&arrays, op, server, scenario.servers, scenario.subchunk, policy)
        };
        let shape = meta.shape();
        let mut counts = vec![0u32; shape.num_elements()];
        for server in 0..scenario.servers {
            for step in &build(OpKind::Read, server).steps {
                prop_assert!(step.sub.region.overlaps(&section));
                prop_assert!(!step.sub.pieces.is_empty());
                let whole = matches!(&step.sub.pieces[..], [p] if p.region == step.sub.region);
                prop_assert_eq!(step.identity, whole);
                for p in &step.sub.pieces {
                    prop_assert!(section.contains_region(&p.region));
                    prop_assert!(step.sub.region.contains_region(&p.region));
                    let client = meta.memory_grid().chunk_region(p.client);
                    prop_assert_eq!(p.contiguous_in_client, is_contiguous_in(&client, &p.region));
                    prop_assert_eq!(
                        p.contiguous_in_subchunk,
                        is_contiguous_in(&step.sub.region, &p.region)
                    );
                    for local in p.region.shape().unwrap().iter_indices() {
                        let global: Vec<usize> =
                            local.iter().zip(p.region.lo()).map(|(&l, &o)| l + o).collect();
                        counts[shape.linearize(&global)] += 1;
                    }
                }
            }
            let plan = build_server_plan(&meta, server, scenario.servers, scenario.subchunk);
            let written = build(OpKind::Write, server);
            prop_assert_eq!(written.steps.len(), plan.subchunks().count());
            for (step, sub) in written.steps.iter().zip(plan.subchunks()) {
                prop_assert_eq!(&step.sub, sub);
                let bytes: usize =
                    sub.pieces.iter().map(|p| p.region.num_bytes(step.elem)).sum();
                prop_assert_eq!(bytes, sub.bytes);
            }
        }
        for (cell, &count) in counts.iter().enumerate() {
            let inside = section.contains_index(&shape.delinearize(cell));
            prop_assert_eq!(count, inside as u32, "cell {}", cell);
        }
    }
}
