//! The server-directed planner.
//!
//! When a collective request arrives, each Panda server independently
//! computes its *plan* from the array's two schemas (paper §2):
//!
//! 1. disk chunks are implicitly assigned round-robin across the servers
//!    — chunk `i` belongs to server `i mod S` (striping at the *chunk*
//!    level, in contrast to the disk-block striping of other systems);
//! 2. each assigned chunk occupies the next contiguous byte range of the
//!    server's file for that array, in assignment order, so processing
//!    chunks in order yields strictly sequential file access;
//! 3. chunks larger than the subchunk cap (1 MB in all the paper's
//!    experiments) are subdivided on the fly into file-contiguous
//!    subchunks;
//! 4. for each subchunk, the server computes which clients' memory
//!    chunks intersect it; those intersections are the logical
//!    sub-chunk requests exchanged with clients.
//!
//! [`CollectiveSchedule::build`] lowers these plans — a read's section
//! already applied to the pieces — into the one step stream the real
//! servers, the simulation and the tuner (`panda-model`) all walk, which
//! keeps the model faithful to the implementation. Clients never plan:
//! a server's `Complete` tells each one how many pieces it was sent.

use panda_fs::SyncPolicy;
use panda_schema::copy::is_contiguous_in;
use panda_schema::{split_into_subchunks, Region};

use crate::array::ArrayMeta;
use crate::protocol::{ArrayOp, OpKind};

/// One client's share of a subchunk: the intersection of the subchunk
/// with that client's memory chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPiece {
    /// Client rank (0-based compute-node index).
    pub client: usize,
    /// Global-array region of the piece (nonempty).
    pub region: Region,
    /// True iff the piece occupies a contiguous byte range of the
    /// client's memory-chunk buffer (the natural-chunking fast path; a
    /// strided gather/scatter otherwise).
    pub contiguous_in_client: bool,
    /// True iff the piece occupies a contiguous byte range of the
    /// server's subchunk buffer. Under natural chunking both flags are
    /// true and the piece *is* the subchunk; under reorganization the
    /// server-side scatter is usually strided.
    pub contiguous_in_subchunk: bool,
}

/// One ≤ cap piece of a disk chunk, with its placement in the server's
/// file and the client pieces that compose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSubchunk {
    /// Global-array region of the subchunk.
    pub region: Region,
    /// Absolute byte offset in the server's per-array file.
    pub file_offset: u64,
    /// Subchunk size in bytes.
    pub bytes: usize,
    /// Client intersections, ordered by client rank. Their regions tile
    /// the subchunk exactly (a section read's schedule: subchunk ∩ section).
    pub pieces: Vec<PlanPiece>,
}

/// One disk chunk assigned to a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChunk {
    /// Linear index of the chunk in the disk chunk grid.
    pub chunk_idx: usize,
    /// Global-array region of the chunk.
    pub region: Region,
    /// Absolute byte offset of the chunk in the server's file.
    pub file_offset: u64,
    /// The chunk's subchunks, in file order.
    pub subchunks: Vec<PlanSubchunk>,
}

/// A server's complete schedule for one array in one collective op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPlan {
    /// This server's index (0-based among the I/O nodes).
    pub server: usize,
    /// Total number of I/O nodes.
    pub num_servers: usize,
    /// Assigned chunks in file order.
    pub chunks: Vec<PlanChunk>,
    /// Total bytes this server reads/writes for the array.
    pub total_bytes: u64,
}

impl ServerPlan {
    /// Iterate all subchunks in file order.
    pub fn subchunks(&self) -> impl Iterator<Item = &PlanSubchunk> {
        self.chunks.iter().flat_map(|c| c.subchunks.iter())
    }

    /// Total number of client pieces (== messages each direction).
    pub fn num_pieces(&self) -> usize {
        self.subchunks().map(|s| s.pieces.len()).sum()
    }
}

/// The disk-chunk indices assigned to `server` out of `num_servers`, in
/// assignment (round-robin) order.
pub fn assigned_chunks(
    num_chunks: usize,
    server: usize,
    num_servers: usize,
) -> impl Iterator<Item = usize> {
    assert!(server < num_servers, "server index out of range");
    (server..num_chunks).step_by(num_servers)
}

/// Build `server`'s plan for `array`.
///
/// `subchunk_bytes` is the on-the-fly subdivision cap
/// ([`panda_schema::DEFAULT_SUBCHUNK_BYTES`] reproduces the paper).
///
/// ```
/// use panda_core::{build_server_plan, ArrayMeta};
/// use panda_schema::{DataSchema, ElementType, Mesh, Shape};
/// let shape = Shape::new(&[16, 16]).unwrap();
/// let memory = DataSchema::block_all(shape.clone(), ElementType::F64,
///     Mesh::new(&[2, 2]).unwrap()).unwrap();
/// let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
/// let meta = ArrayMeta::new("t", memory, disk).unwrap();
/// let plan = build_server_plan(&meta, 0, 2, 1 << 20);
/// // Server 0 owns the first row-slab: one chunk, one subchunk,
/// // assembled from the two clients owning its columns.
/// assert_eq!(plan.chunks.len(), 1);
/// assert_eq!(plan.total_bytes, 8 * 16 * 8);
/// assert_eq!(plan.subchunks().next().unwrap().pieces.len(), 2);
/// ```
pub fn build_server_plan(
    array: &ArrayMeta,
    server: usize,
    num_servers: usize,
    subchunk_bytes: usize,
) -> ServerPlan {
    plan_array(array, server, num_servers, subchunk_bytes, None)
}

/// [`build_server_plan`] for a read of `section` only: subchunks it
/// misses are left out, pieces are clipped to it, file offsets stay.
fn plan_array(
    array: &ArrayMeta,
    server: usize,
    num_servers: usize,
    subchunk_bytes: usize,
    section: Option<&Region>,
) -> ServerPlan {
    let subchunk_bytes = array.effective_subchunk(subchunk_bytes);
    let disk_grid = array.disk_grid();
    let mem_grid = array.memory_grid();
    let elem = array.elem_size();

    let mut chunks = Vec::new();
    let mut file_offset = 0u64;
    for chunk_idx in assigned_chunks(disk_grid.num_chunks(), server, num_servers) {
        let region = disk_grid.chunk_region(chunk_idx);
        if region.is_empty() {
            continue;
        }
        let pieces =
            split_into_subchunks(&region, elem, subchunk_bytes).expect("nonzero subchunk cap");
        let mut subchunks = Vec::with_capacity(pieces.len());
        for sub in pieces {
            let clipped = section.map(|s| s.intersect(&sub.region));
            let wanted = match &clipped {
                None => &sub.region,
                Some(Some(wanted)) => wanted,
                Some(None) => continue,
            };
            let piece = |client| {
                let client_region = mem_grid.chunk_region(client);
                let region = client_region
                    .intersect(wanted)
                    .expect("intersecting chunk must intersect");
                PlanPiece {
                    client,
                    contiguous_in_client: is_contiguous_in(&client_region, &region),
                    contiguous_in_subchunk: is_contiguous_in(&sub.region, &region),
                    region,
                }
            };
            let clients = mem_grid.chunks_intersecting(wanted);
            subchunks.push(PlanSubchunk {
                file_offset: file_offset + sub.offset_in_chunk as u64,
                bytes: sub.bytes,
                pieces: clients.into_iter().map(piece).collect(),
                region: sub.region,
            });
        }
        let chunk_bytes = region.num_bytes(elem) as u64;
        chunks.push(PlanChunk {
            chunk_idx,
            region,
            file_offset,
            subchunks,
        });
        file_offset += chunk_bytes;
    }
    ServerPlan {
        server,
        num_servers,
        chunks,
        total_bytes: file_offset,
    }
}

/// One subchunk step of a lowered [`CollectiveSchedule`].
///
/// A step is the unit the collective executor's window operates on: the
/// exchange stage fetches (write) or pushes (read) the step's pieces,
/// the reorganization stage copies them, and the pinned disk stage
/// writes or reads `sub.bytes` at `sub.file_offset` of file
/// [`ScheduleStep::file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Array index within the collective request (the wire's `array`
    /// field and the [`panda_obs::SubchunkKey::array`] component).
    pub array: u32,
    /// Subchunk index within the array's selected subchunks (the
    /// [`panda_obs::SubchunkKey::subchunk`] component).
    pub subchunk: usize,
    /// Index into [`CollectiveSchedule::files`].
    pub file: usize,
    /// The array's element size in bytes.
    pub elem: usize,
    /// The planned subchunk: region, file offset, size, and the client
    /// pieces — exactly the messages exchanged (section reads: clipped).
    pub sub: PlanSubchunk,
    /// True iff the step needs no reorganization on the server: its one
    /// piece *is* the subchunk (natural chunking, uncut by a section), so
    /// the executor passes the buffer straight through — wire to disk on
    /// writes, disk to wire on reads — instead of copying piece by piece.
    pub identity: bool,
}

/// One per-array file of a [`CollectiveSchedule`], in first-use order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFile {
    /// The request's file tag (the server derives its per-server file
    /// name from it).
    pub tag: String,
    /// Number of steps targeting this file — the disk stage fsyncs a
    /// written file as soon as its last step lands (under the per-file
    /// sync policy).
    pub steps: usize,
    /// Final file length: the largest `file_offset + bytes` over the
    /// file's steps. Known before the first byte moves, so the disk
    /// stage preallocates the whole extent up front on writes.
    pub bytes: u64,
}

/// A server's lowered schedule for one whole collective request.
///
/// [`build_server_plan`] output for one or many arrays is flattened
/// array-major into a single stream of [`ScheduleStep`]s; a single
/// array is simply a group of one. The executor runs the stream through
/// one depth-`d` window regardless of direction or array count, which
/// is what keeps every file byte-identical across depths: per-file FIFO
/// order is the flat order restricted to one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveSchedule {
    /// The flat step stream, array-major, file-sequential per array.
    pub steps: Vec<ScheduleStep>,
    /// Files referenced by the steps, in first-use order.
    pub files: Vec<ScheduleFile>,
    /// Write direction only: file tags of arrays with no data on this
    /// server, which still get an empty file created and synced.
    pub empty_files: Vec<String>,
    /// When the disk stage flushes written data (from the request).
    pub sync_policy: SyncPolicy,
}

impl CollectiveSchedule {
    /// Lower one collective request into this server's schedule.
    ///
    /// For writes every array contributes a file (empty plans land in
    /// [`CollectiveSchedule::empty_files`]); for reads arrays without
    /// selected subchunks are skipped entirely, and a section keeps
    /// only the subchunks it overlaps and the part of each piece inside
    /// it, so prefetcher, scatter loop and models see the same messages.
    pub fn build(
        arrays: &[ArrayOp],
        op: OpKind,
        server: usize,
        num_servers: usize,
        subchunk_bytes: usize,
        sync_policy: SyncPolicy,
    ) -> Self {
        let mut schedule = CollectiveSchedule {
            steps: Vec::new(),
            files: Vec::new(),
            empty_files: Vec::new(),
            sync_policy,
        };
        for (idx, array_op) in arrays.iter().enumerate() {
            // Section writes are rejected at the protocol layer.
            let section = array_op.section.as_ref().filter(|_| op == OpKind::Read);
            let meta = &array_op.meta;
            let plan = plan_array(meta, server, num_servers, subchunk_bytes, section);
            let steps = plan.subchunks().count();
            if steps == 0 {
                if matches!(op, OpKind::Write) {
                    schedule.empty_files.push(array_op.file_tag.clone());
                }
                continue;
            }
            let file = schedule.files.len();
            schedule.files.push(ScheduleFile {
                tag: array_op.file_tag.clone(),
                steps,
                bytes: plan
                    .subchunks()
                    .map(|sub| sub.file_offset + sub.bytes as u64)
                    .max()
                    .unwrap_or(0),
            });
            let subs = plan.chunks.into_iter().flat_map(|c| c.subchunks);
            schedule
                .steps
                .extend(subs.enumerate().map(|(si, sub)| ScheduleStep {
                    array: idx as u32,
                    subchunk: si,
                    file,
                    elem: meta.elem_size(),
                    identity: matches!(&sub.pieces[..], [p] if p.region == sub.region),
                    sub,
                }));
        }
        schedule
    }

    /// True when no step moves any data (files in
    /// [`CollectiveSchedule::empty_files`] may still need creating).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total bytes the disk stage moves for this schedule.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.sub.bytes as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_schema::{DataSchema, ElementType, Mesh, Shape};

    fn natural_array(dims: &[usize], mesh: &[usize]) -> ArrayMeta {
        let mem = DataSchema::block_all(
            Shape::new(dims).unwrap(),
            ElementType::F64,
            Mesh::new(mesh).unwrap(),
        )
        .unwrap();
        ArrayMeta::natural("a", mem).unwrap()
    }

    fn traditional_array(dims: &[usize], mesh: &[usize], servers: usize) -> ArrayMeta {
        let shape = Shape::new(dims).unwrap();
        let mem = DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(mesh).unwrap())
            .unwrap();
        let disk = DataSchema::traditional_order(shape, ElementType::F64, servers).unwrap();
        ArrayMeta::new("a", mem, disk).unwrap()
    }

    #[test]
    fn round_robin_assignment() {
        assert_eq!(assigned_chunks(8, 0, 3).collect::<Vec<_>>(), vec![0, 3, 6]);
        assert_eq!(assigned_chunks(8, 2, 3).collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(assigned_chunks(2, 1, 4).collect::<Vec<_>>(), vec![1]);
        assert_eq!(assigned_chunks(2, 3, 4).count(), 0);
    }

    #[test]
    fn plans_cover_array_exactly_once() {
        for (array, servers) in [
            (natural_array(&[16, 16], &[2, 2]), 2usize),
            (natural_array(&[16, 16], &[2, 2]), 3),
            (traditional_array(&[16, 12, 8], &[2, 2, 2], 3), 3),
            (traditional_array(&[17, 13], &[3, 2], 4), 4),
        ] {
            let elem = array.elem_size();
            let total: u64 = (0..servers)
                .map(|s| build_server_plan(&array, s, servers, 128).total_bytes)
                .sum();
            assert_eq!(total, array.total_bytes() as u64);

            // Every array index must be covered exactly once by pieces.
            let mut counts = vec![0u32; array.shape().num_elements()];
            for s in 0..servers {
                let plan = build_server_plan(&array, s, servers, 128);
                for sub in plan.subchunks() {
                    // Pieces tile the subchunk.
                    let piece_elems: usize =
                        sub.pieces.iter().map(|p| p.region.num_elements()).sum();
                    assert_eq!(piece_elems * elem, sub.bytes);
                    for p in &sub.pieces {
                        let shape = p.region.shape().unwrap();
                        for local in shape.iter_indices() {
                            let global: Vec<usize> = local
                                .iter()
                                .zip(p.region.lo())
                                .map(|(&l, &o)| l + o)
                                .collect();
                            counts[array.shape().linearize(&global)] += 1;
                        }
                    }
                }
            }
            assert!(counts.iter().all(|&c| c == 1), "each index exactly once");
        }
    }

    #[test]
    fn file_offsets_are_sequential() {
        let array = traditional_array(&[32, 8], &[2, 2], 3);
        for s in 0..3 {
            let plan = build_server_plan(&array, s, 3, 64);
            let mut expected = 0u64;
            for sub in plan.subchunks() {
                assert_eq!(sub.file_offset, expected, "strictly sequential file layout");
                expected += sub.bytes as u64;
            }
            assert_eq!(expected, plan.total_bytes);
        }
    }

    #[test]
    fn natural_chunking_has_single_contiguous_pieces() {
        // Memory schema == disk schema: every subchunk lies inside
        // exactly one client chunk and is contiguous there.
        let array = natural_array(&[16, 16], &[2, 2]);
        for s in 0..2 {
            let plan = build_server_plan(&array, s, 2, 256);
            assert!(!plan.chunks.is_empty());
            for sub in plan.subchunks() {
                assert_eq!(sub.pieces.len(), 1, "one client per subchunk");
                assert!(sub.pieces[0].contiguous_in_client);
                // And under natural chunking chunk_idx == client rank.
            }
            for chunk in &plan.chunks {
                for sub in &chunk.subchunks {
                    assert_eq!(sub.pieces[0].client, chunk.chunk_idx);
                }
            }
        }
    }

    #[test]
    fn reorganization_has_multiple_strided_pieces() {
        // 8x8 BLOCK,BLOCK memory over 2x2, disk BLOCK,* over 2 servers:
        // a disk slab spans both columns of clients.
        let array = traditional_array(&[8, 8], &[2, 2], 2);
        let plan = build_server_plan(&array, 0, 2, 1 << 20);
        let sub = plan.subchunks().next().unwrap();
        assert_eq!(sub.pieces.len(), 2, "slab crosses two memory chunks");
        // With a row-slab disk schema the pieces are contiguous on the
        // client side but strided inside the server's subchunk buffer.
        assert!(sub.pieces.iter().all(|p| p.contiguous_in_client));
        assert!(sub.pieces.iter().any(|p| !p.contiguous_in_subchunk));

        // A column-slab (`*,BLOCK`) disk schema strides the CLIENT side:
        // each piece is a half-width sub-box of the client's chunk.
        let shape = Shape::new(&[8, 8]).unwrap();
        let mem =
            DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[2, 2]).unwrap())
                .unwrap();
        let disk = DataSchema::new(
            shape,
            ElementType::F64,
            &[panda_schema::Dist::Star, panda_schema::Dist::Block],
            Mesh::line(4).unwrap(),
        )
        .unwrap();
        let array = ArrayMeta::new("a", mem, disk).unwrap();
        // Disk chunk 0 = all rows x cols [0,2): a half-width stripe of
        // the clients' 4x4 chunks.
        let plan = build_server_plan(&array, 0, 4, 1 << 20);
        let sub = plan.subchunks().next().unwrap();
        assert_eq!(sub.pieces.len(), 2);
        assert!(sub.pieces.iter().all(|p| !p.contiguous_in_client));
    }

    #[test]
    fn empty_trailing_chunks_are_skipped() {
        // 3 rows over 5 mesh cells: chunks 3,4 empty.
        let mem = DataSchema::new(
            Shape::new(&[3, 4]).unwrap(),
            ElementType::U8,
            &[panda_schema::Dist::Block, panda_schema::Dist::Star],
            Mesh::line(5).unwrap(),
        )
        .unwrap();
        let array = ArrayMeta::natural("e", mem).unwrap();
        let mut seen = 0usize;
        for s in 0..2 {
            let plan = build_server_plan(&array, s, 2, 1024);
            for c in &plan.chunks {
                assert!(!c.region.is_empty());
                seen += 1;
            }
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn schedule_lowering_is_array_major_and_file_sequential() {
        let arrays = vec![
            ArrayOp {
                meta: traditional_array(&[16, 16], &[2, 2], 2),
                file_tag: "a".to_string(),
                section: None,
            },
            ArrayOp {
                meta: natural_array(&[8, 8], &[2, 2]),
                file_tag: "b".to_string(),
                section: None,
            },
        ];
        for server in 0..2 {
            let sched = CollectiveSchedule::build(
                &arrays,
                OpKind::Write,
                server,
                2,
                128,
                SyncPolicy::PerFile,
            );
            assert!(!sched.is_empty());
            assert_eq!(sched.files.len(), 2);
            // Array-major: array indices never decrease along the stream.
            let mut last_array = 0;
            for step in &sched.steps {
                assert!(step.array >= last_array, "steps must be array-major");
                last_array = step.array;
            }
            // Per-file FIFO: each file's offsets are strictly sequential,
            // and the per-file step counts match the file table.
            for (fidx, file) in sched.files.iter().enumerate() {
                let steps: Vec<&ScheduleStep> =
                    sched.steps.iter().filter(|s| s.file == fidx).collect();
                assert_eq!(steps.len(), file.steps);
                let mut expected = 0u64;
                for step in steps {
                    assert_eq!(step.sub.file_offset, expected);
                    expected += step.sub.bytes as u64;
                }
            }
            // The schedule moves exactly what the per-array plans move.
            let planned: u64 = arrays
                .iter()
                .map(|op| build_server_plan(&op.meta, server, 2, 128).total_bytes)
                .sum();
            assert_eq!(sched.total_bytes(), planned);
        }
    }

    #[test]
    fn schedule_of_one_array_is_a_group_of_one() {
        // Lowering a single array must equal that array's slice of a
        // multi-array schedule (modulo the array/file indices).
        let a = ArrayOp {
            meta: traditional_array(&[16, 16], &[2, 2], 2),
            file_tag: "a".to_string(),
            section: None,
        };
        let b = ArrayOp {
            meta: natural_array(&[8, 8], &[2, 2]),
            file_tag: "b".to_string(),
            section: None,
        };
        let solo = CollectiveSchedule::build(
            std::slice::from_ref(&b),
            OpKind::Write,
            0,
            2,
            128,
            SyncPolicy::PerFile,
        );
        let pair =
            CollectiveSchedule::build(&[a, b], OpKind::Write, 0, 2, 128, SyncPolicy::PerFile);
        let tail: Vec<&ScheduleStep> = pair.steps.iter().filter(|s| s.array == 1).collect();
        assert_eq!(solo.steps.len(), tail.len());
        for (s, t) in solo.steps.iter().zip(tail) {
            assert_eq!(s.sub, t.sub);
            assert_eq!(s.subchunk, t.subchunk);
            assert_eq!(s.elem, t.elem);
        }
    }

    #[test]
    fn schedule_read_sections_filter_subchunks() {
        let meta = traditional_array(&[16, 16], &[2, 2], 2);
        let section = Region::new(&[0, 0], &[4, 16]).unwrap();
        let op = ArrayOp {
            meta,
            file_tag: "a".to_string(),
            section: Some(section.clone()),
        };
        let full = CollectiveSchedule::build(
            &[ArrayOp {
                section: None,
                ..op.clone()
            }],
            OpKind::Read,
            0,
            2,
            128,
            SyncPolicy::PerFile,
        );
        let trimmed =
            CollectiveSchedule::build(&[op], OpKind::Read, 0, 2, 128, SyncPolicy::PerFile);
        assert!(trimmed.steps.len() < full.steps.len());
        for step in &trimmed.steps {
            assert!(step.sub.region.overlaps(&section));
            for piece in &step.sub.pieces {
                assert!(section.contains_region(&piece.region));
            }
        }
        // Server 1 owns only the bottom slab, disjoint from the section:
        // it contributes no file at all.
        let other = CollectiveSchedule::build(
            &[ArrayOp {
                meta: traditional_array(&[16, 16], &[2, 2], 2),
                file_tag: "a".to_string(),
                section: Some(section),
            }],
            OpKind::Read,
            1,
            2,
            128,
            SyncPolicy::PerFile,
        );
        assert!(other.is_empty());
        assert!(other.files.is_empty());
        assert!(other.empty_files.is_empty(), "reads never create files");
    }

    fn schedule_of(
        meta: ArrayMeta,
        op: OpKind,
        section: Option<Region>,
        server: usize,
    ) -> CollectiveSchedule {
        let op_array = ArrayOp {
            meta,
            file_tag: "a".to_string(),
            section,
        };
        CollectiveSchedule::build(&[op_array], op, server, 2, 256, SyncPolicy::PerFile)
    }

    #[test]
    fn identity_is_natural_chunking_untrimmed() {
        for server in 0..2 {
            for op in [OpKind::Write, OpKind::Read] {
                // Mesh-aligned natural chunking: every step's one piece
                // is its subchunk.
                let natural = schedule_of(natural_array(&[16, 16], &[2, 2]), op, None, server);
                assert!(!natural.is_empty());
                assert!(natural.steps.iter().all(|s| s.identity));
                // Traditional order: a slab crosses client chunks.
                let trad = schedule_of(traditional_array(&[16, 16], &[2, 2], 2), op, None, server);
                assert!(!trad.is_empty());
                assert!(trad.steps.iter().all(|s| !s.identity));
            }
        }
        // Chunk 0 of the natural array is rows 0..8 x cols 0..8 on
        // server 0, in 4-row subchunks. A section that covers a subchunk
        // leaves it an identity step; one that cuts it does not.
        let covering = Region::new(&[0, 0], &[8, 16]).unwrap();
        let sched = schedule_of(
            natural_array(&[16, 16], &[2, 2]),
            OpKind::Read,
            Some(covering),
            0,
        );
        assert!(!sched.is_empty());
        assert!(sched.steps.iter().all(|s| s.identity));
        let cutting = Region::new(&[0, 0], &[8, 5]).unwrap();
        let sched = schedule_of(
            natural_array(&[16, 16], &[2, 2]),
            OpKind::Read,
            Some(cutting.clone()),
            0,
        );
        assert!(!sched.is_empty());
        for step in &sched.steps {
            assert!(!cutting.contains_region(&step.sub.region));
            assert!(!step.identity, "a trimmed piece must be packed");
        }
    }

    #[test]
    fn write_steps_pieces_partition_their_subchunk() {
        // The server assembles a write step into a buffer it does not
        // clear first (and an identity step's buffer is the one piece):
        // sound only because the pieces cover the subchunk exactly once.
        for meta in [
            natural_array(&[16, 16], &[2, 2]),
            traditional_array(&[16, 12, 8], &[2, 2, 2], 2),
            traditional_array(&[17, 13], &[3, 2], 2),
        ] {
            for server in 0..2 {
                let sched = schedule_of(meta.clone(), OpKind::Write, None, server);
                for step in &sched.steps {
                    let pieces = &step.sub.pieces;
                    let covered: usize = pieces.iter().map(|p| p.region.num_bytes(step.elem)).sum();
                    assert_eq!(covered, step.sub.bytes, "pieces must fill the subchunk");
                    for (i, p) in pieces.iter().enumerate() {
                        assert!(step.sub.region.contains_region(&p.region));
                        for q in &pieces[i + 1..] {
                            assert!(!p.region.overlaps(&q.region), "pieces must not overlap");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_write_records_empty_files() {
        // 2 chunks over 3 servers: server 2 gets nothing but must still
        // create its (empty) file on the write direction.
        let op = ArrayOp {
            meta: traditional_array(&[16, 16], &[2, 2], 2),
            file_tag: "a".to_string(),
            section: None,
        };
        let sched = CollectiveSchedule::build(
            std::slice::from_ref(&op),
            OpKind::Write,
            2,
            3,
            128,
            SyncPolicy::PerFile,
        );
        assert!(sched.is_empty());
        assert_eq!(sched.empty_files, vec!["a".to_string()]);
        let read = CollectiveSchedule::build(&[op], OpKind::Read, 2, 3, 128, SyncPolicy::PerFile);
        assert!(read.empty_files.is_empty());
    }

    #[test]
    fn paper_example_traditional_order_concat() {
        // Paper §3: 512 MB array 512^3 f64... scaled down: BLOCK,*,*
        // over n servers means server i holds plane-slab i, so
        // concatenating files 0..n yields traditional order. Verify the
        // plan's chunk regions are exactly the ordered slabs.
        let array = traditional_array(&[16, 8, 8], &[2, 2, 2], 4);
        for s in 0..4 {
            let plan = build_server_plan(&array, s, 4, 1 << 20);
            assert_eq!(plan.chunks.len(), 1);
            let r = &plan.chunks[0].region;
            assert_eq!(r.lo(), &[4 * s, 0, 0]);
            assert_eq!(r.hi(), &[4 * (s + 1), 8, 8]);
        }
    }
}
