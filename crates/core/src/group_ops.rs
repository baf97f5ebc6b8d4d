//! Array groups and the paper's application-facing operations.
//!
//! Figure 2 of the paper shows the intended programming model: the
//! application declares `Array` objects, collects them into an
//! `ArrayGroup`, and then issues whole-group collective operations —
//! `timestep()` inside the simulation loop, `checkpoint()` periodically,
//! and `restart()` to resume from the last checkpoint. This module
//! reproduces that API on top of [`PandaClient`].

use panda_msg::{MatchSpec, NodeId, Transport};

use crate::array::ArrayMeta;
use crate::client::PandaClient;
use crate::encode::{wire_struct, Reader, Wire};
use crate::error::PandaError;
use crate::protocol::{recv_msg, send_msg, tags, Msg};
use crate::request::{ReadSet, WriteSet};

/// Anything a group operation can submit collectives through: the
/// one-shot fleet path ([`PandaClient`]) or a multi-tenant service
/// session ([`crate::Session`]). The group operations are generic over
/// this trait, so the same `timestep`/`checkpoint`/`restart` loop runs
/// unchanged in either deployment.
pub trait CollectiveHandle {
    /// Perform a collective write of the prepared set.
    fn collective_write(&mut self, set: &WriteSet<'_>) -> Result<(), PandaError>;

    /// Perform a collective read into the prepared set.
    fn collective_read(&mut self, set: &mut ReadSet<'_>) -> Result<(), PandaError>;

    /// The raw control plane: the handle's transport and the NodeId of
    /// I/O node 0 (where group manifests and markers live).
    #[doc(hidden)]
    fn control(&mut self) -> (&mut dyn Transport, NodeId);
}

impl CollectiveHandle for PandaClient {
    fn collective_write(&mut self, set: &WriteSet<'_>) -> Result<(), PandaError> {
        self.write_set(set)
    }

    fn collective_read(&mut self, set: &mut ReadSet<'_>) -> Result<(), PandaError> {
        self.read_set(set)
    }

    fn control(&mut self) -> (&mut dyn Transport, NodeId) {
        let server0 = NodeId(self.num_clients());
        (self.transport_mut(), server0)
    }
}

wire_struct! {
    /// A named group of arrays written and read together.
    ///
    /// All compute nodes must hold identical group definitions (same name,
    /// same arrays, same order) and call the collective methods together —
    /// Panda "assumes all clients will participate in the collective i/o at
    /// approximately the same time" (paper §2). The timestep counter
    /// advances identically on every node because every node calls
    /// [`ArrayGroup::timestep`].
    ///
    /// The fields, in this order, are the group's schema manifest
    /// ([`ArrayGroup::encode_manifest`]).
    #[derive(Debug, Clone)]
    pub struct ArrayGroup {
        name: String,
        timesteps_taken: usize,
        /// Number of checkpoints taken. Checkpoints alternate between two
        /// file generations (`ckpt-a`/`ckpt-b`) so that a crash *during* a
        /// checkpoint can never destroy the previous good one; `restart`
        /// reads the generation of the last completed checkpoint.
        checkpoints_taken: usize,
        arrays: Vec<ArrayMeta>,
    }
}

wire_struct! {
    /// The checkpoint generation marker ([`ArrayGroup::marker_file`]):
    /// what `checkpoint` commits and `restart` trusts.
    pub(crate) struct Marker {
        pub(crate) group: String,
        /// Checkpoints completed when the marker was written (≥ 1).
        pub(crate) completed: usize,
        pub(crate) timesteps_taken: usize,
        pub(crate) arrays: usize,
    }
}

impl ArrayGroup {
    /// Create an empty group.
    pub fn new(name: impl Into<String>) -> Self {
        ArrayGroup {
            name: name.into(),
            arrays: Vec::new(),
            timesteps_taken: 0,
            checkpoints_taken: 0,
        }
    }

    /// Add an array to the group (paper: `simulation->include(...)`).
    pub fn include(&mut self, meta: ArrayMeta) -> &mut Self {
        self.arrays.push(meta);
        self
    }

    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arrays in inclusion order.
    pub fn arrays(&self) -> &[ArrayMeta] {
        &self.arrays
    }

    /// How many timesteps have been written so far.
    pub fn timesteps_taken(&self) -> usize {
        self.timesteps_taken
    }

    /// File tag for array `idx` at timestep `t`.
    pub fn timestep_tag(&self, idx: usize, t: usize) -> String {
        format!("{}/{}.ts{}", self.name, self.arrays[idx].name(), t)
    }

    /// How many checkpoints have been written so far.
    pub fn checkpoints_taken(&self) -> usize {
        self.checkpoints_taken
    }

    /// File tag for array `idx` in checkpoint generation `generation`
    /// (generations alternate between `a` and `b`).
    pub fn checkpoint_tag(&self, idx: usize, generation: usize) -> String {
        let g = if generation.is_multiple_of(2) {
            'a'
        } else {
            'b'
        };
        format!("{}/{}.ckpt-{}", self.name, self.arrays[idx].name(), g)
    }

    /// Lower the group's buffers into one [`WriteSet`], in group order.
    fn write_set<'a>(&'a self, tags: &'a [String], datas: &[&'a [u8]]) -> WriteSet<'a> {
        let mut set = WriteSet::new();
        for ((meta, tag), &data) in self.arrays.iter().zip(tags).zip(datas) {
            set = set.array(meta, tag.clone(), data);
        }
        set
    }

    /// File tags of every array at timestep `t`, in group order.
    fn timestep_tags(&self, t: usize) -> Vec<String> {
        (0..self.arrays.len())
            .map(|i| self.timestep_tag(i, t))
            .collect()
    }

    /// File tags of every array in checkpoint generation `generation`,
    /// in group order.
    fn checkpoint_tags(&self, generation: usize) -> Vec<String> {
        (0..self.arrays.len())
            .map(|i| self.checkpoint_tag(i, generation))
            .collect()
    }

    /// Collective read of every array from the given file tags — the
    /// shared tail of [`ArrayGroup::restart`] and
    /// [`ArrayGroup::read_timestep`].
    fn read_with_tags<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
        tags: &[String],
        datas: &mut [&mut [u8]],
    ) -> Result<(), PandaError> {
        let mut set = ReadSet::new();
        for ((meta, tag), data) in self.arrays.iter().zip(tags).zip(datas.iter_mut()) {
            set = set.array(meta, tag.clone(), data);
        }
        handle.collective_read(&mut set)
    }

    /// Collective: output all arrays for the current timestep and
    /// advance the timestep counter. `datas[i]` is this node's chunk of
    /// `arrays()[i]`.
    pub fn timestep<H: CollectiveHandle + ?Sized>(
        &mut self,
        handle: &mut H,
        datas: &[&[u8]],
    ) -> Result<(), PandaError> {
        self.check_arity(datas.len())?;
        let tags = self.timestep_tags(self.timesteps_taken);
        handle.collective_write(&self.write_set(&tags, datas))?;
        self.timesteps_taken += 1;
        Ok(())
    }

    /// Name of the group's checkpoint generation marker on the first
    /// I/O node. The marker records the count of *completed*
    /// checkpoints; it is written only after a checkpoint's data files
    /// have been written and synced, so its presence certifies that the
    /// generation it names is intact on disk. I/O node 0 syncs it before
    /// the next collective write may start (see
    /// [`ArrayGroup::checkpoint`]).
    pub fn marker_file(&self) -> String {
        format!("{}/{}.ckpt", self.name, self.name)
    }

    /// Collective: write a checkpoint of all arrays.
    ///
    /// Generations alternate between two file sets, so the previous
    /// checkpoint stays intact until this one has completed on every
    /// I/O node; only then does the generation counter advance and the
    /// clients commit the generation marker. A crash
    /// mid-checkpoint therefore loses nothing: [`ArrayGroup::restart`]
    /// trusts the marker, which still names the previous generation.
    ///
    /// The marker write is not acknowledged and this call does not wait
    /// for it to be durable. The master I/O node does, on the
    /// application's behalf: it syncs the marker before it relays or
    /// starts the next collective write, which the submitting client's
    /// connection delivers after that client's marker (every client
    /// writes the same bytes). So the marker on the device names
    /// checkpoint N before a byte of checkpoint N + 1 — which overwrites
    /// generation N − 1 — is written anywhere. The last marker of a run
    /// is only as durable as the kernel's own flush; that tears nothing,
    /// because nothing is overwritten after it. (Checking the files a
    /// marker names — footers, checksums — is not done here.)
    pub fn checkpoint<H: CollectiveHandle + ?Sized>(
        &mut self,
        handle: &mut H,
        datas: &[&[u8]],
    ) -> Result<(), PandaError> {
        self.check_arity(datas.len())?;
        let tags = self.checkpoint_tags(self.checkpoints_taken);
        handle.collective_write(&self.write_set(&tags, datas))?;
        // The collective has completed (files written and synced) —
        // commit the generation. Every client writes the identical
        // marker: the writes are idempotent, and going through each
        // client's own in-order connection guarantees the marker is
        // visible to that client's later operations (a master-only
        // write could race with another client's restart). The write is
        // deliberately unacknowledged — blocking here would deadlock
        // with a peer that has already entered the next collective and
        // is waiting on this client's pieces; per-source FIFO ordering
        // means any later stat/read from this client observes it, and
        // that the master server has the submitting client's marker in
        // hand (and syncs it) before it relays that client's next write.
        self.checkpoints_taken += 1;
        let mut marker = Vec::new();
        Marker {
            group: self.name.clone(),
            completed: self.checkpoints_taken,
            timesteps_taken: self.timesteps_taken,
            arrays: self.arrays.len(),
        }
        .put(&mut marker);
        let (transport, server0) = handle.control();
        send_msg(
            transport,
            server0,
            &Msg::RawWrite {
                file: self.marker_file(),
                offset: 0,
                payload: marker,
            },
        )?;
        Ok(())
    }

    /// Collective: restore all arrays from the last completed
    /// checkpoint, as certified by the on-disk generation marker.
    ///
    /// Returns [`ConfigIssue::NoCheckpoint`](crate::error::ConfigIssue)
    /// when the group has never checkpointed, and
    /// [`ConfigIssue::CheckpointIncomplete`](crate::error::ConfigIssue)
    /// when checkpoint files may exist but no marker records a
    /// *completed* generation — i.e. a previous run crashed before
    /// finishing its first checkpoint, so neither `ckpt-a` nor `ckpt-b`
    /// can be trusted.
    pub fn restart<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
        datas: &mut [&mut [u8]],
    ) -> Result<(), PandaError> {
        self.check_arity(datas.len())?;
        if self.checkpoints_taken == 0 {
            return Err(PandaError::Config {
                issue: crate::error::ConfigIssue::NoCheckpoint {
                    group: self.name.clone(),
                },
            });
        }
        // The marker, not the in-memory counter, is authoritative for
        // which generation actually completed: after a crash the counter
        // comes from a manifest that may be newer than the last
        // completed checkpoint.
        let completed = self.read_marker(handle)?;
        let tags = self.checkpoint_tags(completed - 1);
        self.read_with_tags(handle, &tags, datas)
    }

    /// Collective: read back the arrays written at timestep `t` (e.g.
    /// for post-processing or visualization).
    pub fn read_timestep<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
        t: usize,
        datas: &mut [&mut [u8]],
    ) -> Result<(), PandaError> {
        self.check_arity(datas.len())?;
        let tags = self.timestep_tags(t);
        self.read_with_tags(handle, &tags, datas)
    }

    /// Collective: read a rectangular section of one array of timestep
    /// `t` — the visualization/post-processing access pattern ("give me
    /// plane 40 of the temperature field at step 7"). The buffer must
    /// be sized per [`PandaClient::section_bytes`].
    pub fn read_timestep_section<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
        t: usize,
        array_idx: usize,
        section: &panda_schema::Region,
        data: &mut [u8],
    ) -> Result<(), PandaError> {
        let tag = self.timestep_tag(array_idx, t);
        let mut set = ReadSet::new().section(&self.arrays[array_idx], tag, section.clone(), data);
        handle.collective_read(&mut set)
    }

    /// Name of the group's schema manifest file on the first I/O node
    /// (the paper's `ArrayGroup("Sim2", "simulation2.schema")`).
    pub fn manifest_file(&self) -> String {
        format!("{}/{}.schema", self.name, self.name)
    }

    /// Persist the group definition — name, arrays, both schemas, and
    /// the timestep counter — to the manifest file on I/O node 0, so a
    /// fresh process can [`ArrayGroup::load`] it and restart without
    /// re-declaring anything. Any single client may call this; it is
    /// idempotent.
    pub fn save_schema<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
    ) -> Result<(), PandaError> {
        let file = self.manifest_file();
        let (transport, server0) = handle.control();
        send_msg(
            transport,
            server0,
            &Msg::RawWrite {
                file: file.clone(),
                offset: 0,
                payload: self.encode_manifest(),
            },
        )?;
        // The follow-up stat doubles as an acknowledgement: the server
        // processes our messages in order, so a reply means the write
        // has been applied.
        let len = stat_file(handle, &file)?;
        if len == u64::MAX {
            return Err(PandaError::Protocol {
                detail: "manifest write was not applied".to_string(),
            });
        }
        Ok(())
    }

    /// Reconstruct a group from its manifest on I/O node 0.
    pub fn load<H: CollectiveHandle + ?Sized>(
        handle: &mut H,
        group_name: &str,
    ) -> Result<ArrayGroup, PandaError> {
        let file = format!("{group_name}/{group_name}.schema");
        let Some(payload) = fetch_file(handle, &file)? else {
            return Err(PandaError::Fs(panda_fs::FsError::NotFound { path: file }));
        };
        Self::decode_manifest(&payload)
    }

    /// Serialize the group definition to manifest bytes (name, both
    /// counters, every array's schemas). Offline tools use this pair to
    /// read/write `.schema` files without a running deployment.
    pub fn encode_manifest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Inverse of [`ArrayGroup::encode_manifest`].
    pub fn decode_manifest(payload: &[u8]) -> Result<ArrayGroup, PandaError> {
        // Unlike a message, a control file may carry a tail: `RawWrite`
        // does not truncate, so a manifest rewritten shorter leaves the
        // end of the longer one behind it. Hence no `Reader::finish`.
        ArrayGroup::get(&mut Reader::new(payload))
    }

    /// Fetch and validate the generation marker from I/O node 0,
    /// returning the count of completed checkpoints (always ≥ 1).
    fn read_marker<H: CollectiveHandle + ?Sized>(
        &self,
        handle: &mut H,
    ) -> Result<usize, PandaError> {
        let incomplete = || PandaError::Config {
            issue: crate::error::ConfigIssue::CheckpointIncomplete {
                group: self.name.clone(),
            },
        };
        let Some(payload) = fetch_file(handle, &self.marker_file())? else {
            // Data files were (maybe partially) written but the marker
            // never landed: no generation is known-complete.
            return Err(incomplete());
        };
        let marker = Marker::get(&mut Reader::new(&payload))?;
        if marker.group != self.name || marker.completed == 0 {
            return Err(incomplete());
        }
        Ok(marker.completed)
    }

    fn check_arity(&self, n: usize) -> Result<(), PandaError> {
        if n != self.arrays.len() {
            return Err(PandaError::Config {
                issue: crate::error::ConfigIssue::GroupArity {
                    group: self.name.clone(),
                    arrays: self.arrays.len(),
                    buffers: n,
                },
            });
        }
        Ok(())
    }
}

/// Fetch a whole control file (manifest or marker) from I/O node 0 over
/// the raw plane: stat, then read its full length. `None` means the
/// file does not exist.
fn fetch_file<H: CollectiveHandle + ?Sized>(
    handle: &mut H,
    file: &str,
) -> Result<Option<Vec<u8>>, PandaError> {
    let len = stat_file(handle, file)?;
    if len == u64::MAX {
        return Ok(None);
    }
    let (transport, server0) = handle.control();
    send_msg(
        transport,
        server0,
        &Msg::RawRead {
            file: file.to_string(),
            offset: 0,
            len,
            seq: 0,
        },
    )?;
    let (_, msg) = recv_msg(transport, MatchSpec::tag(tags::RAW_DATA))?;
    let Msg::RawData { payload, .. } = msg else {
        unreachable!("matched RAW_DATA tag");
    };
    Ok(Some(payload))
}

/// Query a file's length on I/O node 0; `u64::MAX` means "not found".
fn stat_file<H: CollectiveHandle + ?Sized>(handle: &mut H, file: &str) -> Result<u64, PandaError> {
    let (transport, server0) = handle.control();
    send_msg(
        transport,
        server0,
        &Msg::RawStat {
            file: file.to_string(),
            seq: 0,
        },
    )?;
    let (_, msg) = recv_msg(transport, MatchSpec::tag(tags::RAW_STAT_REPLY))?;
    let Msg::RawStatReply { len, .. } = msg else {
        unreachable!("matched RAW_STAT_REPLY tag");
    };
    Ok(len)
}

/// Per-client storage for a group: one correctly-sized buffer per array.
///
/// Convenience for applications and examples; `GroupData::slices` /
/// `GroupData::slices_mut` adapt to the collective-call signatures.
#[derive(Debug, Clone)]
pub struct GroupData {
    buffers: Vec<Vec<u8>>,
}

impl GroupData {
    /// Allocate zeroed chunk buffers for compute node `rank`.
    pub fn zeroed(group: &ArrayGroup, rank: usize) -> Self {
        GroupData {
            buffers: group
                .arrays()
                .iter()
                .map(|meta| vec![0u8; meta.client_bytes(rank)])
                .collect(),
        }
    }

    /// Immutable views, in group order.
    pub fn slices(&self) -> Vec<&[u8]> {
        self.buffers.iter().map(|b| b.as_slice()).collect()
    }

    /// Mutable views, in group order.
    pub fn slices_mut(&mut self) -> Vec<&mut [u8]> {
        self.buffers.iter_mut().map(|b| b.as_mut_slice()).collect()
    }

    /// The buffer for array `idx`.
    pub fn buffer(&self, idx: usize) -> &[u8] {
        &self.buffers[idx]
    }

    /// Mutable buffer for array `idx`.
    pub fn buffer_mut(&mut self, idx: usize) -> &mut Vec<u8> {
        &mut self.buffers[idx]
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True iff the group holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_schema::{DataSchema, ElementType, Mesh, Shape};

    fn meta(name: &str) -> ArrayMeta {
        let mem = DataSchema::block_all(
            Shape::new(&[8, 8]).unwrap(),
            ElementType::F64,
            Mesh::new(&[2, 2]).unwrap(),
        )
        .unwrap();
        ArrayMeta::natural(name, mem).unwrap()
    }

    #[test]
    fn group_bookkeeping() {
        let mut g = ArrayGroup::new("sim2");
        g.include(meta("temperature")).include(meta("pressure"));
        assert_eq!(g.name(), "sim2");
        assert_eq!(g.arrays().len(), 2);
        assert_eq!(g.timestep_tag(0, 3), "sim2/temperature.ts3");
        assert_eq!(g.checkpoint_tag(1, 0), "sim2/pressure.ckpt-a");
        assert_eq!(g.checkpoint_tag(1, 1), "sim2/pressure.ckpt-b");
        assert_eq!(g.checkpoints_taken(), 0);
        assert_eq!(g.timesteps_taken(), 0);
    }

    #[test]
    fn group_data_allocates_chunk_sizes() {
        let mut g = ArrayGroup::new("g");
        g.include(meta("a"));
        let d = GroupData::zeroed(&g, 0);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        // 8x8 f64 over 4 clients → 16 elements × 8 bytes each.
        assert_eq!(d.buffer(0).len(), 16 * 8);
        assert_eq!(d.slices()[0].len(), 128);
    }
}
