//! Array metadata: name, shape, element type, memory & disk schemas.

use panda_schema::{ChunkGrid, DataSchema, ElementType, Region, Shape};

use crate::error::PandaError;

/// Everything Panda needs to know about one array.
///
/// Mirrors the paper's `Array` class (Figure 2): a named array with a
/// *memory schema* (its HPF distribution across compute nodes) and a
/// *disk schema* (its chunked layout across I/O nodes). By default Panda
/// uses *natural chunking* — a disk schema identical to the memory
/// schema — but any `BLOCK`/`*` disk schema may be declared, and Panda
/// reorganizes the data in flight whenever the two differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    name: String,
    memory: DataSchema,
    disk: DataSchema,
}

impl ArrayMeta {
    /// Create array metadata; the two schemas must agree on shape and
    /// element type.
    pub fn new(
        name: impl Into<String>,
        memory: DataSchema,
        disk: DataSchema,
    ) -> Result<Self, PandaError> {
        let name = name.into();
        if memory.shape() != disk.shape() || memory.elem() != disk.elem() {
            return Err(PandaError::SchemaMismatch { array: name });
        }
        Ok(ArrayMeta { name, memory, disk })
    }

    /// Natural chunking: the disk schema is the memory schema (the
    /// paper's default, "for performance and convenience").
    pub fn natural(name: impl Into<String>, memory: DataSchema) -> Result<Self, PandaError> {
        let disk = memory.clone();
        ArrayMeta::new(name, memory, disk)
    }

    /// The array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The memory (compute-node) schema.
    pub fn memory(&self) -> &DataSchema {
        &self.memory
    }

    /// The disk (I/O-node) schema.
    pub fn disk(&self) -> &DataSchema {
        &self.disk
    }

    /// Array shape (shared by both schemas).
    pub fn shape(&self) -> &Shape {
        self.memory.shape()
    }

    /// Element type.
    pub fn elem(&self) -> ElementType {
        self.memory.elem()
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> usize {
        self.memory.elem_size()
    }

    /// Total array size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.memory.total_bytes()
    }

    /// True iff memory and disk schemas are identical (natural chunking:
    /// chunks move between clients and servers "with very little
    /// processing overhead").
    pub fn is_natural(&self) -> bool {
        self.memory == self.disk
    }

    /// The memory chunk grid (one chunk per compute node).
    pub fn memory_grid(&self) -> ChunkGrid {
        self.memory.chunk_grid()
    }

    /// The disk chunk grid (chunks are dealt round-robin to I/O nodes).
    pub fn disk_grid(&self) -> ChunkGrid {
        self.disk.chunk_grid()
    }

    /// Number of compute nodes the memory schema requires.
    pub fn num_clients(&self) -> usize {
        self.memory.mesh().num_nodes()
    }

    /// The array region held by compute node `rank`.
    pub fn client_region(&self, rank: usize) -> Region {
        self.memory_grid().chunk_region(rank)
    }

    /// The part of `section` compute node `rank` holds: its chunk's
    /// intersection with it, empty when they are disjoint.
    pub(crate) fn client_section(&self, rank: usize, section: &Region) -> Region {
        let mine = self.client_region(rank);
        mine.intersect(section)
            .unwrap_or_else(|| Region::empty(mine.rank()))
    }

    /// The buffer size, in bytes, compute node `rank` must supply.
    pub fn client_bytes(&self, rank: usize) -> usize {
        self.client_region(rank).num_bytes(self.elem_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_schema::Mesh;

    fn shape() -> Shape {
        Shape::new(&[8, 8]).unwrap()
    }

    #[test]
    fn natural_chunking_duplicates_schema() {
        let mem =
            DataSchema::block_all(shape(), ElementType::F64, Mesh::new(&[2, 2]).unwrap()).unwrap();
        let a = ArrayMeta::natural("t", mem).unwrap();
        assert!(a.is_natural());
        assert_eq!(a.memory(), a.disk());
        assert_eq!(a.num_clients(), 4);
        assert_eq!(a.total_bytes(), 64 * 8);
    }

    #[test]
    fn mismatched_schemas_rejected() {
        let mem =
            DataSchema::block_all(shape(), ElementType::F64, Mesh::new(&[2, 2]).unwrap()).unwrap();
        let disk = DataSchema::traditional_order(Shape::new(&[8, 9]).unwrap(), ElementType::F64, 2)
            .unwrap();
        assert!(matches!(
            ArrayMeta::new("t", mem.clone(), disk),
            Err(PandaError::SchemaMismatch { .. })
        ));
        let disk_wrong_elem = DataSchema::traditional_order(shape(), ElementType::I32, 2).unwrap();
        assert!(ArrayMeta::new("t", mem, disk_wrong_elem).is_err());
    }

    #[test]
    fn client_regions_partition_the_array() {
        let mem =
            DataSchema::block_all(shape(), ElementType::I32, Mesh::new(&[2, 2]).unwrap()).unwrap();
        let disk = DataSchema::traditional_order(shape(), ElementType::I32, 3).unwrap();
        let a = ArrayMeta::new("p", mem, disk).unwrap();
        assert!(!a.is_natural());
        let total: usize = (0..a.num_clients()).map(|r| a.client_bytes(r)).sum();
        assert_eq!(total, a.total_bytes());
        assert_eq!(a.client_region(0).lo(), &[0, 0]);
        assert_eq!(a.client_region(3).lo(), &[4, 4]);
    }
}
