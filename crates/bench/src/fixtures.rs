//! The fixtures the experiment bins share: one fleet shape, one array
//! constructor, the 4-array group built from it, its fill pattern and
//! the on-disk snapshot the byte-identity assertions compare.

use std::path::Path;

use panda_core::{ArrayGroup, ArrayMeta, GroupData};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

/// Compute nodes of the fleet every fixture array is laid out for (the
/// 2x2 memory mesh).
pub const CLIENTS: usize = 4;
/// I/O nodes the fixture arrays' disk schema spreads over.
pub const SERVERS: usize = 2;

/// A `rows` x `rows` f64 array, `BLOCK,BLOCK` over the 2x2 client mesh
/// in memory and in traditional order across [`SERVERS`] on disk.
pub fn mesh_array(name: &str, rows: usize) -> ArrayMeta {
    let shape = Shape::new(&[rows, rows]).unwrap();
    let memory =
        DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[2, 2]).unwrap())
            .unwrap();
    let disk = DataSchema::traditional_order(shape, ElementType::F64, SERVERS).unwrap();
    ArrayMeta::new(name, memory, disk).unwrap()
}

/// The paper's Figure 2 cast: a 4-array simulation group named `bench`.
pub fn group(rows: usize) -> ArrayGroup {
    let mut g = ArrayGroup::new("bench");
    for name in ["temperature", "pressure", "density", "energy"] {
        g.include(mesh_array(name, rows));
    }
    g
}

/// Fill every buffer of `data` with a rank-, array- and
/// offset-dependent nonzero pattern.
pub fn fill_pattern(data: &mut GroupData, rank: usize) {
    for i in 0..data.len() {
        for (j, b) in data.buffer_mut(i).iter_mut().enumerate() {
            *b = ((rank * 131 + i * 31 + j * 7) % 251) as u8 + 1;
        }
    }
}

/// All of [`group`]'s files under `root` (one `ionode<s>` directory per
/// server), sorted by relative path.
pub fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for s in 0..SERVERS {
        let dir = root.join(format!("ionode{s}/bench"));
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        for name in names {
            out.push((
                format!("ionode{s}/bench/{name}"),
                std::fs::read(dir.join(&name)).unwrap(),
            ));
        }
    }
    out
}
