//! HPF-style per-dimension distribution directives.
//!
//! The paper supports "HPF-style BLOCK- and *-based array schemas"
//! (paper §2). We implement those two faithfully and add `BLOCK-CYCLIC`
//! as the extension the Panda group lists under future schema work
//! (\[Seamons94a\] studies general physical schemas).

use crate::error::SchemaError;

/// How one array dimension is divided across one mesh axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// HPF `BLOCK`: the dimension is cut into `p` contiguous blocks of
    /// `ceil(n/p)` indices; trailing blocks may be short or empty.
    Block,
    /// HPF `*` (called `NONE` in the paper's Figure 2): the dimension is
    /// not distributed; every mesh cell sees its full extent.
    Star,
    /// HPF `CYCLIC(b)`: blocks of `b` indices are dealt round-robin across
    /// the mesh axis. `Cyclic(1)` is classic cyclic distribution.
    ///
    /// Extension beyond the paper (Panda 2.0 itself only ships `BLOCK`
    /// and `*`): the directive exists, validates and crosses the wire so
    /// outside input naming it gets a typed rejection from the
    /// chunk-grid builder, which requires rectangular chunks.
    Cyclic(usize),
}

impl Dist {
    /// True iff this directive consumes a mesh axis.
    #[inline]
    pub fn is_distributed(self) -> bool {
        !matches!(self, Dist::Star)
    }

    /// Validate the directive itself.
    pub fn validate(self) -> Result<(), SchemaError> {
        match self {
            Dist::Cyclic(0) => Err(SchemaError::ZeroCyclicBlock),
            _ => Ok(()),
        }
    }

    /// The half-open index interval of dimension extent `n` owned by mesh
    /// coordinate `part` out of `parts`, for this directive.
    ///
    /// For `BLOCK` this is the contiguous interval `[part*b, min((part+1)*b, n))`
    /// with `b = ceil(n/parts)`; the interval is empty when `part*b >= n`.
    /// For `*` it is always `[0, n)`. `CYCLIC` owns a non-contiguous set
    /// and therefore has no single interval; callers must treat it
    /// specially (the chunk grid rejects it).
    pub fn block_interval(self, n: usize, part: usize, parts: usize) -> Option<(usize, usize)> {
        assert!(parts > 0, "mesh axis must have at least one cell");
        assert!(part < parts, "mesh coordinate out of range");
        match self {
            Dist::Star => Some((0, n)),
            Dist::Block => {
                let b = n.div_ceil(parts);
                let lo = (part * b).min(n);
                let hi = ((part + 1) * b).min(n);
                Some((lo, hi))
            }
            Dist::Cyclic(_) => None,
        }
    }

    /// A short HPF-like rendering: `BLOCK`, `*`, `CYCLIC(b)`.
    pub fn name(self) -> String {
        match self {
            Dist::Block => "BLOCK".to_string(),
            Dist::Star => "*".to_string(),
            Dist::Cyclic(b) => format!("CYCLIC({b})"),
        }
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Render a distribution vector the way the paper writes schemas,
/// e.g. `BLOCK,BLOCK,*`.
pub fn dist_vector_name(dists: &[Dist]) -> String {
    dists.iter().map(|d| d.name()).collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_intervals_tile_the_dimension() {
        for n in [1usize, 5, 8, 100, 513] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = 0usize;
                let mut prev_hi = 0usize;
                for part in 0..parts {
                    let (lo, hi) = Dist::Block.block_interval(n, part, parts).unwrap();
                    assert!(lo <= hi);
                    assert_eq!(lo, prev_hi.min(n), "blocks must be adjacent");
                    prev_hi = hi;
                    covered += hi - lo;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn block_trailing_parts_can_be_empty() {
        // n=4, parts=3 → b=2 → [0,2) [2,4) [4,4)
        assert_eq!(Dist::Block.block_interval(4, 2, 3), Some((4, 4)));
        // n=2, parts=4 → b=1 → last two parts empty
        assert_eq!(Dist::Block.block_interval(2, 3, 4), Some((2, 2)));
    }

    #[test]
    fn star_owns_everything() {
        for part in 0..3 {
            assert_eq!(Dist::Star.block_interval(10, part, 3), Some((0, 10)));
        }
    }

    #[test]
    fn cyclic_has_no_single_interval() {
        assert_eq!(Dist::Cyclic(2).block_interval(10, 0, 2), None);
    }

    #[test]
    fn cyclic_zero_block_is_invalid() {
        assert_eq!(
            Dist::Cyclic(0).validate().unwrap_err(),
            SchemaError::ZeroCyclicBlock
        );
        assert!(Dist::Cyclic(3).validate().is_ok());
        assert!(Dist::Block.validate().is_ok());
    }

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(
            dist_vector_name(&[Dist::Block, Dist::Block, Dist::Star]),
            "BLOCK,BLOCK,*"
        );
    }

    #[test]
    fn distributedness() {
        assert!(Dist::Block.is_distributed());
        assert!(Dist::Cyclic(1).is_distributed());
        assert!(!Dist::Star.is_distributed());
    }
}
