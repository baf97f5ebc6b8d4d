//! Strided gather/scatter copy kernels.
//!
//! Panda clients and servers hold array data as *chunk buffers*: a
//! row-major buffer holding exactly one rectangular [`Region`] of the
//! global array. Moving a sub-region between two such buffers (a client's
//! memory chunk and a server's disk subchunk) is the paper's
//! "reorganization" step. The kernels here coalesce the copy into maximal
//! contiguous runs: when the portion spans the full extent of trailing
//! dimensions in both the source and destination layouts, whole slabs
//! move with a single `copy_from_slice`.

use crate::error::SchemaError;
use crate::region::Region;

/// Byte offset of global index `idx` inside a row-major buffer laid out
/// for `enclosing`.
#[inline]
pub fn offset_in_region(enclosing: &Region, idx: &[usize], elem_size: usize) -> usize {
    debug_assert_eq!(idx.len(), enclosing.rank());
    debug_assert!(enclosing.contains_index(idx));
    let mut off = 0usize;
    for (d, &i) in idx.iter().enumerate() {
        off = off * enclosing.extent(d) + (i - enclosing.lo()[d]);
    }
    off * elem_size
}

/// Validate that `buf` is large enough to hold `region` at `elem_size`.
fn check_buffer(buf_len: usize, region: &Region, elem_size: usize) -> Result<(), SchemaError> {
    let required = region.num_bytes(elem_size);
    if buf_len < required {
        return Err(SchemaError::BufferTooSmall {
            required,
            actual: buf_len,
        });
    }
    Ok(())
}

/// Plan of a strided copy: the outer iteration space, the byte length of
/// each contiguous run, and the per-dimension byte strides of both
/// layouts (so the odometer can advance offsets incrementally instead of
/// re-deriving them from the multi-index on every run).
struct RunPlan {
    /// Dimensions 0..cut are iterated run-by-run; dims cut..rank are
    /// fused into each run.
    cut: usize,
    /// Bytes moved per run.
    run_bytes: usize,
    /// Byte distance between consecutive indices of each dimension in
    /// the source layout.
    src_strides: Vec<usize>,
    /// Same for the destination layout.
    dst_strides: Vec<usize>,
}

/// Row-major byte strides of a buffer laid out for `region`.
fn byte_strides(region: &Region, elem_size: usize) -> Vec<usize> {
    let rank = region.rank();
    let mut strides = vec![0usize; rank];
    let mut acc = elem_size;
    for d in (0..rank).rev() {
        strides[d] = acc;
        acc *= region.extent(d);
    }
    strides
}

/// Find the maximal contiguous run structure for copying `portion`
/// between buffers laid out for `src` and `dst`.
///
/// Fusion works on strides, not extent equality: trailing dim `d` folds
/// into the run when stepping it advances both buffers by exactly the
/// bytes fused so far (`src` and `dst` stride == `run_bytes`), or when
/// the portion is a singleton along it (nothing to step). The innermost
/// dim always fuses — both strides are `elem_size` there — so even a
/// partial row moves as one `copy_from_slice` instead of
/// element-by-element, and a full-extent chain keeps folding into whole
/// slabs.
fn plan_runs(src: &Region, dst: &Region, portion: &Region, elem_size: usize) -> RunPlan {
    let rank = portion.rank();
    let src_strides = byte_strides(src, elem_size);
    let dst_strides = byte_strides(dst, elem_size);
    let mut cut = rank;
    let mut run_bytes = elem_size;
    while cut > 0 {
        let d = cut - 1;
        if portion.extent(d) == 1 || (src_strides[d] == run_bytes && dst_strides[d] == run_bytes) {
            run_bytes *= portion.extent(d);
            cut -= 1;
        } else {
            break;
        }
    }
    RunPlan {
        cut,
        run_bytes,
        src_strides,
        dst_strides,
    }
}

/// One iterated dimension of a strided copy, after singleton dims are
/// compacted away.
struct IterDim {
    /// Portion extent along this dim.
    n: usize,
    /// Source byte stride.
    ss: usize,
    /// Destination byte stride.
    ds: usize,
}

/// Copy `n` runs of `N` bytes, striding `ss`/`ds` — the monomorphized
/// inner loop for element-sized runs. The array round-trip tells the
/// compiler the copy length is a constant, so each line is a couple of
/// register moves instead of a `memcpy` call.
#[inline]
fn copy_runs_fixed<const N: usize>(
    dst: &mut [u8],
    src: &[u8],
    mut doff: usize,
    mut so: usize,
    n: usize,
    ss: usize,
    ds: usize,
) {
    for _ in 0..n {
        let line: [u8; N] = src[so..so + N].try_into().expect("run within source");
        dst[doff..doff + N].copy_from_slice(&line);
        so += ss;
        doff += ds;
    }
}

/// Copy `n` runs of `run` bytes each from `src` at `so` to `dst` at
/// `doff`, advancing the offsets by `ss`/`ds` per run. Runs of the
/// common element sizes dispatch to a constant-size loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn copy_runs(
    dst: &mut [u8],
    src: &[u8],
    doff: usize,
    so: usize,
    run: usize,
    n: usize,
    ss: usize,
    ds: usize,
) {
    match run {
        1 => copy_runs_fixed::<1>(dst, src, doff, so, n, ss, ds),
        2 => copy_runs_fixed::<2>(dst, src, doff, so, n, ss, ds),
        4 => copy_runs_fixed::<4>(dst, src, doff, so, n, ss, ds),
        8 => copy_runs_fixed::<8>(dst, src, doff, so, n, ss, ds),
        16 => copy_runs_fixed::<16>(dst, src, doff, so, n, ss, ds),
        _ => {
            let (mut so, mut doff) = (so, doff);
            for _ in 0..n {
                dst[doff..doff + run].copy_from_slice(&src[so..so + run]);
                so += ss;
                doff += ds;
            }
        }
    }
}

/// Copy `portion` from a buffer holding `src_region` into a buffer
/// holding `dst_region`. `portion` must be contained in both regions; the
/// two buffers must be distinct allocations (enforced by `&`/`&mut`).
///
/// Returns the number of bytes moved.
pub fn copy_region(
    src: &[u8],
    src_region: &Region,
    dst: &mut [u8],
    dst_region: &Region,
    portion: &Region,
    elem_size: usize,
) -> Result<usize, SchemaError> {
    let rank = portion.rank();
    if src_region.rank() != rank || dst_region.rank() != rank {
        return Err(SchemaError::RegionRankMismatch {
            left: src_region.rank(),
            right: rank,
        });
    }
    if portion.is_empty() && rank > 0 {
        return Ok(0);
    }
    if !src_region.contains_region(portion) || !dst_region.contains_region(portion) {
        return Err(SchemaError::RegionNotContained);
    }
    check_buffer(src.len(), src_region, elem_size)?;
    check_buffer(dst.len(), dst_region, elem_size)?;

    if rank == 0 {
        dst[..elem_size].copy_from_slice(&src[..elem_size]);
        return Ok(elem_size);
    }

    let plan = plan_runs(src_region, dst_region, portion, elem_size);
    let moved = portion.num_bytes(elem_size);
    // Compact the iterated dims: singleton dims contribute nothing to
    // the odometer, so dropping them here keeps the loop nest as shallow
    // as the portion's true shape.
    let iter: Vec<IterDim> = (0..plan.cut)
        .filter(|&d| portion.extent(d) > 1)
        .map(|d| IterDim {
            n: portion.extent(d),
            ss: plan.src_strides[d],
            ds: plan.dst_strides[d],
        })
        .collect();
    let mut so = offset_in_region(src_region, portion.lo(), elem_size);
    let mut doff = offset_in_region(dst_region, portion.lo(), elem_size);
    let run = plan.run_bytes;

    // The innermost iterated dim drives a tight batched loop; the rest
    // form an odometer whose byte offsets mirror every index mutation
    // (add one stride on increment, rewind a whole extent on reset) so
    // each batch costs O(1) offset work instead of an O(rank)
    // re-linearization.
    let Some((inner, outer)) = iter.split_last() else {
        // Everything fused: the whole portion is one contiguous run.
        copy_runs(dst, src, doff, so, run, 1, 0, 0);
        return Ok(moved);
    };
    let mut ctr = vec![0usize; outer.len()];
    loop {
        copy_runs(dst, src, doff, so, run, inner.n, inner.ss, inner.ds);
        // Advance the outer odometer.
        let mut d = outer.len();
        loop {
            if d == 0 {
                return Ok(moved);
            }
            d -= 1;
            ctr[d] += 1;
            so += outer[d].ss;
            doff += outer[d].ds;
            if ctr[d] < outer[d].n {
                break;
            }
            ctr[d] = 0;
            so -= outer[d].ss * outer[d].n;
            doff -= outer[d].ds * outer[d].n;
        }
    }
}

/// Gather `sub` out of a buffer holding `src_region` into a fresh
/// contiguous buffer laid out for `sub` itself.
///
/// This is what a Panda client does when a server requests a sub-chunk
/// that is not contiguous in the client's memory (paper §2: "the client
/// is responsible for any reorganization required to assemble the
/// requested sub-chunk").
pub fn pack_region(
    src: &[u8],
    src_region: &Region,
    sub: &Region,
    elem_size: usize,
) -> Result<Vec<u8>, SchemaError> {
    let mut out = Vec::new();
    pack_region_into(&mut out, src, src_region, sub, elem_size)?;
    Ok(out)
}

/// [`pack_region`] into a caller-owned buffer, resized to exactly the
/// packed length. Reusing one scratch buffer across many packs turns the
/// per-piece allocation of the transfer hot paths into a no-op after the
/// first call. Whatever `out` held is overwritten, not cleared first:
/// the pack writes every byte of the packed length, so only growth
/// needs a fill.
pub fn pack_region_into(
    out: &mut Vec<u8>,
    src: &[u8],
    src_region: &Region,
    sub: &Region,
    elem_size: usize,
) -> Result<(), SchemaError> {
    out.resize(sub.num_bytes(elem_size), 0);
    copy_region(src, src_region, out, sub, sub, elem_size)?;
    Ok(())
}

/// Scatter a contiguous buffer laid out for `sub` into a buffer holding
/// `dst_region` (inverse of [`pack_region`]).
pub fn unpack_region(
    dst: &mut [u8],
    dst_region: &Region,
    sub: &Region,
    data: &[u8],
    elem_size: usize,
) -> Result<usize, SchemaError> {
    check_buffer(data.len(), sub, elem_size)?;
    copy_region(data, sub, dst, dst_region, sub, elem_size)
}

/// True iff `sub` occupies one contiguous byte range of a buffer laid out
/// for `enclosing` (i.e. the copy would be a single `memcpy`). Panda's
/// fast path: under natural chunking every exchanged sub-chunk is
/// contiguous on both sides.
pub fn is_contiguous_in(enclosing: &Region, sub: &Region) -> bool {
    let rank = sub.rank();
    if enclosing.rank() != rank {
        return false;
    }
    if sub.is_empty() && rank > 0 {
        return true;
    }
    // Contiguous iff: there is a cut c with sub spanning full extents for
    // d > c, arbitrary segment at d == c, and extent 1 for d < c.
    let mut c = rank;
    while c > 0 && sub.extent(c - 1) == enclosing.extent(c - 1) {
        c -= 1;
    }
    // dims before the (possibly partial) dim c-1 must be singletons
    let first_partial = c.saturating_sub(1);
    (0..first_partial).all(|d| sub.extent(d) == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn r(lo: &[usize], hi: &[usize]) -> Region {
        Region::new(lo, hi).unwrap()
    }

    /// Fill a region buffer so that the element at global index `idx`
    /// holds a value derived from `idx` (1 byte per element for clarity).
    fn fill_tagged(region: &Region) -> Vec<u8> {
        let shape = Shape::new(
            &(0..region.rank())
                .map(|d| region.extent(d))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut buf = vec![0u8; region.num_elements()];
        for (i, local) in shape.iter_indices().enumerate() {
            let global: Vec<usize> = local
                .iter()
                .zip(region.lo())
                .map(|(&l, &o)| l + o)
                .collect();
            // Tag = low byte of a positional hash of the global index.
            let tag: usize = global
                .iter()
                .enumerate()
                .map(|(d, &g)| g.wrapping_mul(31usize.wrapping_pow(d as u32 + 1)))
                .sum();
            buf[i] = (tag % 251) as u8 + 1;
        }
        debug_assert!(!buf.contains(&0));
        buf
    }

    fn byte_at(buf: &[u8], region: &Region, idx: &[usize]) -> u8 {
        buf[offset_in_region(region, idx, 1)]
    }

    #[test]
    fn offset_in_region_is_row_major() {
        let reg = r(&[2, 3], &[5, 7]); // 3x4
        assert_eq!(offset_in_region(&reg, &[2, 3], 1), 0);
        assert_eq!(offset_in_region(&reg, &[2, 4], 1), 1);
        assert_eq!(offset_in_region(&reg, &[3, 3], 1), 4);
        assert_eq!(offset_in_region(&reg, &[4, 6], 8), 8 * 11);
    }

    #[test]
    fn copy_region_moves_exactly_the_portion() {
        let src_reg = r(&[0, 0], &[6, 8]);
        let dst_reg = r(&[2, 2], &[8, 10]);
        let portion = r(&[2, 2], &[6, 8]);
        let src = fill_tagged(&src_reg);
        let mut dst = vec![0u8; dst_reg.num_elements()];
        let moved = copy_region(&src, &src_reg, &mut dst, &dst_reg, &portion, 1).unwrap();
        assert_eq!(moved, portion.num_elements());
        // Every index inside the portion carries the source tag ...
        for a in portion.lo()[0]..portion.hi()[0] {
            for b in portion.lo()[1]..portion.hi()[1] {
                assert_eq!(
                    byte_at(&dst, &dst_reg, &[a, b]),
                    byte_at(&src, &src_reg, &[a, b])
                );
            }
        }
        // ... and everything outside is untouched (still zero).
        let untouched = dst.iter().filter(|&&b| b == 0).count();
        assert_eq!(untouched, dst_reg.num_elements() - portion.num_elements());
    }

    #[test]
    fn copy_region_whole_region_is_single_memcpy_semantics() {
        let reg = r(&[4, 4], &[8, 8]);
        let src = fill_tagged(&reg);
        let mut dst = vec![0u8; reg.num_elements()];
        copy_region(&src, &reg, &mut dst, &reg, &reg, 1).unwrap();
        assert_eq!(src, dst);
    }

    #[test]
    fn copy_region_multibyte_elements() {
        let src_reg = r(&[0, 0], &[4, 4]);
        let dst_reg = r(&[0, 0], &[4, 4]);
        let portion = r(&[1, 1], &[3, 3]);
        // 4-byte elements tagged by linear position.
        let mut src = vec![0u8; src_reg.num_elements() * 4];
        for i in 0..src_reg.num_elements() {
            src[i * 4..i * 4 + 4].copy_from_slice(&(i as u32).to_le_bytes());
        }
        let mut dst = vec![0xffu8; dst_reg.num_elements() * 4];
        copy_region(&src, &src_reg, &mut dst, &dst_reg, &portion, 4).unwrap();
        for a in 1..3 {
            for b in 1..3 {
                let off = offset_in_region(&dst_reg, &[a, b], 4);
                let v = u32::from_le_bytes(dst[off..off + 4].try_into().unwrap());
                assert_eq!(v as usize, a * 4 + b);
            }
        }
    }

    #[test]
    fn copy_region_rejects_uncontained_portion() {
        let src_reg = r(&[0, 0], &[4, 4]);
        let dst_reg = r(&[0, 0], &[4, 4]);
        let portion = r(&[2, 2], &[6, 6]);
        let src = vec![0u8; 16];
        let mut dst = vec![0u8; 16];
        assert_eq!(
            copy_region(&src, &src_reg, &mut dst, &dst_reg, &portion, 1).unwrap_err(),
            SchemaError::RegionNotContained
        );
    }

    #[test]
    fn copy_region_rejects_short_buffers() {
        let reg = r(&[0, 0], &[4, 4]);
        let src = vec![0u8; 15];
        let mut dst = vec![0u8; 16];
        assert!(matches!(
            copy_region(&src, &reg, &mut dst, &reg, &reg, 1).unwrap_err(),
            SchemaError::BufferTooSmall { .. }
        ));
    }

    #[test]
    fn copy_region_empty_portion_is_noop() {
        let reg = r(&[0, 0], &[4, 4]);
        let src = vec![1u8; 16];
        let mut dst = vec![0u8; 16];
        let portion = r(&[2, 1], &[2, 3]);
        let moved = copy_region(&src, &reg, &mut dst, &reg, &portion, 1).unwrap();
        assert_eq!(moved, 0);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_region_rank0() {
        let reg = Region::new(&[], &[]).unwrap();
        let src = vec![7u8, 8];
        let mut dst = vec![0u8; 2];
        let moved = copy_region(&src, &reg, &mut dst, &reg, &reg, 2).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(dst, vec![7, 8]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let chunk = r(&[10, 20, 30], &[18, 28, 38]); // 8x8x8
        let sub = r(&[12, 22, 31], &[16, 27, 38]);
        let src = fill_tagged(&chunk);
        let packed = pack_region(&src, &chunk, &sub, 1).unwrap();
        assert_eq!(packed.len(), sub.num_elements());
        let mut dst = vec![0u8; chunk.num_elements()];
        unpack_region(&mut dst, &chunk, &sub, &packed, 1).unwrap();
        for a in sub.lo()[0]..sub.hi()[0] {
            for b in sub.lo()[1]..sub.hi()[1] {
                for c in sub.lo()[2]..sub.hi()[2] {
                    assert_eq!(
                        byte_at(&dst, &chunk, &[a, b, c]),
                        byte_at(&src, &chunk, &[a, b, c])
                    );
                }
            }
        }
    }

    #[test]
    fn pack_region_into_reused_scratch_matches_fresh_pack() {
        let chunk = r(&[0, 0], &[6, 8]);
        let src = fill_tagged(&chunk);
        // A dirty scratch longer than any pack below: nothing clears it,
        // so every byte that survives a pack would show.
        let mut scratch = vec![0xEEu8; 2 * chunk.num_elements()];
        // Shrinking, growing, and same-size repacks over one scratch
        // buffer must all equal a fresh pack (stale bytes overwritten).
        for sub in [
            r(&[1, 2], &[4, 5]),
            r(&[0, 0], &[6, 8]),
            r(&[5, 7], &[6, 8]),
            r(&[0, 0], &[6, 8]),
        ] {
            pack_region_into(&mut scratch, &src, &chunk, &sub, 1).unwrap();
            assert_eq!(scratch, pack_region(&src, &chunk, &sub, 1).unwrap());
        }
    }

    #[test]
    fn pack_full_width_portion_uses_slab_runs() {
        // Portion spans full extent in the trailing dim of both layouts:
        // result must still be correct (exercises the coalescing path).
        let chunk = r(&[0, 0], &[6, 5]);
        let sub = r(&[2, 0], &[5, 5]);
        let src = fill_tagged(&chunk);
        let packed = pack_region(&src, &chunk, &sub, 1).unwrap();
        // The packed buffer equals the corresponding slice of src, since
        // rows are contiguous and adjacent.
        let start = offset_in_region(&chunk, &[2, 0], 1);
        assert_eq!(&packed[..], &src[start..start + 15]);
    }

    #[test]
    fn is_contiguous_in_detects_fast_path() {
        let chunk = r(&[0, 0, 0], &[4, 6, 8]);
        // Full chunk → contiguous.
        assert!(is_contiguous_in(&chunk, &chunk));
        // A run of full planes → contiguous.
        assert!(is_contiguous_in(&chunk, &r(&[1, 0, 0], &[3, 6, 8])));
        // A run of full rows inside one plane → contiguous.
        assert!(is_contiguous_in(&chunk, &r(&[2, 1, 0], &[3, 4, 8])));
        // A segment of one row → contiguous.
        assert!(is_contiguous_in(&chunk, &r(&[2, 3, 2], &[3, 4, 7])));
        // A sub-box that is narrower than the row → NOT contiguous.
        assert!(!is_contiguous_in(&chunk, &r(&[0, 0, 0], &[4, 6, 4])));
        // Two partial rows → NOT contiguous.
        assert!(!is_contiguous_in(&chunk, &r(&[0, 0, 2], &[1, 2, 7])));
        // Empty region is trivially contiguous.
        assert!(is_contiguous_in(&chunk, &Region::empty(3)));
    }
}
