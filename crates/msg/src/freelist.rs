//! The process-wide free-list of piece-sized buffers.
//!
//! Every hop of the data path needs a buffer as large as a piece or a
//! subchunk: the client packs into one, a TCP reader receives into one,
//! the server assembles and prefetches into one. Taken from the
//! allocator, each is an `mmap`, a page fault per 4 KiB on first touch
//! and a `munmap` a moment later. Here they are recycled instead.
//!
//! The list is one per *process*, not per node, because a buffer's life
//! crosses nodes: a client's packed piece ends on the server (as the
//! subchunk it writes), a server's prefetched subchunk ends on the
//! client (as the `Data` body it unpacks). Per-node pools drain on one
//! side and overflow on the other; one shared list does neither. It is
//! reached through free functions rather than a handle because the
//! parties that need it — the client loop, the server window, the disk
//! task, the socket reader threads — share no object to carry one.
//!
//! Small buffers (control messages, tiny pieces) never touch the list:
//! the allocator serves them from its thread caches without a fault.

use parking_lot::Mutex;

/// Buffers smaller than this are left to the allocator.
pub const PIECE_MIN_BYTES: usize = 64 * 1024;

/// Whether a transfer of `bytes` is small: below [`PIECE_MIN_BYTES`],
/// so no piece of it is worth a buffer of the list. The one size line a
/// collective is held to: a session write this small rides its request
/// whole, and a run this small on an I/O node, or a session collective
/// this small at its compute node, is over in microseconds, so its
/// threads poll its hand-offs for a bounded time before they park.
pub fn is_small(bytes: u64) -> bool {
    bytes < PIECE_MIN_BYTES as u64
}

/// Most bytes (of capacity) the list retains; a buffer given beyond it
/// is freed. Sixteen 1 MiB subchunks: what a small deployment at
/// `pipeline_depth` 2 keeps in motion — each of 2 I/O nodes holds up to
/// `depth` steps in its window and `depth` more at its disk task (a
/// write) or queued at its clients (a read, whose clients credit what
/// they unpack), and about as many pieces again are in flight to or
/// from the clients. What the list retains is resident memory the
/// process never returns, so this is deliberately not generous.
pub const MAX_RETAINED_BYTES: usize = 16 << 20;

struct FreeList {
    bufs: Vec<Vec<u8>>,
    /// Sum of the capacities in `bufs`.
    retained: usize,
}

static FREE: Mutex<FreeList> = Mutex::new(FreeList {
    bufs: Vec::new(),
    retained: 0,
});

/// A buffer of exactly `len` bytes whose contents are unspecified (the
/// caller overwrites all of it). Recycled when the list holds one that
/// fits without wasting half of itself; allocated otherwise.
pub fn take(len: usize) -> Vec<u8> {
    if len < PIECE_MIN_BYTES {
        return vec![0; len];
    }
    let recycled = {
        let mut free = FREE.lock();
        // Newest first: the buffer given last is the one still in cache.
        let fit = free
            .bufs
            .iter()
            .rposition(|b| len <= b.capacity() && b.capacity() / 2 < len);
        fit.map(|i| {
            let buf = free.bufs.swap_remove(i);
            free.retained -= buf.capacity();
            buf
        })
    };
    let mut buf = recycled.unwrap_or_else(|| Vec::with_capacity(len));
    // Only growth is filled; what a previous user left stays.
    buf.resize(len, 0);
    buf
}

/// Return a buffer for reuse. Its contents are irrelevant; its length is
/// kept, so the next [`take`] of up to that length fills nothing.
pub fn give(buf: Vec<u8>) {
    let cap = buf.capacity();
    if cap < PIECE_MIN_BYTES {
        return;
    }
    let mut free = FREE.lock();
    if free.retained + cap <= MAX_RETAINED_BYTES {
        free.retained += cap;
        free.bufs.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The list is shared with every other test of this binary (the TCP
    // tests move frames of up to 2 MB through it), so this test works in
    // a size class nothing else here uses and asserts only what holds
    // whatever else is taken and given meanwhile.
    const LEN: usize = 5 << 20;

    #[test]
    fn recycles_unfilled_within_a_size_class_and_a_byte_bound() {
        let mut buf = take(LEN);
        assert_eq!(buf.len(), LEN);
        buf.fill(0xA5);
        let ptr = buf.as_ptr();
        give(buf);
        // A slightly shorter request still fits, and nothing of what the
        // last user left is overwritten.
        let again = take(LEN - 64);
        assert_eq!(again.len(), LEN - 64);
        assert_eq!(again.as_ptr(), ptr, "the buffer was not recycled");
        assert!(again.iter().all(|&b| b == 0xA5), "recycling refilled");
        // A request of half the capacity or less leaves it alone.
        give(again);
        let half = take(LEN / 2);
        assert_ne!(half.as_ptr(), ptr);
        // The bound holds however much is given: the surplus is freed.
        for _ in 0..=MAX_RETAINED_BYTES / LEN {
            give(Vec::with_capacity(LEN));
        }
        assert!(FREE.lock().retained <= MAX_RETAINED_BYTES);
        let kept = |free: &FreeList| free.bufs.iter().filter(|b| b.capacity() >= LEN).count();
        assert!(kept(&FREE.lock()) <= MAX_RETAINED_BYTES / LEN);
        while kept(&FREE.lock()) > 0 {
            take(LEN);
        }

        // Small buffers never reach the list.
        assert_eq!(take(PIECE_MIN_BYTES - 1).len(), PIECE_MIN_BYTES - 1);
        give(Vec::with_capacity(PIECE_MIN_BYTES - 1));
        let free = FREE.lock();
        assert!(free.bufs.iter().all(|b| b.capacity() >= PIECE_MIN_BYTES));
        assert_eq!(
            free.retained,
            free.bufs.iter().map(Vec::capacity).sum::<usize>()
        );
    }
}
