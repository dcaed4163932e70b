//! Frame and bitstream-buffer pools for the zero-copy hot path.
//!
//! Steady-state encode/decode/serve traffic must not touch the heap per
//! frame (ROADMAP item 1). These pools recycle the two storage shapes
//! the hot path consumes — whole [`Frame`]s and `Vec<u8>` bitstream
//! buffers — through mutex-guarded free lists:
//!
//! * [`BufferPool`] buckets byte buffers by power-of-two capacity
//!   class, so an encoder asking for a ~20 KiB packet buffer and a
//!   loader asking for a 1.5 MiB I420 frame never thrash each other's
//!   storage.
//! * [`FramePool`] keeps per-resolution free lists (sharded by a hash
//!   of the geometry), so mixed-resolution fleets reuse frames of the
//!   right size instead of reallocating.
//!
//! Ownership rules: `take` transfers ownership to the caller; storage
//! comes back through an explicit `put`. Returned buffers keep their
//! capacity but lose their contents: a pooled `Vec<u8>` comes back
//! cleared (length zero) and a pooled `Frame` comes back with *stale
//! pixels* — every consumer must fully overwrite it (all the in-tree
//! users do: frame copies, crops, edge replication and reconstruction
//! write every sample, which is also what keeps pooled paths
//! bit-identical to the allocating ones).
//!
//! Sizing policy: free lists are bounded (32 entries per bucket/bin);
//! beyond that, returns fall through to the real allocator so a burst
//! cannot permanently pin memory. Buffers below 64 bytes are not worth
//! pooling and are dropped.

use crate::Frame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest pooled capacity class, as a power of two (2^6 = 64 bytes).
const MIN_CLASS: u32 = 6;
/// Number of capacity classes (2^6 ..= 2^28, i.e. 64 B to 256 MiB).
const NUM_CLASSES: usize = 23;
/// Free-list bound per capacity class / per resolution bin.
const MAX_FREE: usize = 32;

/// A point-in-time snapshot of a pool's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served.
    pub takes: u64,
    /// `take` calls satisfied from a free list (no heap allocation).
    pub hits: u64,
    /// `take` calls that fell through to the allocator.
    pub misses: u64,
    /// Storage returned to a free list.
    pub returns: u64,
    /// Returns dropped because the free list was full (or the buffer
    /// was too small to pool).
    pub dropped: u64,
}

impl PoolStats {
    /// The traffic between an `earlier` snapshot and this one — how a
    /// benchmark isolates its own pool usage from whatever warmed the
    /// global pools before it started.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            takes: self.takes.saturating_sub(earlier.takes),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            returns: self.returns.saturating_sub(earlier.returns),
            dropped: self.dropped.saturating_sub(earlier.dropped),
        }
    }

    /// Fraction of `take` calls served without touching the allocator
    /// (1.0 when there was no traffic — nothing missed).
    pub fn hit_rate(&self) -> f64 {
        if self.takes == 0 {
            1.0
        } else {
            self.hits as f64 / self.takes as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    takes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    dropped: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            takes: self.takes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// A pool of `Vec<u8>` bitstream/sample buffers, bucketed by
/// power-of-two capacity class.
pub struct BufferPool {
    buckets: Vec<Mutex<Vec<Vec<u8>>>>,
    counters: Counters,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool {
            buckets: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Counters::default(),
        }
    }

    /// The process-wide pool used by the codecs, sessions and serve
    /// layer.
    pub fn global() -> &'static BufferPool {
        static POOL: OnceLock<BufferPool> = OnceLock::new();
        POOL.get_or_init(BufferPool::new)
    }

    fn class_of(capacity: usize) -> usize {
        let c = capacity.max(1).ilog2().saturating_sub(MIN_CLASS) as usize;
        c.min(NUM_CLASSES - 1)
    }

    /// Takes a cleared buffer with at least `min_capacity` bytes of
    /// capacity, reusing a pooled one when available.
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        bump(&self.counters.takes);
        let want = min_capacity.max(64).next_power_of_two();
        let k0 = Self::class_of(want);
        // A buffer in class k has capacity >= 2^(k+MIN_CLASS) >= want;
        // also scan two classes up so slightly-grown returns get reused.
        for k in k0..(k0 + 3).min(NUM_CLASSES) {
            let popped = lock(&self.buckets[k]).pop();
            if let Some(v) = popped {
                if v.capacity() >= min_capacity {
                    bump(&self.counters.hits);
                    debug_assert!(v.is_empty());
                    return v;
                }
                // Undersized stray (clamped top class): put it back.
                lock(&self.buckets[k]).push(v);
                break;
            }
        }
        bump(&self.counters.misses);
        Vec::with_capacity(want)
    }

    /// Returns a buffer to the pool. The contents are discarded; the
    /// capacity is kept for reuse.
    pub fn put(&self, mut v: Vec<u8>) {
        if v.capacity() < 64 {
            bump(&self.counters.dropped);
            return;
        }
        v.clear();
        let k = Self::class_of(v.capacity());
        let mut bucket = lock(&self.buckets[k]);
        if bucket.len() < MAX_FREE {
            bucket.push(v);
            drop(bucket);
            bump(&self.counters.returns);
        } else {
            drop(bucket);
            bump(&self.counters.dropped);
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Buffers currently sitting in the free lists.
    pub fn free_buffers(&self) -> usize {
        self.buckets.iter().map(|b| lock(b).len()).sum()
    }
}

/// Number of independent free-list shards in a [`FramePool`].
const FRAME_SHARDS: usize = 8;

struct FrameBin {
    width: usize,
    height: usize,
    frames: Vec<Frame>,
}

/// A pool of [`Frame`]s, free-listed per resolution.
pub struct FramePool {
    shards: Vec<Mutex<Vec<FrameBin>>>,
    counters: Counters,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new()
    }
}

impl FramePool {
    /// An empty pool.
    pub fn new() -> FramePool {
        FramePool {
            shards: (0..FRAME_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Counters::default(),
        }
    }

    /// The process-wide pool used by the codecs, sessions and serve
    /// layer.
    pub fn global() -> &'static FramePool {
        static POOL: OnceLock<FramePool> = OnceLock::new();
        POOL.get_or_init(FramePool::new)
    }

    fn shard_of(width: usize, height: usize) -> usize {
        (width.wrapping_mul(31).wrapping_add(height)) % FRAME_SHARDS
    }

    /// Takes a `width`×`height` frame. A recycled frame carries **stale
    /// pixel data** — the caller must overwrite every sample before the
    /// contents are observable.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero or odd (as [`Frame::new`]).
    pub fn take(&self, width: usize, height: usize) -> Frame {
        bump(&self.counters.takes);
        {
            let mut shard = lock(&self.shards[Self::shard_of(width, height)]);
            if let Some(bin) = shard
                .iter_mut()
                .find(|b| b.width == width && b.height == height)
            {
                if let Some(f) = bin.frames.pop() {
                    bump(&self.counters.hits);
                    return f;
                }
            }
        }
        bump(&self.counters.misses);
        Frame::new(width, height)
    }

    /// Returns a frame to its resolution's free list.
    pub fn put(&self, frame: Frame) {
        let (w, h) = (frame.width(), frame.height());
        let mut shard = lock(&self.shards[Self::shard_of(w, h)]);
        let bin = match shard.iter_mut().find(|b| b.width == w && b.height == h) {
            Some(bin) => bin,
            None => {
                shard.push(FrameBin {
                    width: w,
                    height: h,
                    frames: Vec::new(),
                });
                shard.last_mut().expect("bin just pushed")
            }
        };
        if bin.frames.len() < MAX_FREE {
            bin.frames.push(frame);
            drop(shard);
            bump(&self.counters.returns);
        } else {
            drop(shard);
            bump(&self.counters.dropped);
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Frames currently sitting in the free lists.
    pub fn free_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).iter().map(|b| b.frames.len()).sum::<usize>())
            .sum()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip_reuses_the_same_allocation() {
        let pool = BufferPool::new();
        let mut v = pool.take(1000);
        assert!(v.capacity() >= 1000);
        v.extend_from_slice(&[1, 2, 3]);
        let ptr = v.as_ptr();
        pool.put(v);
        let v2 = pool.take(900);
        assert_eq!(v2.as_ptr(), ptr, "same-class take must reuse storage");
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        let s = pool.stats();
        assert_eq!((s.takes, s.hits, s.misses, s.returns), (2, 1, 1, 1));
    }

    #[test]
    fn buffer_classes_do_not_thrash_each_other() {
        let pool = BufferPool::new();
        let small = pool.take(100);
        let big = pool.take(1 << 20);
        pool.put(small);
        pool.put(big);
        // A large request must not consume the small buffer.
        let v = pool.take(1 << 20);
        assert!(v.capacity() >= 1 << 20);
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn tiny_buffers_are_not_pooled() {
        let pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn buffer_free_lists_are_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_FREE + 10) {
            pool.put(Vec::with_capacity(128));
        }
        assert_eq!(pool.free_buffers(), MAX_FREE);
        assert_eq!(pool.stats().dropped, 10);
    }

    #[test]
    fn frame_roundtrip_reuses_the_same_allocation() {
        let pool = FramePool::new();
        let mut f = pool.take(32, 16);
        f.y_mut().fill(7);
        let ptr = f.y().data().as_ptr();
        pool.put(f);
        let f2 = pool.take(32, 16);
        assert_eq!(
            f2.y().data().as_ptr(),
            ptr,
            "same-geometry take must reuse storage"
        );
        let s = pool.stats();
        assert_eq!((s.takes, s.hits, s.misses, s.returns), (2, 1, 1, 1));
    }

    #[test]
    fn mixed_resolutions_get_separate_bins() {
        let pool = FramePool::new();
        pool.put(Frame::new(32, 16));
        pool.put(Frame::new(64, 48));
        let f = pool.take(64, 48);
        assert_eq!((f.width(), f.height()), (64, 48));
        assert_eq!(pool.free_frames(), 1);
        let f2 = pool.take(32, 16);
        assert_eq!((f2.width(), f2.height()), (32, 16));
        assert_eq!(pool.stats().hits, 2);
    }
}
