//! The COI buffer pool.
//!
//! The paper's §III: "The COI overheads are negligible when a pool of 2MB
//! buffers were used. When they were not enabled, as in the OmpSs case, the
//! COI allocation overheads were significant." What the pool amortises is
//! *registration*: freed windows wait in per-size-class free lists and are
//! reused. A window's capacity follows the bytes it holds — a 32 KiB tile
//! registers 32 KiB — and 2 MB is the class granule of large buffers, not a
//! floor under every buffer. Statistics let the overheads bench show the
//! with/without difference and the registered-over-data ratio.

use hs_fabric::proto::MAX_WINDOW;
use hs_fabric::{Fabric, NodeId, WindowId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Pool chunk granularity: allocations of 2 MB and more round up to a
/// multiple of it, so freed windows are reusable across requests of similar
/// size; smaller ones take a power-of-two class (see `class_of`).
pub const POOL_CHUNK: usize = 2 << 20;

/// Smallest size class: one page.
const MIN_CLASS: usize = 4 << 10;

/// An allocation on a remote node above [`MAX_WINDOW`], the per-window cap
/// its worker enforces on `Alloc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowTooLarge(pub usize);

impl std::fmt::Display for WindowTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window of {} bytes exceeds the {MAX_WINDOW} byte cap",
            self.0
        )
    }
}

/// A window obtained from (or bypassing) the pool.
#[derive(Clone, Copy, Debug)]
pub struct PooledWindow {
    id: WindowId,
    /// Rounded capacity (0 for unpooled windows — they free directly).
    class: usize,
}

impl PooledWindow {
    pub fn id(&self) -> WindowId {
        self.id
    }

    pub fn is_pooled(&self) -> bool {
        self.class != 0
    }
}

/// Counters for the overheads analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations satisfied from a free list (cheap path).
    pub hits: u64,
    /// Allocations that had to register fresh memory (expensive path).
    pub misses: u64,
    /// Allocations that bypassed the pool entirely.
    pub bypass: u64,
    /// Capacity, in bytes, currently registered with the fabric through the
    /// pool: windows handed out plus windows on free lists.
    pub registered_bytes: u64,
}

/// Per-engine buffer pool.
#[derive(Default)]
pub struct BufferPool {
    free: Mutex<HashMap<usize, Vec<WindowId>>>,
    stats: Mutex<PoolStats>,
}

impl BufferPool {
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Capacity of the pooled window that holds `len` bytes. Below
    /// [`POOL_CHUNK`]: the next power of two, one page at least — never 2x
    /// `len` or more above a page, and exact for power-of-two tiles. From
    /// `POOL_CHUNK` up: the next multiple of it.
    fn class_of(len: usize) -> usize {
        if len < POOL_CHUNK {
            len.next_power_of_two().max(MIN_CLASS)
        } else {
            len.div_ceil(POOL_CHUNK) * POOL_CHUNK
        }
    }

    /// Allocate a window of at least `len` bytes on `node`. With `pooled`,
    /// tries the free list of the rounded size class first.
    pub fn alloc(
        &self,
        fabric: &Fabric,
        node: NodeId,
        len: usize,
        pooled: bool,
    ) -> Result<PooledWindow, WindowTooLarge> {
        // What the worker would refuse is refused here, before anything is
        // registered or counted. (The cap is a multiple of the chunk: a
        // class exceeds it only if its length does.)
        if fabric.is_remote(node) && len as u64 > MAX_WINDOW {
            return Err(WindowTooLarge(len));
        }
        if !pooled {
            self.stats.lock().bypass += 1;
            return Ok(PooledWindow {
                id: fabric.register(node, len),
                class: 0,
            });
        }
        let class = Self::class_of(len);
        // Popped in its own statement: the free-list lock is not held while
        // the window is zeroed.
        let reused = self.free.lock().get_mut(&class).and_then(Vec::pop);
        if let Some(id) = reused {
            self.stats.lock().hits += 1;
            // Reused windows must look freshly allocated. `Fabric::zero`
            // reaches remote windows too (a plain `window()` lookup returns
            // `None` for those and would silently hand back stale bytes);
            // a dead remote fails here, which first use would surface anyway.
            let _ = fabric.zero(id);
            return Ok(PooledWindow { id, class });
        }
        {
            let mut stats = self.stats.lock();
            stats.misses += 1;
            stats.registered_bytes += class as u64;
        }
        Ok(PooledWindow {
            id: fabric.register(node, class),
            class,
        })
    }

    /// Return a window. Pooled windows go back on the free list; unpooled
    /// ones are unregistered immediately.
    pub fn free(&self, fabric: &Fabric, win: PooledWindow) {
        if win.is_pooled() {
            self.free.lock().entry(win.class).or_default().push(win.id);
        } else {
            fabric.unregister(win.id);
        }
    }

    /// Drop every free-listed window, unregistering each from the fabric.
    /// For a remote engine whose worker process restarted: the worker-side
    /// allocations died with the process, so reusing a free-listed id
    /// would hand out a window the new worker has never heard of.
    pub fn purge(&self, fabric: &Fabric) {
        let drained: Vec<(usize, Vec<WindowId>)> = self.free.lock().drain().collect();
        let mut bytes = 0;
        for (class, ids) in drained {
            bytes += (class * ids.len()) as u64;
            for id in ids {
                fabric.unregister(id);
            }
        }
        self.stats.lock().registered_bytes -= bytes;
    }

    pub fn stats(&self) -> PoolStats {
        *self.stats.lock()
    }

    /// Number of windows currently on free lists.
    #[cfg(test)]
    pub fn free_count(&self) -> usize {
        self.free.lock().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_fabric::Pacer;

    fn fabric() -> Fabric {
        Fabric::new(2, Pacer::unpaced())
    }

    fn alloc(p: &BufferPool, f: &Fabric, len: usize, pooled: bool) -> PooledWindow {
        p.alloc(f, NodeId(1), len, pooled).expect("under the cap")
    }

    #[test]
    fn size_classes_follow_the_data() {
        // Below the chunk: a page at least, never 2x the data or more above
        // a page, exact for power-of-two tiles.
        let mut lens = vec![0, 1, 8, 1000, 5000, 100_000, 1_000_000];
        for shift in 12..=21 {
            lens.extend([(1 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        for len in lens.into_iter().filter(|&len| len < POOL_CHUNK) {
            let cap = BufferPool::class_of(len);
            assert!(cap >= len && cap >= MIN_CLASS, "len {len} cap {cap}");
            assert!(cap < POOL_CHUNK || len > POOL_CHUNK / 2, "len {len}");
            if len > MIN_CLASS {
                assert!(cap < 2 * len, "len {len} cap {cap}");
            } else {
                assert_eq!(cap, MIN_CLASS, "len {len}");
            }
            if len.is_power_of_two() && len >= MIN_CLASS {
                assert_eq!(cap, len, "power-of-two tiles are exact");
            }
        }
        // From the chunk up: the next multiple of it, as ever.
        assert_eq!(BufferPool::class_of(POOL_CHUNK - 1), POOL_CHUNK);
        assert_eq!(BufferPool::class_of(POOL_CHUNK), POOL_CHUNK);
        assert_eq!(BufferPool::class_of(POOL_CHUNK + 1), 2 * POOL_CHUNK);
        assert_eq!(BufferPool::class_of(5 * POOL_CHUNK - 3), 5 * POOL_CHUNK);
        assert_eq!(BufferPool::class_of(5 * POOL_CHUNK), 5 * POOL_CHUNK);
    }

    #[test]
    fn pooled_alloc_reuses_freed_windows() {
        let f = fabric();
        let p = BufferPool::new();
        let a = alloc(&p, &f, 1000, true);
        let id = a.id();
        p.free(&f, a);
        assert_eq!(p.free_count(), 1);
        let b = alloc(&p, &f, 2000, true);
        assert_eq!(b.id(), id, "same size class reuses the window");
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.bypass), (1, 1, 0));
    }

    #[test]
    fn reused_windows_are_zeroed() {
        let f = fabric();
        let p = BufferPool::new();
        let a = alloc(&p, &f, 64, true);
        {
            let mem = f.window(a.id()).expect("window exists");
            mem.lock_range(0..64, true)
                .expect("in bounds")
                .as_mut_slice()
                .fill(9);
        }
        p.free(&f, a);
        let b = alloc(&p, &f, 64, true);
        let mem = f.window(b.id()).expect("window exists");
        let g = mem.lock_range(0..64, false).expect("in bounds");
        assert!(g.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn different_size_classes_do_not_share() {
        let f = fabric();
        let p = BufferPool::new();
        let a = alloc(&p, &f, POOL_CHUNK, true);
        p.free(&f, a);
        let b = alloc(&p, &f, POOL_CHUNK + 1, true);
        assert_eq!(p.stats().misses, 2, "bigger class cannot reuse smaller");
        p.free(&f, b);
        assert_eq!(p.free_count(), 2);
    }

    #[test]
    fn unpooled_alloc_bypasses_and_frees_immediately() {
        let f = fabric();
        let p = BufferPool::new();
        let a = alloc(&p, &f, 64, false);
        assert!(!a.is_pooled());
        let id = a.id();
        p.free(&f, a);
        assert!(
            f.window(id).is_none(),
            "unpooled windows unregister on free"
        );
        assert_eq!(p.free_count(), 0);
        assert_eq!(p.stats().bypass, 1);
    }

    /// Random mixed-size alloc/free sequences, shortest first (the proptest
    /// shim does not shrink, so the first failure is the smallest one).
    #[test]
    fn mixed_size_churn_keeps_the_pool_contract() {
        use proptest::test_runner::TestRng;
        const SIZES: [usize; 10] = [
            1,
            4 << 10,
            5000,
            32 << 10,
            100_000,
            128 << 10,
            POOL_CHUNK - 1,
            POOL_CHUNK,
            POOL_CHUNK + 1,
            3 * POOL_CHUNK - 5,
        ];
        let registered = |f: &Fabric, seen: &[(PooledWindow, usize)]| -> (usize, u64) {
            let on_fabric = seen.iter().filter(|(w, _)| f.win_len(w.id()).is_some());
            let (mut n, mut pooled_bytes) = (0, 0);
            for (w, cap) in on_fabric {
                n += 1;
                pooled_bytes += if w.is_pooled() { *cap as u64 } else { 0 };
            }
            (n, pooled_bytes)
        };
        let mut rng = TestRng::from_name("mixed_size_churn_keeps_the_pool_contract");
        for ops in (1..=40).flat_map(|n| [n; 3]) {
            let f = fabric();
            let p = BufferPool::new();
            let mut live: Vec<PooledWindow> = Vec::new();
            let mut seen: Vec<(PooledWindow, usize)> = Vec::new();
            let mut allocs = 0;
            for op in 0..ops {
                let what = format!("{ops} ops, op {op}");
                if live.is_empty() || rng.below(5) < 3 {
                    // The large classes are the slow ones to fill: rarer.
                    let among = if rng.below(4) == 0 { 10 } else { 6 };
                    let len = SIZES[rng.below(among) as usize];
                    let pooled = rng.below(6) != 0;
                    let w = alloc(&p, &f, len, pooled);
                    allocs += 1;
                    let mem = f.window(w.id()).expect("window exists");
                    let cap = mem.len();
                    let want = if pooled {
                        BufferPool::class_of(len)
                    } else {
                        len
                    };
                    assert_eq!(cap, want, "{what}: capacity for {len} bytes");
                    let mut g = mem.lock_range(0..cap, true).expect("in bounds");
                    assert!(
                        g.as_slice().iter().all(|&b| b == 0),
                        "{what}: a {cap}-byte window handed out dirty"
                    );
                    g.as_mut_slice().fill(0xAB);
                    if !seen.iter().any(|(s, _)| s.id() == w.id()) {
                        seen.push((w, cap));
                    }
                    live.push(w);
                } else {
                    let w = live.swap_remove(rng.below(live.len() as u64) as usize);
                    p.free(&f, w);
                }
                let s = p.stats();
                assert_eq!(s.hits + s.misses + s.bypass, allocs, "{what}");
                let (on_fabric, pooled_bytes) = registered(&f, &seen);
                assert_eq!(on_fabric, live.len() + p.free_count(), "{what}");
                assert_eq!(s.registered_bytes, pooled_bytes, "{what}");
            }
            p.purge(&f);
            assert_eq!(p.free_count(), 0);
            let (on_fabric, pooled_bytes) = registered(&f, &seen);
            assert_eq!(on_fabric, live.len(), "{ops} ops: purge leaves only live");
            assert_eq!(p.stats().registered_bytes, pooled_bytes, "{ops} ops");
            for w in live.drain(..) {
                p.free(&f, w);
            }
            p.purge(&f);
            assert_eq!(registered(&f, &seen), (0, 0), "{ops} ops: none left");
            assert_eq!(p.stats().registered_bytes, 0, "{ops} ops");
        }
    }
}
