//! API-call statistics.
//!
//! The paper's Fig. 3 coding comparison counts "unique APIs" and "total APIs
//! used" per programming model. Instrumenting the runtime lets the
//! `fig3_coding` bench *measure* those counts for our implementations
//! instead of transcribing them.
//!
//! All counters use interior mutability so the concurrent front-end can
//! bump them through `&self`: the per-name map is a read-mostly
//! `RwLock<BTreeMap>` of sharded counters (a write lock is taken only the
//! first time a given API name appears), and every counter on the enqueue
//! hot path is a [`ShardedU64`] — per-thread-striped cache-padded cells
//! folded on read — so N source threads don't bounce one counter line per
//! action.

use crate::sync::{AtomicU64, AtomicUsize, Ordering, RwLock};
use crossbeam::utils::CachePadded;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Cells per sharded counter. Eight covers the source-thread counts the
/// bench drives; beyond that threads share cells round-robin, which only
/// costs contention, never correctness.
const COUNTER_SHARDS: usize = 8;

/// The cell this thread's increments land in: assigned round-robin on
/// first use, so concurrently-spawned source threads spread across cells.
fn my_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            s.set(i);
        }
        i
    })
}

/// A monotone counter striped across cache-padded cells: `add` hits only
/// this thread's cell, `get` folds all of them. Write-mostly by design —
/// reads (metrics snapshots, bench rows) are rare and may observe a
/// mid-flight mix of cells, which is fine for monotone counts.
#[derive(Default)]
pub struct ShardedU64 {
    cells: [CachePadded<AtomicU64>; COUNTER_SHARDS],
}

impl ShardedU64 {
    pub const fn new() -> ShardedU64 {
        ShardedU64 {
            cells: [const { CachePadded::new(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    pub fn add(&self, n: u64) {
        self.cells[my_shard()].fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Hot-path API names with dedicated counters: the per-action enqueue
/// entry points must not pay the name map's read-lock + tree lookup, so
/// [`ApiStats::bump`] routes these (by pointer — they are interned
/// `&'static str` literals in `lib.rs`) to plain fields. The map-based
/// views fold them back in under their names.
pub const HOT_APIS: [&str; 5] = [
    "enqueue_compute",
    "enqueue_xfer",
    "enqueue_marker",
    "enqueue_event_wait",
    "enqueue_many",
];

/// Counts of API invocations by name.
#[derive(Default)]
pub struct ApiStats {
    counts: RwLock<BTreeMap<&'static str, ShardedU64>>,
    /// One counter per [`HOT_APIS`] entry, index-aligned.
    hot: [ShardedU64; HOT_APIS.len()],
    actions_compute: ShardedU64,
    actions_transfer: ShardedU64,
    actions_sync: ShardedU64,
    transfers_elided: ShardedU64,
}

/// The hot slot for an API name, if it has one. Pointer comparison first:
/// call sites pass the same literals `HOT_APIS` holds, so the common case
/// is a few pointer equality checks with no byte scan; a content-equal
/// string from elsewhere still matches via the fallback.
fn hot_index(api: &str) -> Option<usize> {
    HOT_APIS
        .iter()
        .position(|h| std::ptr::eq(h.as_ptr(), api.as_ptr()) || *h == api)
}

impl ApiStats {
    pub fn new() -> ApiStats {
        ApiStats::default()
    }

    pub fn bump(&self, api: &'static str) {
        if let Some(i) = hot_index(api) {
            self.hot[i].incr();
            return;
        }
        if let Some(c) = self.counts.read().get(api) {
            c.incr();
            return;
        }
        self.counts.write().entry(api).or_default().incr();
    }

    pub fn note_compute(&self) {
        self.actions_compute.incr();
    }

    pub fn note_transfer(&self, elided: bool) {
        self.actions_transfer.incr();
        if elided {
            self.transfers_elided.incr();
        }
    }

    pub fn note_sync(&self) {
        self.actions_sync.incr();
    }

    /// Distinct API entry points used.
    pub fn unique_apis(&self) -> usize {
        self.counts.read().len() + self.hot.iter().filter(|c| c.get() > 0).count()
    }

    /// Total API invocations.
    pub fn total_calls(&self) -> u64 {
        self.counts.read().values().map(|v| v.get()).sum::<u64>()
            + self.hot.iter().map(|c| c.get()).sum::<u64>()
    }

    pub fn count(&self, api: &str) -> u64 {
        if let Some(i) = hot_index(api) {
            return self.hot[i].get();
        }
        self.counts.read().get(api).map(|v| v.get()).unwrap_or(0)
    }

    pub fn computes(&self) -> u64 {
        self.actions_compute.get()
    }

    pub fn transfers(&self) -> u64 {
        self.actions_transfer.get()
    }

    pub fn syncs(&self) -> u64 {
        self.actions_sync.get()
    }

    /// Host-as-target transfers that were aliased away.
    pub fn transfers_elided(&self) -> u64 {
        self.transfers_elided.get()
    }

    /// (name, count) rows, sorted by name.
    #[cfg(test)]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut merged: BTreeMap<&'static str, u64> = self
            .counts
            .read()
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect();
        for (name, c) in HOT_APIS.iter().zip(&self.hot) {
            let n = c.get();
            if n > 0 {
                *merged.entry(name).or_insert(0) += n;
            }
        }
        merged.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_count() {
        let s = ApiStats::new();
        s.bump("stream_create");
        s.bump("stream_create");
        s.bump("buffer_create");
        assert_eq!(s.count("stream_create"), 2);
        assert_eq!(s.unique_apis(), 2);
        assert_eq!(s.total_calls(), 3);
    }

    #[test]
    fn action_counters() {
        let s = ApiStats::new();
        s.note_compute();
        s.note_transfer(false);
        s.note_transfer(true);
        s.note_sync();
        assert_eq!(s.computes(), 1);
        assert_eq!(s.transfers(), 2);
        assert_eq!(s.transfers_elided(), 1);
        assert_eq!(s.syncs(), 1);
    }

    #[test]
    fn hot_apis_fold_into_map_views() {
        let s = ApiStats::new();
        s.bump("enqueue_compute");
        s.bump("enqueue_compute");
        s.bump("enqueue_many");
        s.bump("stream_create");
        assert_eq!(s.count("enqueue_compute"), 2);
        assert_eq!(s.count("enqueue_many"), 1);
        assert_eq!(s.total_calls(), 4);
        assert_eq!(s.unique_apis(), 3);
        let rows = s.rows();
        assert!(rows.contains(&("enqueue_compute", 2)));
        assert!(rows.contains(&("stream_create", 1)));
        // A content-equal non-literal name still routes to the hot slot.
        let dynamic = String::from("enqueue_compute");
        assert_eq!(s.count(&dynamic), 2);
    }

    #[test]
    fn rows_sorted_by_name() {
        let s = ApiStats::new();
        s.bump("zz");
        s.bump("aa");
        let rows = s.rows();
        assert_eq!(rows[0].0, "aa");
        assert_eq!(rows[1].0, "zz");
    }

    #[test]
    fn sharded_counter_folds_across_thread_stripes() {
        let c = ShardedU64::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                    c.add(5);
                });
            }
        });
        assert_eq!(c.get(), 8 * 1005);
    }

    #[test]
    fn bump_through_shared_refs_across_threads() {
        let s = ApiStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.bump("enqueue_compute");
                    }
                });
            }
        });
        assert_eq!(s.count("enqueue_compute"), 4000);
    }
}
