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
/// `&'static str` literals in `lib.rs`) to plain fields. [`ApiStats::rows`]
/// folds them back in under their names. A `static`, so each hot name has
/// one address: the one [`hot_index`] compares against.
static HOT_APIS: [&str; 5] = [
    "enqueue_compute",
    "enqueue_xfer",
    "enqueue_marker",
    "enqueue_event_wait",
    "enqueue_many",
];

/// Counts of API invocations by name, and of accepted actions by kind.
/// Read only through [`ApiStats::rows`], which `HStreams::metrics` emits.
#[derive(Default)]
pub(crate) struct ApiStats {
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
/// string from elsewhere still matches via the fallback. The comparison is
/// of the whole `&str` (address and length): a prefix of a hot name starts
/// at the same address but is another name.
fn hot_index(api: &str) -> Option<usize> {
    HOT_APIS
        .iter()
        .position(|h| std::ptr::eq(*h, api) || *h == api)
}

impl ApiStats {
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

    /// Every count as a named row: accepted actions by kind
    /// (`actions.compute`, `actions.transfer`, `actions.sync`, and
    /// `actions.transfer_elided`, the host-as-target transfers aliased
    /// away), then API invocations in total (`api.calls`), the distinct
    /// entry points used (`api.unique`) and each one's calls
    /// (`api.<name>`, sorted by name).
    pub fn rows(&self) -> Vec<(String, u64)> {
        let counts = self.counts.read();
        let per_name: BTreeMap<String, u64> = counts
            .iter()
            .map(|(name, c)| (*name, c))
            .chain(HOT_APIS.into_iter().zip(&self.hot))
            .map(|(name, c)| (format!("api.{name}"), c.get()))
            .filter(|(_, n)| *n > 0)
            .collect();
        let totals = [
            ("actions.compute", self.actions_compute.get()),
            ("actions.transfer", self.actions_transfer.get()),
            ("actions.sync", self.actions_sync.get()),
            ("actions.transfer_elided", self.transfers_elided.get()),
            ("api.calls", per_name.values().sum()),
            ("api.unique", per_name.len() as u64),
        ];
        let totals = totals.map(|(row, n)| (row.to_string(), n));
        totals.into_iter().chain(per_name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(s: &ApiStats, name: &str) -> Option<u64> {
        s.rows()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    #[test]
    fn bump_and_count() {
        let s = ApiStats::default();
        s.bump("stream_create");
        s.bump("stream_create");
        s.bump("buffer_create");
        assert_eq!(row(&s, "api.stream_create"), Some(2));
        assert_eq!(row(&s, "api.unique"), Some(2));
        assert_eq!(row(&s, "api.calls"), Some(3));
    }

    #[test]
    fn action_counters() {
        let s = ApiStats::default();
        s.note_compute();
        s.note_transfer(false);
        s.note_transfer(true);
        s.note_sync();
        assert_eq!(row(&s, "actions.compute"), Some(1));
        assert_eq!(row(&s, "actions.transfer"), Some(2));
        assert_eq!(row(&s, "actions.transfer_elided"), Some(1));
        assert_eq!(row(&s, "actions.sync"), Some(1));
    }

    #[test]
    fn hot_apis_fold_into_map_views() {
        let s = ApiStats::default();
        s.bump("enqueue_compute");
        s.bump("enqueue_compute");
        s.bump("enqueue_many");
        s.bump("stream_create");
        assert_eq!(row(&s, "api.enqueue_compute"), Some(2));
        assert_eq!(row(&s, "api.enqueue_many"), Some(1));
        assert_eq!(row(&s, "api.stream_create"), Some(1));
        assert_eq!(row(&s, "api.calls"), Some(4));
        assert_eq!(row(&s, "api.unique"), Some(3));
        // A content-equal non-literal name still routes to the hot slot.
        let dynamic: &'static str = String::from("enqueue_compute").leak();
        s.bump(dynamic);
        assert_eq!(row(&s, "api.enqueue_compute"), Some(3));
        assert_eq!(row(&s, "api.unique"), Some(3));
    }

    #[test]
    fn a_prefix_of_a_hot_name_is_another_name() {
        // Starts at the address `hot_index` compares against, but is
        // "enqueue".
        let hot: &'static str = HOT_APIS[0];
        let prefix = &hot[.."enqueue".len()];
        let s = ApiStats::default();
        s.bump(prefix);
        assert_eq!(row(&s, "api.enqueue"), Some(1));
        assert_eq!(row(&s, "api.enqueue_compute"), None);
    }

    #[test]
    fn rows_sorted_by_name() {
        let s = ApiStats::default();
        s.bump("zz");
        s.bump("aa");
        let names: Vec<String> = s
            .rows()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("api.") && n != "api.calls" && n != "api.unique")
            .collect();
        assert_eq!(names, ["api.aa", "api.zz"]);
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
        let s = ApiStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.bump("enqueue_compute");
                    }
                });
            }
        });
        assert_eq!(row(&s, "api.enqueue_compute"), Some(4000));
    }
}
