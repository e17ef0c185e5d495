//! # hs-obs — action-lifecycle observability
//!
//! The paper's whole value proposition is *visible* concurrency: Fig. 6/7
//! are timelines of computes and transfers overlapping across streams. This
//! crate records exactly that — one lifecycle record per enqueued action
//! (enqueue → deps-resolved → dispatch → sink start → complete) — and
//! exports them as Chrome `chrome://tracing` JSON ([`chrome`]). It keeps no
//! counter: every number a run reports is read from the component that
//! owns it, into a flat [`MetricsSnapshot`] for `BENCH_*.json`. Which
//! action held which sink when is one fold of the records ([`spans`]): the
//! Chrome export draws it, and overlap ([`overlap_ns`]) and Gantt charts
//! are read from it. The `Enqueued` record's [`ActionMeta`] also carries
//! the action's event id, ordering kind, footprint and waits, so one
//! drained slice of records is what `hsan` folds into the trace it checks
//! as well. The reader that validates the Chrome export ([`json`]) is the
//! workspace's JSON reader.
//!
//! Design constraints:
//!
//! * **Always-on, near-zero cost when disabled.** Every instrumentation
//!   point goes through an [`ObsHub`] whose enabled flag is a single
//!   relaxed atomic load; when disabled, no allocation, no lock, no
//!   timestamp is taken, and per-action handles are a `None`.
//! * **Executor-agnostic timestamps.** The hub stores plain `u64`
//!   nanoseconds: wall-clock ns since [`ObsHub::enable`] in real mode,
//!   virtual ns in sim mode. The exporters never care which.
//! * **No upward dependencies.** The crate sits below `hs-coi`/`hs-fabric`
//!   in the graph so every runtime layer can emit into the same hub.

pub mod chrome;
pub mod json;
mod trace;

pub use trace::{overlap_ns, spans, Row, Span};

use hs_chaos::FailureCause;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What kind of action a record describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsKind {
    Compute,
    Transfer,
    /// Synchronization / bookkeeping (event waits, markers).
    Sync,
}

impl ObsKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ObsKind::Compute => "compute",
            ObsKind::Transfer => "transfer",
            ObsKind::Sync => "sync",
        }
    }
}

/// Lifecycle phases after enqueue. `Completed`/`Failed` are terminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsPhase {
    /// The last dependence completed; the action became runnable.
    DepsResolved,
    /// Handed to its sink resource (pipeline queue / DMA channel / server).
    Dispatched,
    /// The sink actually started executing it.
    SinkStart,
    /// A transient fault failed the current attempt and a retry was
    /// scheduled (the accompanying [`ObsRecord::Retry`] carries the attempt
    /// counter and backoff).
    RetryScheduled,
    Completed,
    Failed,
}

/// How an action participates in its stream's ordering (`hstreams-core`
/// re-exports it as `hstreams_core::ActionKind`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionKind {
    /// Ordinary compute/transfer: ordered by operand overlap.
    Normal,
    /// An event-wait: later actions in the stream order after it; it does
    /// NOT order against prior stream actions (its only dependences are the
    /// awaited events) — hStreams' non-serializing cross-stream sync.
    EventWait,
    /// A marker/barrier: orders against every prior action AND gates every
    /// later one (CUDA's `cudaEventRecord` semantics; stream-wide fences).
    Marker,
}

/// One memory operand of an action, as the dependence analysis saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsAccess {
    pub domain: usize,
    pub buffer: u64,
    pub range: Range<usize>,
    pub write: bool,
}

/// Static description of an action, captured at enqueue: what the Chrome
/// export draws and everything `hsan` checks.
#[derive(Clone, Debug)]
pub struct ActionMeta {
    /// Dense stream index the action was enqueued into.
    pub stream: u32,
    /// The runtime event the action produces. A card-loss replay re-runs
    /// an action behind its original event, as a lifecycle of its own.
    pub event: u64,
    pub kind: ObsKind,
    pub order: ActionKind,
    /// Card domain index for non-elided transfers (None = host-aliased or
    /// not a transfer).
    pub card: Option<u32>,
    /// Transfer direction (meaningful for transfers only).
    pub h2d: bool,
    /// Payload bytes (transfer size, or summed operand bytes for computes).
    pub bytes: u64,
    /// The operands the dependence analysis saw.
    pub footprint: Vec<ObsAccess>,
    /// The events an event-wait names (empty for every other action).
    pub waits: Vec<u64>,
    pub label: String,
}

/// One observability record. `Enqueued` carries the action's metadata;
/// later phases reference it by id.
#[derive(Clone, Debug)]
pub enum ObsRecord {
    Enqueued {
        action: u64,
        t_ns: u64,
        meta: ActionMeta,
    },
    Phase {
        action: u64,
        phase: ObsPhase,
        t_ns: u64,
    },
    /// A transient fault was absorbed and retry number `attempt` (1-based)
    /// scheduled after `backoff_us`.
    Retry {
        action: u64,
        attempt: u32,
        backoff_us: u64,
        t_ns: u64,
    },
    /// Terminal failure with its structured cause and the number of
    /// attempts that were made.
    Failure {
        action: u64,
        cause: FailureCause,
        attempts: u32,
        t_ns: u64,
    },
    /// A card domain was lost and the runtime degraded onto the host.
    Degraded {
        card: u32,
        streams_remapped: u32,
        buffers_dropped: u32,
        actions_replayed: u32,
        t_ns: u64,
    },
}

struct Inner {
    enabled: AtomicBool,
    /// Wall-clock origin, stamped on first enable (real mode timestamps).
    t0: OnceLock<Instant>,
    next_action: AtomicU64,
    records: Mutex<Vec<ObsRecord>>,
}

/// The shared lifecycle-record hub. Clones share state; one hub per runtime.
#[derive(Clone)]
pub struct ObsHub {
    inner: Arc<Inner>,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// A new hub, disabled (all instrumentation no-ops).
    pub fn new() -> ObsHub {
        ObsHub {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                t0: OnceLock::new(),
                next_action: AtomicU64::new(0),
                records: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Turn recording on/off. The wall-clock origin for
    /// [`ObsHub::wall_ns`] is stamped at the first enable.
    pub fn enable(&self, on: bool) {
        if on {
            let _ = self.inner.t0.set(Instant::now());
        }
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds since the first enable (0 before it).
    pub fn wall_ns(&self) -> u64 {
        match self.inner.t0.get() {
            Some(t0) => t0.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record an enqueue and mint the action's lifecycle handle. When the
    /// hub is disabled this allocates nothing and returns an inert handle.
    pub fn action(&self, meta: ActionMeta, t_ns: u64) -> ObsAction {
        if !self.is_enabled() {
            return ObsAction::disabled();
        }
        let action = self.inner.next_action.fetch_add(1, Ordering::Relaxed);
        self.inner
            .records
            .lock()
            .push(ObsRecord::Enqueued { action, t_ns, meta });
        ObsAction {
            hub: Some(self.clone()),
            id: action,
        }
    }

    fn phase(&self, action: u64, phase: ObsPhase, t_ns: u64) {
        self.inner.records.lock().push(ObsRecord::Phase {
            action,
            phase,
            t_ns,
        });
    }

    /// Record a degradation event: `card` was lost, its streams were
    /// remapped to the host, and lost work was replayed. No-op when
    /// disabled (the chaos log still captures it).
    pub fn degraded(
        &self,
        card: u32,
        streams_remapped: u32,
        buffers_dropped: u32,
        actions_replayed: u32,
        t_ns: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.inner.records.lock().push(ObsRecord::Degraded {
            card,
            streams_remapped,
            buffers_dropped,
            actions_replayed,
            t_ns,
        });
    }

    /// Drain all lifecycle records collected so far.
    pub fn take_records(&self) -> Vec<ObsRecord> {
        std::mem::take(&mut *self.inner.records.lock())
    }
}

/// Per-action lifecycle handle, cheap to clone and inert when the hub was
/// disabled at enqueue time.
#[derive(Clone, Default)]
pub struct ObsAction {
    hub: Option<ObsHub>,
    id: u64,
}

impl ObsAction {
    /// An inert handle: every method is a no-op.
    pub fn disabled() -> ObsAction {
        ObsAction::default()
    }

    /// Record a lifecycle phase at an explicit timestamp (virtual time).
    pub fn phase(&self, phase: ObsPhase, t_ns: u64) {
        if let Some(hub) = &self.hub {
            hub.phase(self.id, phase, t_ns);
        }
    }

    /// Record a lifecycle phase stamped with the hub's wall clock.
    pub fn phase_wall(&self, phase: ObsPhase) {
        if let Some(hub) = &self.hub {
            hub.phase(self.id, phase, hub.wall_ns());
        }
    }

    /// Record the terminal phase at an explicit timestamp.
    pub fn finish(&self, ok: bool, t_ns: u64) {
        let phase = if ok {
            ObsPhase::Completed
        } else {
            ObsPhase::Failed
        };
        self.phase(phase, t_ns);
    }

    /// Record the terminal phase stamped with the hub's wall clock.
    pub fn finish_wall(&self, ok: bool) {
        if let Some(hub) = &self.hub {
            let phase = if ok {
                ObsPhase::Completed
            } else {
                ObsPhase::Failed
            };
            hub.phase(self.id, phase, hub.wall_ns());
        }
    }

    /// Record a scheduled retry: attempt `attempt` (1-based retry counter)
    /// will run after `backoff_us`. Stamps a `RetryScheduled` phase plus a
    /// [`ObsRecord::Retry`] carrying the counter.
    pub fn retry(&self, attempt: u32, backoff_us: u64, t_ns: u64) {
        if let Some(hub) = &self.hub {
            let mut records = hub.inner.records.lock();
            records.push(ObsRecord::Phase {
                action: self.id,
                phase: ObsPhase::RetryScheduled,
                t_ns,
            });
            records.push(ObsRecord::Retry {
                action: self.id,
                attempt,
                backoff_us,
                t_ns,
            });
        }
    }

    /// Like [`Self::retry`], stamped with the hub's wall clock.
    pub fn retry_wall(&self, attempt: u32, backoff_us: u64) {
        if let Some(hub) = &self.hub {
            self.retry(attempt, backoff_us, hub.wall_ns());
        }
    }

    /// Record terminal failure with its structured cause (in addition to
    /// the `Failed` phase).
    pub fn fail_cause(&self, cause: &FailureCause, attempts: u32, t_ns: u64) {
        if let Some(hub) = &self.hub {
            let mut records = hub.inner.records.lock();
            records.push(ObsRecord::Phase {
                action: self.id,
                phase: ObsPhase::Failed,
                t_ns,
            });
            records.push(ObsRecord::Failure {
                action: self.id,
                cause: cause.clone(),
                attempts,
                t_ns,
            });
        }
    }

    /// Like [`Self::fail_cause`], stamped with the hub's wall clock.
    pub fn fail_cause_wall(&self, cause: &FailureCause, attempts: u32) {
        if let Some(hub) = &self.hub {
            self.fail_cause(cause, attempts, hub.wall_ns());
        }
    }
}

/// A flat snapshot of the numbers a runtime reports, each read from the
/// layer that owns it, for merging into bench JSON artifacts.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Each value by its row name.
    pub extra: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Flatten to `(column, value)` rows, sorted by column name.
    pub fn rows(&self) -> Vec<(String, f64)> {
        self.extra.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// An action description for unit tests of the record readers.
#[cfg(test)]
pub(crate) fn test_meta(
    kind: ObsKind,
    stream: u32,
    card: Option<u32>,
    h2d: bool,
    label: &str,
) -> ActionMeta {
    ActionMeta {
        stream,
        event: 0,
        kind,
        order: ActionKind::Normal,
        card,
        h2d,
        bytes: 100,
        footprint: Vec::new(),
        waits: Vec::new(),
        label: label.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(stream: u32, label: &str) -> ActionMeta {
        ActionMeta {
            stream,
            event: 0,
            kind: ObsKind::Compute,
            order: ActionKind::Normal,
            card: None,
            h2d: false,
            bytes: 64,
            footprint: Vec::new(),
            waits: Vec::new(),
            label: label.to_string(),
        }
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = ObsHub::new();
        let a = hub.action(meta(0, "x"), 0);
        assert!(a.hub.is_none());
        a.phase(ObsPhase::Dispatched, 10);
        a.finish(true, 20);
        hub.degraded(1, 2, 3, 4, 30);
        assert!(hub.take_records().is_empty());
    }

    #[test]
    fn enabled_hub_collects_lifecycle() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(1, "gemm"), 5);
        a.phase(ObsPhase::DepsResolved, 6);
        a.phase(ObsPhase::SinkStart, 7);
        a.finish(true, 9);
        let recs = hub.take_records();
        assert_eq!(recs.len(), 4);
        match &recs[0] {
            ObsRecord::Enqueued { action, t_ns, meta } => {
                assert_eq!(*action, a.id);
                assert_eq!(*t_ns, 5);
                assert_eq!(meta.stream, 1);
            }
            other => panic!("first record must be Enqueued, got {other:?}"),
        }
        assert!(matches!(
            recs[3],
            ObsRecord::Phase {
                phase: ObsPhase::Completed,
                t_ns: 9,
                ..
            }
        ));
        assert!(hub.take_records().is_empty(), "take_records drains");
    }

    #[test]
    fn action_ids_are_sequential() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(0, "a"), 0);
        let b = hub.action(meta(0, "b"), 1);
        assert_eq!(b.id, a.id + 1);
    }

    #[test]
    fn snapshot_rows_are_flat_and_sorted() {
        let mut snap = MetricsSnapshot::default();
        snap.extra.insert("z.depth".into(), 3.0);
        snap.extra.insert("a.count".into(), 7.0);
        snap.extra.insert("m.util".into(), 0.5);
        assert_eq!(
            snap.rows(),
            vec![
                ("a.count".to_string(), 7.0),
                ("m.util".to_string(), 0.5),
                ("z.depth".to_string(), 3.0),
            ]
        );
    }

    #[test]
    fn wall_clock_starts_at_enable() {
        let hub = ObsHub::new();
        assert_eq!(hub.wall_ns(), 0);
        hub.enable(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(hub.wall_ns() >= 1_000_000);
    }
}
