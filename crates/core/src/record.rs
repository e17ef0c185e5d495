//! Action traces for the `hsan` stream-semantics sanitizer.
//!
//! What a trace holds is exactly the information the paper's correctness
//! contract is stated in terms of: per-stream enqueue order, each action's
//! memory footprint, its sync kind (normal / event-wait / marker), and the
//! explicit events it waits on — plus the observed completion order, so
//! the analyzer can check that out-of-order execution stayed linearizable
//! to the sequential FIFO semantics.
//!
//! A live run is not recorded by a mechanism of its own: the `hs-obs`
//! lifecycle records (`HStreams::obs_enable`) carry all of it, and
//! [`ActionTrace::from_records`] folds one drained slice of them — the same
//! slice the Chrome export reads. A trace holds actions only: the runtime
//! refuses every buffer lifetime hazard and every wait on an event it has
//! not reserved at enqueue (`crates/core/tests/errors.rs`, both executors),
//! so every wait names a lower event id than its waiter.

use crate::deps::FootprintItem;
use crate::stream::ActionKind;
use crate::types::{BufferId, DomainId, OrderingMode};
use crate::HStreams;
use hs_obs::{ActionMeta, ObsPhase, ObsRecord};
use std::collections::{BTreeMap, HashMap};

/// One enqueued action, as the dependence engine saw it.
#[derive(Clone, Debug)]
pub struct ActionRecord {
    /// The produced event id — globally unique, dense, in enqueue order.
    pub event: u64,
    /// Public id of the stream the action was enqueued into.
    pub stream: u32,
    /// How the action participates in intra-stream ordering.
    pub kind: ActionKind,
    /// Human-readable label (kernel name, transfer description, "sync").
    pub label: String,
    /// The (domain, buffer, range, write) items the action touches.
    pub footprint: Vec<FootprintItem>,
    /// Event ids this action explicitly waits on (cross-stream edges).
    pub waits: Vec<u64>,
}

impl ActionRecord {
    fn of(meta: &ActionMeta) -> ActionRecord {
        ActionRecord {
            event: meta.event,
            stream: meta.stream,
            kind: meta.order,
            label: meta.label.clone(),
            footprint: meta
                .footprint
                .iter()
                .map(|a| {
                    FootprintItem::new(
                        DomainId(a.domain),
                        BufferId(a.buffer),
                        a.range.clone(),
                        a.write,
                    )
                })
                .collect(),
            waits: meta.waits.clone(),
        }
    }
}

/// Everything `hsan::check` needs.
#[derive(Clone, Debug)]
pub struct ActionTrace {
    /// The intra-stream ordering mode the runtime ran with (the analyzer
    /// derives implied edges differently for strict-FIFO streams).
    pub ordering: OrderingMode,
    /// Number of streams that existed when the trace was taken.
    pub streams: u32,
    /// The enqueued actions, in event-id order.
    pub actions: Vec<ActionRecord>,
    /// Observed completions as `(event id, order key)`, in completion
    /// order. The key is the timestamp of the event's first `Completed`
    /// phase, or of its last terminal phase if no lifecycle completed:
    /// wall nanoseconds in thread mode — stamped before the completion is
    /// observable, so a dependent's key is never below its producer's —
    /// and the virtual fire time in sim mode (ties = same virtual
    /// instant).
    pub completions: Vec<(u64, u64)>,
}

impl ActionTrace {
    /// The enqueued actions, in event-id order.
    pub fn actions(&self) -> impl Iterator<Item = &ActionRecord> {
        self.actions.iter()
    }

    /// Fold lifecycle records drained from `hs` ([`HStreams::take_obs_records`])
    /// into a trace. Actions are ordered by event id — a stream's ids ascend
    /// in enqueue order, and a waited event is always reserved before its
    /// waiter — and the first `Enqueued` record of an event is the one kept
    /// (a card-loss replay is a later lifecycle of the same event). Phases
    /// of lifecycles enqueued before the slice are skipped.
    ///
    /// An event completes once, at its first `Completed` phase. A lost
    /// card fails its queued lifecycles in whatever order the loss reaches
    /// them, so a `Failed` phase says nothing about dependence order and
    /// stands in only for an event that never completed. Nor is a later
    /// lifecycle's completion the key: a replay may re-run a producer that
    /// completed before its dependents.
    pub fn from_records(hs: &HStreams, records: &[ObsRecord]) -> ActionTrace {
        let mut event_of: HashMap<u64, u64> = HashMap::new();
        let mut actions: BTreeMap<u64, ActionRecord> = BTreeMap::new();
        // Event → (completed, key, index of the keying record).
        let mut keys: HashMap<u64, (bool, u64, usize)> = HashMap::new();
        for (i, rec) in records.iter().enumerate() {
            match rec {
                ObsRecord::Enqueued { action, meta, .. } => {
                    event_of.insert(*action, meta.event);
                    actions
                        .entry(meta.event)
                        .or_insert_with(|| ActionRecord::of(meta));
                }
                ObsRecord::Phase {
                    action,
                    phase: phase @ (ObsPhase::Completed | ObsPhase::Failed),
                    t_ns,
                } => {
                    if let Some(&ev) = event_of.get(action) {
                        if !keys.get(&ev).is_some_and(|&(completed, ..)| completed) {
                            keys.insert(ev, (*phase == ObsPhase::Completed, *t_ns, i));
                        }
                    }
                }
                _ => {}
            }
        }
        // Equal keys keep the order their records came in.
        let mut completions: Vec<(u64, u64, usize)> =
            keys.into_iter().map(|(ev, (_, t, i))| (ev, t, i)).collect();
        completions.sort_by_key(|&(_, t, i)| (t, i));
        ActionTrace {
            ordering: hs.ordering(),
            streams: hs.num_streams() as u32,
            actions: actions.into_values().collect(),
            completions: completions.into_iter().map(|(ev, t, _)| (ev, t)).collect(),
        }
    }
}
