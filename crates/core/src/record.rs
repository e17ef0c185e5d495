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

use crate::deps::{Footprint, FootprintItem};
use crate::stream::ActionKind;
use crate::types::{BufferId, DomainId, OrderingMode};
use crate::HStreams;
use hs_obs::{ActionMeta, ObsPhase, ObsRecord};
use std::collections::{BTreeMap, HashMap, HashSet};

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
    pub footprint: Footprint,
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
    /// order. The key is the timestamp of the event's first terminal
    /// lifecycle phase: wall nanoseconds in thread mode — stamped before
    /// the completion is observable, so a dependent's key is never below
    /// its producer's — and the virtual fire time in sim mode (ties = same
    /// virtual instant).
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
    pub fn from_records(hs: &HStreams, records: &[ObsRecord]) -> ActionTrace {
        let mut event_of: HashMap<u64, u64> = HashMap::new();
        let mut actions: BTreeMap<u64, ActionRecord> = BTreeMap::new();
        let mut completions: Vec<(u64, u64)> = Vec::new();
        let mut completed: HashSet<u64> = HashSet::new();
        for rec in records {
            match rec {
                ObsRecord::Enqueued { action, meta, .. } => {
                    event_of.insert(*action, meta.event);
                    actions
                        .entry(meta.event)
                        .or_insert_with(|| ActionRecord::of(meta));
                }
                ObsRecord::Phase {
                    action,
                    phase: ObsPhase::Completed | ObsPhase::Failed,
                    t_ns,
                } => {
                    if let Some(&ev) = event_of.get(action) {
                        if completed.insert(ev) {
                            completions.push((ev, *t_ns));
                        }
                    }
                }
                _ => {}
            }
        }
        // Stable: equal keys keep the order their records were pushed in.
        completions.sort_by_key(|&(_, key)| key);
        ActionTrace {
            ordering: hs.ordering(),
            streams: hs.num_streams() as u32,
            actions: actions.into_values().collect(),
            completions,
        }
    }
}
