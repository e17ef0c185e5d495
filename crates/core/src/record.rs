//! Action-trace recording for the `hsan` stream-semantics sanitizer.
//!
//! The hooks that populate these types inside the runtime are always
//! compiled and switched at run time by `HStreams::recording_start` /
//! `recording_take`: with no recording live, an enqueue or buffer operation
//! pays one atomic load.
//!
//! What gets recorded is exactly the information the paper's correctness
//! contract is stated in terms of: per-stream enqueue order, each action's
//! memory footprint, its sync kind (normal / event-wait / marker), and the
//! explicit events it waits on. Completion order is captured too (real
//! signal order in thread mode, virtual fire times in sim mode) so the
//! analyzer can check that out-of-order execution stayed linearizable to
//! the sequential FIFO semantics.

use crate::deps::Footprint;
use crate::stream::ActionKind;
use crate::types::OrderingMode;
use hs_coi::CompletionLog;

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

/// One recorded runtime operation, in program order.
#[derive(Clone, Debug)]
pub enum TraceOp {
    Enqueue(ActionRecord),
    BufferCreate { buffer: u64, len: usize },
    BufferInstantiate { buffer: u64, domain: usize },
    BufferDestroy { buffer: u64 },
}

/// A completed recording: everything `hsan::check` needs.
#[derive(Clone, Debug)]
pub struct ActionTrace {
    /// The intra-stream ordering mode the runtime ran with (the analyzer
    /// derives implied edges differently for strict-FIFO streams).
    pub ordering: OrderingMode,
    /// Number of streams that existed when the trace was taken.
    pub streams: u32,
    /// Number of domains in the platform.
    pub domains: usize,
    /// Operations in program (source-thread) order.
    pub ops: Vec<TraceOp>,
    /// Observed completions as `(event id, order key)`. Thread mode: the
    /// key is a process-wide sequence number taken at signal time, so keys
    /// order exactly as completions happened. Sim mode: the key is the
    /// virtual fire time in nanoseconds (ties = same virtual instant).
    pub completions: Vec<(u64, u64)>,
}

impl ActionTrace {
    /// The enqueued actions, in enqueue order.
    pub fn actions(&self) -> impl Iterator<Item = &ActionRecord> {
        self.ops.iter().filter_map(|op| match op {
            TraceOp::Enqueue(a) => Some(a),
            _ => None,
        })
    }
}

/// Live recording state owned by an `HStreams` instance.
pub struct Recorder {
    pub(crate) ordering: OrderingMode,
    pub(crate) domains: usize,
    pub(crate) ops: Vec<TraceOp>,
    /// Thread-mode completion log, appended from completing threads (see
    /// `hs_coi::CompletionLog`); shared with event callbacks.
    pub(crate) completions: CompletionLog,
}

impl Recorder {
    pub(crate) fn new(ordering: OrderingMode, domains: usize) -> Recorder {
        Recorder {
            ordering,
            domains,
            ops: Vec::new(),
            completions: CompletionLog::new(),
        }
    }

    pub(crate) fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Freeze into an [`ActionTrace`]. `fire_time` resolves an event id to
    /// its virtual completion time in nanoseconds (sim mode); thread mode
    /// passes a closure returning `None` and the signal-order log is used.
    pub(crate) fn into_trace(
        self,
        streams: u32,
        fire_time: impl Fn(u64) -> Option<u64>,
    ) -> ActionTrace {
        let signal_order = self.completions.snapshot();
        let mut completions: Vec<(u64, u64)> = signal_order
            .iter()
            .enumerate()
            .map(|(seq, &ev)| (ev, seq as u64))
            .collect();
        if completions.is_empty() {
            // Sim mode: derive keys from virtual fire times.
            for op in &self.ops {
                if let TraceOp::Enqueue(a) = op {
                    if let Some(t) = fire_time(a.event) {
                        completions.push((a.event, t));
                    }
                }
            }
        }
        ActionTrace {
            ordering: self.ordering,
            streams,
            domains: self.domains,
            ops: self.ops,
            completions,
        }
    }
}
