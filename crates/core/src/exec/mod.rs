//! The executor: it receives fully-resolved [`ActionSpec`]s plus the
//! [`CoiEvent`]s they depend on, and returns each action's own `CoiEvent`.
//!
//! There is one [`Executor`] and one action state machine (`thread.rs`:
//! the per-action record with its dependence countdown, retry with
//! jittered backoff, deadline fail-then-poison and poisoning of
//! dependents). Two things are chosen when the runtime is built:
//!
//! * the **clock** — wall time (a timer wheel on a thread of its own) or
//!   virtual time (hs-sim's event heap plus the source clock, `sim.rs`);
//! * the **service** that runs a dispatched compute or transfer — COI
//!   pipelines and DMA queues, or the cost model's servers (`sim.rs`).
//!
//! `ExecMode::Threads` and `ThreadsPaced` pair the wall clock with the
//! pools; `ExecMode::Sim` pairs the virtual clock with the model.

mod sim;
mod thread;

pub use thread::Executor;

use bytes::Bytes;
use hs_chaos::RetryPolicy;
use hs_coi::pipeline::BufAccess;
use hs_coi::small::SmallVec;
use hs_coi::CoiEvent;
use hs_machine::Device;

use crate::types::CostHint;

/// Per-submission execution options (deadline + retry budget).
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOpts {
    /// Fail the action if it has not completed this many nanoseconds after
    /// submission: wall time in thread mode, virtual time in sim mode.
    pub deadline_ns: Option<u64>,
    /// Retry budget for transient (injected) faults.
    pub retry: RetryPolicy,
}

/// Real-mode endpoints of a transfer.
#[derive(Clone, Debug)]
pub struct RealXfer {
    pub src: (hs_fabric::WindowId, usize),
    pub dst: (hs_fabric::WindowId, usize),
}

/// Real-mode operand views of a compute, inline for the usual few.
pub type BufList = SmallVec<BufAccess, 4>;

/// A fully-resolved action handed to an executor.
pub enum ActionSpec {
    Compute {
        /// Dense stream index (not the public id).
        stream_idx: usize,
        device: Device,
        cores: u32,
        func: String,
        args: Bytes,
        /// Real-mode operand views in the sink domain.
        bufs: BufList,
        cost: CostHint,
        label: String,
    },
    Transfer {
        /// Index of the card domain involved (None for host↔host, which is
        /// aliased away).
        card_domain: Option<usize>,
        /// Direction: true = toward the card.
        h2d: bool,
        bytes: usize,
        /// Real-mode windows (None in sim mode or for elided transfers).
        real: Option<RealXfer>,
        label: String,
    },
    /// Synchronization / bookkeeping: completes when its dependences do.
    Noop,
}

impl ActionSpec {
    pub fn label(&self) -> &str {
        match self {
            ActionSpec::Compute { label, .. } => label,
            ActionSpec::Transfer { label, .. } => label,
            ActionSpec::Noop => "sync",
        }
    }
}

/// One dependence of a batched submission.
pub enum BatchDep {
    /// An event that already exists in the table (pre-batch producer).
    External(CoiEvent),
    /// The batch's own item at this index (must precede the depender):
    /// resolved against the batch's freshly minted completion events, so
    /// intra-batch edges never round-trip through the event table.
    Internal(usize),
}

/// One action of a batched submission ([`Executor::submit_batch`]).
pub struct BatchSubmitItem {
    pub spec: ActionSpec,
    /// This item's slice of the batch's shared dependence list.
    pub deps: std::ops::Range<usize>,
    pub obs: hs_obs::ObsAction,
}
