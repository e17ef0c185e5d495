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
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, PoisonError, RwLock as StdRwLock};

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

/// A run function, by name: an action carries this handle instead of a
/// `String` of its own, and the sink, the WAL, labels and records read the
/// name back through [`FnId::name`]. Equal names share one block: the first
/// enqueue that names a function interns it, later ones clone the handle (a
/// reference count, no allocation), so a function only a remote worker
/// registered still enqueues and fails at execution. A name lives while an
/// action or a thread's last-name cache holds it, and the interner holds
/// few more than that (`intern` states its bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnId(Arc<str>);

impl FnId {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for FnId {
    fn from(name: &str) -> FnId {
        thread_local! {
            /// This thread's last name: a source enqueueing one kernel in a
            /// loop takes no lock.
            static LAST: RefCell<Option<FnId>> = const { RefCell::new(None) };
        }
        LAST.with_borrow_mut(|last| match last {
            Some(id) if id.name() == name => id.clone(),
            _ => last.insert(FnId(intern(name))).clone(),
        })
    }
}

/// Below this many names the interner never sweeps.
const INTERN_FLOOR: usize = 64;

/// The names interned and not yet swept, and the size at which the next
/// new name sweeps them.
struct Interner {
    names: BTreeSet<Arc<str>>,
    sweep_at: usize,
}

/// A plain `std` lock, like the lock-order witness's: a leaf held for one
/// lookup or insertion, outside the documented order, and no schedule point
/// for the loom models.
static INTERNER: StdRwLock<Interner> = StdRwLock::new(Interner {
    names: BTreeSet::new(),
    sweep_at: INTERN_FLOOR,
});

/// `name`'s shared block, made on first sight. A new name that finds the
/// interner at its sweep size first drops every name only the interner
/// holds, then sets the next sweep at twice what is left: the interner
/// never holds more than twice the names in use at its last sweep, or
/// [`INTERN_FLOOR`], so a program that formats a name per action does not
/// grow with it.
fn intern(name: &str) -> Arc<str> {
    let found = INTERNER
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .names
        .get(name)
        .cloned();
    if let Some(n) = found {
        return n;
    }
    let mut interner = INTERNER.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(n) = interner.names.get(name) {
        return n.clone();
    }
    if interner.names.len() >= interner.sweep_at {
        // Only the interner hands out new references, and it is locked
        // exclusively: a name with no other holder cannot gain one here.
        interner.names.retain(|n| Arc::strong_count(n) > 1);
        interner.sweep_at = (2 * interner.names.len()).max(INTERN_FLOOR);
    }
    let n: Arc<str> = name.into();
    interner.names.insert(n.clone());
    n
}

/// A fully-resolved action handed to an executor.
pub enum ActionSpec {
    Compute {
        /// Dense stream index (not the public id).
        stream_idx: usize,
        device: Device,
        cores: u32,
        func: FnId,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn interned() -> usize {
        INTERNER
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .names
            .len()
    }

    #[test]
    fn a_name_is_shared_while_held_and_swept_once_dropped() {
        let held = FnId::from("interner-test-held");
        // Another thread's cache never saw it: the block comes from the
        // interner, not from this thread's last name.
        let again = std::thread::spawn(|| FnId::from("interner-test-held"))
            .join()
            .expect("interning thread");
        assert!(Arc::ptr_eq(&held.0, &again.0), "one block per name");

        // A name formatted per action: each is dropped before the next, so
        // the interner sweeps them and stays at its floor (plus the few
        // names the crate's other tests hold meanwhile).
        let mut most = 0;
        for i in 0..10_000 {
            let id = FnId::from(format!("interner-test-{i}").as_str());
            assert_eq!(id.name(), format!("interner-test-{i}"));
            drop(id);
            most = most.max(interned());
        }
        assert!(
            most <= 2 * INTERN_FLOOR + 1,
            "the interner held {most} names"
        );
        let held_again = FnId::from("interner-test-held");
        assert!(Arc::ptr_eq(&held.0, &held_again.0), "a held name survives");
    }
}
