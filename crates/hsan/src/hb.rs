//! The happens-before graph over a recorded action trace.
//!
//! Edges mirror exactly what the runtime guarantees (see
//! `hstreams_core::stream`):
//!
//! * **Within a stream**, under out-of-order semantics, an action orders
//!   after an earlier action of the same stream only when their footprints
//!   conflict (FIFO ∧ operand-overlap — the paper's implicit dependences),
//!   after the most recent sync action (event-wait or marker), and a marker
//!   orders after everything prior. Under strict FIFO, every action chains
//!   on its immediate predecessor.
//! * **Across streams**, the *only* edges are explicit event waits: action
//!   `b` waiting on event `e` orders after the action that produced `e`.
//!   That action is always earlier in the trace: the runtime refuses a wait
//!   on an id it has not reserved yet, and the trace is in event-id order.
//!   So every edge points backwards and the graph has no cycle.
//!
//! Happens-before is the transitive closure of those edges. Note that a
//! per-stream vector clock (one counter per stream) cannot represent this
//! relation: under out-of-order semantics two actions of the *same* stream
//! with disjoint footprints are unordered, so intra-stream causality is not
//! a total order and "max position reached" summaries are unsound. Each
//! action instead carries its full causal history as a bitset over action
//! indices — exact, and O(1) per `ordered` query.

use hstreams_core::record::{ActionRecord, ActionTrace};
use hstreams_core::types::OrderingMode;
use hstreams_core::{deps, ActionKind};
use std::collections::HashMap;

/// The happens-before relation over the enqueued actions of one trace.
pub struct HbGraph<'t> {
    /// Actions in trace order (indices below refer to this list).
    pub actions: &'t [ActionRecord],
    /// Event id → action index.
    pub by_event: HashMap<u64, usize>,
    /// Direct predecessors (dependence edges) per action; every one has a
    /// lower index than its successor.
    pub preds: Vec<Vec<usize>>,
    /// `history[i]` has bit `j` set iff action `j` happens-before action `i`.
    history: Vec<Vec<u64>>,
    /// Waits naming no earlier recorded action — an unknown event, or one
    /// later in the trace: `(action index, missing event id)`. The runtime
    /// refuses both at enqueue, so only a hand-built trace has one.
    pub dangling: Vec<(usize, u64)>,
}

impl<'t> HbGraph<'t> {
    pub fn build(trace: &'t ActionTrace) -> HbGraph<'t> {
        let actions = &trace.actions[..];
        let n = actions.len();
        let by_event: HashMap<u64, usize> = actions
            .iter()
            .enumerate()
            .map(|(i, a)| (a.event, i))
            .collect();

        // Per-stream enqueue order (indices into `actions`).
        let mut streams: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, a) in actions.iter().enumerate() {
            streams.entry(a.stream).or_default().push(i);
        }

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dangling = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            for &w in &a.waits {
                match by_event.get(&w) {
                    Some(&j) if j < i => preds[i].push(j),
                    _ => dangling.push((i, w)),
                }
            }
        }
        for order in streams.values() {
            for (k, &i) in order.iter().enumerate() {
                match trace.ordering {
                    OrderingMode::StrictFifo => {
                        if k > 0 {
                            preds[i].push(order[k - 1]);
                        }
                    }
                    OrderingMode::OutOfOrder => match actions[i].kind {
                        // Cross-stream sync: non-serializing against prior
                        // *normal* actions, but chained on the previous sync
                        // action — the wait supersedes it as the stream's
                        // gate, so without this edge a marker's dominance
                        // over post-wait actions would be severed (the
                        // runtime wires the same sync-to-sync chain).
                        ActionKind::EventWait => {
                            for &j in order[..k].iter().rev() {
                                if actions[j].kind != ActionKind::Normal {
                                    preds[i].push(j);
                                    break;
                                }
                            }
                        }
                        // A marker dominates everything enqueued before it;
                        // edges to actions before the previous marker are
                        // implied transitively.
                        ActionKind::Marker => {
                            for &j in order[..k].iter().rev() {
                                preds[i].push(j);
                                if actions[j].kind == ActionKind::Marker {
                                    break;
                                }
                            }
                        }
                        ActionKind::Normal => {
                            // Most recent sync action gates it...
                            for &j in order[..k].iter().rev() {
                                if actions[j].kind != ActionKind::Normal {
                                    preds[i].push(j);
                                    break;
                                }
                            }
                            // ...plus every conflicting earlier action back
                            // to the last marker (the marker dominates the
                            // rest).
                            for &j in order[..k].iter().rev() {
                                if actions[j].kind == ActionKind::Marker {
                                    break;
                                }
                                if deps::footprints_conflict(
                                    &actions[j].footprint,
                                    &actions[i].footprint,
                                ) {
                                    preds[i].push(j);
                                }
                            }
                        }
                    },
                }
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }

        // Causal history: union of predecessors' histories plus the
        // predecessors themselves. Every edge points to a lower index, so
        // one pass in index order sees each predecessor's row complete.
        let w = n.div_ceil(64);
        let mut history: Vec<Vec<u64>> = Vec::with_capacity(n);
        for ps in &preds {
            let mut row = vec![0u64; w];
            for &j in ps {
                row[j / 64] |= 1u64 << (j % 64);
                for (acc, src) in row.iter_mut().zip(&history[j]) {
                    *acc |= *src;
                }
            }
            history.push(row);
        }

        HbGraph {
            actions,
            by_event,
            preds,
            history,
            dangling,
        }
    }

    /// Does action `a` happen-before action `b`? (Strict: `ordered(i, i)`
    /// is false.)
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        self.history[b][a / 64] & (1u64 << (a % 64)) != 0
    }

    /// Neither `a` happens-before `b` nor the reverse.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.ordered(a, b) && !self.ordered(b, a)
    }
}
