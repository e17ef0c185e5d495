//! The span trace folded from lifecycle records: one [`Span`] per action
//! that occupied a sink, on the row of the serial resource it occupied —
//! a stream's compute sink or one direction of a card's DMA link.
//!
//! This fold is the one reading of "what ran where, when": the Chrome
//! export draws it, and overlap queries ([`overlap_ns`]) and Gantt charts
//! are computed from it, in either executor mode (virtual or wall ns).

use crate::{ActionMeta, ObsKind, ObsPhase, ObsRecord};
use std::collections::BTreeMap;
use std::fmt;

/// The serial resource a span occupies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Row {
    /// A stream's compute sink, by dense stream index.
    Stream(u32),
    /// One direction of a card's DMA link.
    Dma { card: u32, h2d: bool },
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Row::Stream(s) => write!(f, "stream {s}"),
            Row::Dma { card, h2d } => {
                write!(f, "card {card} {}", if *h2d { "h2d" } else { "d2h" })
            }
        }
    }
}

/// One action's occupancy of its row: `start_ns .. end_ns` is the time it
/// held the sink. The action's kind, label, stream, bytes and footprint
/// are its enqueue-time [`ActionMeta`].
#[derive(Clone, Copy, Debug)]
pub struct Span<'a> {
    pub row: Row,
    pub start_ns: u64,
    pub end_ns: u64,
    /// When the action started queueing for the sink: dispatch, else
    /// dependence resolution, else enqueue.
    pub queue_ns: u64,
    /// Completed (true) or failed after reaching its sink (false).
    pub ok: bool,
    pub meta: &'a ActionMeta,
}

/// The row an action occupies: None for sync actions and elided
/// (host-aliased) transfers, which never hold a sink.
fn row(meta: &ActionMeta) -> Option<Row> {
    match meta.kind {
        ObsKind::Compute => Some(Row::Stream(meta.stream)),
        ObsKind::Transfer => meta.card.map(|card| Row::Dma {
            card,
            h2d: meta.h2d,
        }),
        ObsKind::Sync => None,
    }
}

/// Fold lifecycle records into spans, in action-id order. An action gets
/// a span once it has ended, and — if it failed — only if it reached its
/// sink: a span for an action poisoned or refused before `SinkStart` would
/// overlap the neighbours that did run on that serial row.
pub fn spans(records: &[ObsRecord]) -> Vec<Span<'_>> {
    // Per action: its description, enqueue time and later phases.
    type Lifecycle<'a> = (&'a ActionMeta, u64, Vec<(ObsPhase, u64)>);
    let mut actions: BTreeMap<u64, Lifecycle<'_>> = BTreeMap::new();
    for rec in records {
        match rec {
            ObsRecord::Enqueued { action, t_ns, meta } => {
                actions.insert(*action, (meta, *t_ns, Vec::new()));
            }
            ObsRecord::Phase {
                action,
                phase,
                t_ns,
            } => {
                if let Some((_, _, phases)) = actions.get_mut(action) {
                    phases.push((*phase, *t_ns));
                }
            }
            // Retries, failure causes and degradation describe recovery,
            // not occupancy.
            ObsRecord::Retry { .. } | ObsRecord::Failure { .. } | ObsRecord::Degraded { .. } => {}
        }
    }
    actions
        .into_values()
        .filter_map(|(meta, enqueued, phases)| {
            let row = row(meta)?;
            let at = |p: ObsPhase| phases.iter().find(|(q, _)| *q == p).map(|(_, t)| *t);
            let (end_ns, ok) = phases.iter().find_map(|(p, t)| match p {
                ObsPhase::Completed => Some((*t, true)),
                ObsPhase::Failed => Some((*t, false)),
                _ => None,
            })?;
            let sink_start = at(ObsPhase::SinkStart);
            if !ok && sink_start.is_none() {
                return None;
            }
            // Sim mode derives sink_start as end - service; real mode
            // stamps it on the sink thread.
            let start_ns = sink_start
                .or_else(|| at(ObsPhase::Dispatched))
                .unwrap_or(enqueued)
                .min(end_ns);
            let queue_ns = at(ObsPhase::Dispatched)
                .or_else(|| at(ObsPhase::DepsResolved))
                .unwrap_or(enqueued);
            Some(Span {
                row,
                start_ns,
                end_ns,
                queue_ns,
                ok,
                meta,
            })
        })
        .collect()
}

/// Total ns during which at least one `a`-kind span overlaps at least one
/// `b`-kind span — e.g. how much transfer time ran underneath compute.
pub fn overlap_ns(spans: &[Span<'_>], a: ObsKind, b: ObsKind) -> u64 {
    let of = |k: ObsKind| spans.iter().filter(move |s| s.meta.kind == k);
    let mut intervals: Vec<(u64, u64)> = of(a)
        .flat_map(|sa| {
            of(b)
                .filter(|sb| sa.start_ns < sb.end_ns && sb.start_ns < sa.end_ns)
                .map(|sb| (sa.start_ns.max(sb.start_ns), sa.end_ns.min(sb.end_ns)))
        })
        .collect();
    intervals.sort_unstable();
    // Union of the pairwise intersections.
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        cur = match cur {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    total + cur.map_or(0, |(clo, chi)| chi - clo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_meta as meta, ObsHub};

    /// Spans from completed actions: `(kind, stream, start, end)`, each
    /// compute on its stream's row and each transfer on card 1's h2d row.
    fn completed(actions: &[(ObsKind, u32, u64, u64)]) -> Vec<ObsRecord> {
        let hub = ObsHub::new();
        hub.enable(true);
        for &(kind, stream, start, end) in actions {
            let card = (kind == ObsKind::Transfer).then_some(1);
            let a = hub.action(meta(kind, stream, card, true, ""), 0);
            a.phase(ObsPhase::SinkStart, start);
            a.finish(true, end);
        }
        hub.take_records()
    }

    #[test]
    fn spans_carry_row_window_and_queue_start() {
        let hub = ObsHub::new();
        hub.enable(true);
        let c = hub.action(meta(ObsKind::Compute, 3, None, false, "k"), 1);
        c.phase(ObsPhase::DepsResolved, 2);
        c.phase(ObsPhase::Dispatched, 4);
        c.phase(ObsPhase::SinkStart, 6);
        c.finish(true, 9);
        let t = hub.action(meta(ObsKind::Transfer, 0, Some(2), false, "x"), 1);
        t.phase(ObsPhase::DepsResolved, 3);
        t.phase(ObsPhase::SinkStart, 5);
        t.finish(false, 7);
        let records = hub.take_records();
        let got: Vec<_> = spans(&records)
            .iter()
            .map(|s| {
                (
                    s.row,
                    s.start_ns,
                    s.end_ns,
                    s.queue_ns,
                    s.ok,
                    s.meta.label.as_str(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (Row::Stream(3), 6, 9, 4, true, "k"),
                (
                    Row::Dma {
                        card: 2,
                        h2d: false
                    },
                    5,
                    7,
                    3,
                    false,
                    "x"
                ),
            ]
        );
        assert_eq!(
            Row::Dma {
                card: 2,
                h2d: false
            }
            .to_string(),
            "card 2 d2h"
        );
    }

    #[test]
    fn failed_before_sink_start_gives_no_span() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "poisoned"), 0);
        a.phase(ObsPhase::DepsResolved, 1);
        a.phase(ObsPhase::Dispatched, 2);
        a.finish(false, 3);
        assert!(spans(&hub.take_records()).is_empty());
    }

    #[test]
    fn pending_action_gives_no_span() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "running"), 0);
        a.phase(ObsPhase::SinkStart, 1);
        assert!(spans(&hub.take_records()).is_empty());
    }

    #[test]
    fn elided_transfer_gives_no_span() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Transfer, 0, None, true, "alias"), 0);
        a.finish(true, 1);
        let s = hub.action(meta(ObsKind::Sync, 0, None, false, "sync"), 0);
        s.finish(true, 1);
        assert!(spans(&hub.take_records()).is_empty());
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let hub = ObsHub::new();
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "k"), 0);
        a.phase(ObsPhase::SinkStart, 0);
        a.finish(true, 7);
        assert!(spans(&hub.take_records()).is_empty());
    }

    #[test]
    fn overlap_detection() {
        let records = completed(&[(ObsKind::Compute, 0, 0, 10), (ObsKind::Transfer, 0, 5, 15)]);
        assert_eq!(
            overlap_ns(&spans(&records), ObsKind::Compute, ObsKind::Transfer),
            5
        );
        let touching = completed(&[(ObsKind::Compute, 0, 0, 10), (ObsKind::Transfer, 0, 10, 20)]);
        assert_eq!(
            overlap_ns(&spans(&touching), ObsKind::Compute, ObsKind::Transfer),
            0,
            "touching intervals do not overlap"
        );
    }

    #[test]
    fn overlap_ns_merges_intervals() {
        let records = completed(&[
            (ObsKind::Compute, 0, 0, 100),
            (ObsKind::Transfer, 0, 10, 20),
            (ObsKind::Transfer, 0, 15, 30),
            (ObsKind::Transfer, 0, 50, 60),
        ]);
        assert_eq!(
            overlap_ns(&spans(&records), ObsKind::Compute, ObsKind::Transfer),
            30
        );
    }
}
