//! Card-loss replay: which logged actions re-run on the host once a card's
//! memory is gone, and in what order.
//!
//! Both answers come from the *operands* in the recovery log, not from its
//! enqueue-time dependence lists: those omit every producer that had
//! already retired when its consumer was enqueued (and every edge a covering
//! writer made transitive), so what they contain depends on timing.
//!
//! After degradation the lost card's copy of a buffer is the host's copy:
//! its streams run on the host and its transfers are elided. The replay has
//! to bring each host copy from the value it holds now to the value the
//! program would have left in the merged copy, so per buffer range it must
//! run exactly the writers whose effect is not in host memory yet:
//!
//! * every **failed** action (never ran, or ran against the dead card);
//! * a **successful compute on the lost card** whose result some replayed
//!   action read there and that no successful card→host transfer had
//!   brought home — it existed only in the card's memory;
//! * and *not* a successful compute whose result a later card→host transfer
//!   landed: the host already holds it, and re-running a read-modify-write
//!   there would apply it twice.
//!
//! The one assumption is the one degradation itself rests on: the program
//! keeps the two copies coherent through its transfers (a copy is not read
//! on one side while the other side has moved on without a transfer
//! between). An action that wrote several card ranges of which only some
//! landed cannot be cut and is replayed whole.

use crate::deps::Footprint;
use crate::types::{BufferId, DomainId};
use crate::{LoggedAction, LoggedOp};
use std::collections::HashMap;
use std::ops::Range;

fn overlaps(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

fn covers(outer: &Range<usize>, inner: &Range<usize>) -> bool {
    outer.start <= inner.start && inner.end <= outer.end
}

/// A value a compute action left in a card's memory.
struct Cell {
    writer: usize,
    range: Range<usize>,
    /// A successful card→host transfer copied it out while it was current.
    landed: bool,
}

/// What the cards' memories held over the course of a log.
struct CardTrace {
    cells: Vec<Cell>,
    /// The cells still current at the end, per card buffer.
    current: HashMap<(DomainId, BufferId), Vec<usize>>,
    /// Per entry, the cells it read from a card's memory.
    reads: Vec<Vec<usize>>,
    /// Per entry, the cells whose fate it settled: covered by its card
    /// write, or landed by its transfer.
    settled: Vec<Vec<usize>>,
}

impl CardTrace {
    /// One pass over `log` (enqueue order). `ok[i]`: entry `i` completed
    /// successfully; `card_of`: the card a compute entry's stream sits on.
    fn of(
        log: &[LoggedAction],
        ok: &[bool],
        card_of: impl Fn(&LoggedAction) -> Option<DomainId>,
    ) -> CardTrace {
        let mut t = CardTrace {
            cells: Vec::new(),
            current: HashMap::new(),
            reads: vec![Vec::new(); log.len()],
            settled: vec![Vec::new(); log.len()],
        };
        for (i, la) in log.iter().enumerate() {
            match &la.op {
                LoggedOp::Compute { operands, .. } => {
                    let Some(card) = card_of(la) else { continue };
                    for op in operands.iter().filter(|op| op.access.is_read()) {
                        t.read(i, (card, op.buffer), &op.range);
                    }
                    for op in operands.iter().filter(|op| op.access.is_write()) {
                        t.overwrite(i, (card, op.buffer), &op.range);
                        t.current
                            .entry((card, op.buffer))
                            .or_default()
                            .push(t.cells.len());
                        t.cells.push(Cell {
                            writer: i,
                            range: op.range.clone(),
                            landed: false,
                        });
                    }
                }
                LoggedOp::Xfer {
                    buf,
                    range,
                    from,
                    to,
                } => {
                    if !from.is_host() {
                        let before = t.reads[i].len();
                        t.read(i, (*from, *buf), range);
                        for k in before..t.reads[i].len() {
                            let c = t.reads[i][k];
                            if ok[i] && covers(range, &t.cells[c].range) {
                                t.cells[c].landed = true;
                                t.settled[i].push(c);
                            }
                        }
                    }
                    // Host→card: the card range mirrors the host from here.
                    if !to.is_host() {
                        t.overwrite(i, (*to, *buf), range);
                    }
                }
                LoggedOp::Sync => {}
            }
        }
        t
    }

    fn read(&mut self, i: usize, loc: (DomainId, BufferId), range: &Range<usize>) {
        let cur = self
            .current
            .get(&loc)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let cells = &self.cells;
        self.reads[i].extend(cur.iter().filter(|&&c| overlaps(range, &cells[c].range)));
    }

    /// A card write over `range`: the cells it covers stop being current.
    fn overwrite(&mut self, i: usize, loc: (DomainId, BufferId), range: &Range<usize>) {
        let Some(cur) = self.current.get_mut(&loc) else {
            return;
        };
        let (cells, settled) = (&self.cells, &mut self.settled[i]);
        cur.retain(|&c| {
            let covered = covers(range, &cells[c].range);
            if covered {
                settled.push(c);
            }
            !covered
        });
    }

    /// `seeds`, plus backwards every compute whose result one of them read
    /// on a card and that never landed.
    fn with_lost_producers(&self, seeds: Vec<usize>, n: usize) -> Vec<bool> {
        let mut in_set = vec![false; n];
        let mut work = Vec::new();
        let mut add = |i: usize, work: &mut Vec<usize>| {
            if !std::mem::replace(&mut in_set[i], true) {
                work.push(i);
            }
        };
        for i in seeds {
            add(i, &mut work);
        }
        while let Some(i) = work.pop() {
            for cell in self.reads[i].iter().map(|&c| &self.cells[c]) {
                if !cell.landed {
                    add(cell.writer, &mut work);
                }
            }
        }
        in_set
    }
}

/// The replay set after losing `dom`, as one flag per entry of `log`
/// (which is in enqueue order). `failed[i]` is the settled status of entry
/// `i`; `ran_on_dom` tells whether a compute entry's stream sat on `dom`.
pub(crate) fn select(
    log: &[LoggedAction],
    failed: &[bool],
    dom: DomainId,
    ran_on_dom: impl Fn(&LoggedAction) -> bool,
) -> Vec<bool> {
    let ok: Vec<bool> = failed.iter().map(|f| !f).collect();
    // Other cards' memories are intact: only `dom`'s computes leave cells.
    let trace = CardTrace::of(log, &ok, |la| ran_on_dom(la).then_some(dom));
    let seeds = (0..log.len()).filter(|&i| failed[i]).collect();
    trace.with_lost_producers(seeds, log.len())
}

/// Which entries of `log` a later [`select`] can still need, whichever
/// card dies; the rest may be pruned. Kept are the entries that have not
/// completed successfully, the computes whose results exist only in a
/// card's memory (still current there, or read there by a kept entry), and
/// — the evidence that lets `select` leave the others alone — whatever
/// landed or overwrote a result of a kept compute.
pub(crate) fn live(
    log: &[LoggedAction],
    ok: &[bool],
    card_of: impl Fn(&LoggedAction) -> Option<DomainId>,
) -> Vec<bool> {
    let trace = CardTrace::of(log, ok, card_of);
    let only_on_card = trace
        .current
        .values()
        .flatten()
        .map(|&c| &trace.cells[c])
        .filter(|cell| !cell.landed)
        .map(|cell| cell.writer);
    let seeds = (0..log.len())
        .filter(|&i| !ok[i])
        .chain(only_on_card)
        .collect();
    let mut keep = trace.with_lost_producers(seeds, log.len());
    // Ascending: an entry settles cells of earlier writers only, and one
    // kept as evidence needs the evidence about its own cells in turn.
    for i in 0..log.len() {
        let settled = &trace.settled[i];
        keep[i] = keep[i] || settled.iter().any(|&c| keep[trace.cells[c].writer]);
    }
    keep
}

/// Orders the replayed actions among themselves. Re-derived from their
/// post-degradation footprints because the logged dependences are not
/// enough: an edge onto a producer that had completed at enqueue time was
/// never recorded, and with the card's copies folded into the host's two
/// actions can conflict that never shared a location before.
#[derive(Default)]
pub(crate) struct Hazards {
    by_loc: HashMap<(BufferId, DomainId), Vec<Access>>,
}

struct Access {
    range: Range<usize>,
    write: bool,
    ev: u64,
}

impl Hazards {
    /// Append to `deps` the earlier replayed events `footprint` conflicts
    /// with (read-after-write, write-after-read, write-after-write), then
    /// record it as event `ev`.
    pub(crate) fn order(&mut self, ev: u64, footprint: &Footprint, deps: &mut Vec<u64>) {
        for f in footprint {
            let accesses = self.by_loc.entry((f.buffer, f.domain)).or_default();
            deps.extend(
                accesses
                    .iter()
                    .filter(|a| (a.write || f.write) && overlaps(&a.range, &f.range))
                    .map(|a| a.ev),
            );
            if f.write {
                // Whatever this write covers is ordered before it now;
                // later actions reach it through this one.
                accesses.retain(|a| !covers(&f.range, &a.range));
            }
            accesses.push(Access {
                range: f.range.clone(),
                write: f.write,
                ev,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::FootprintItem;
    use crate::types::{Access as Acc, CostHint, Operand, StreamId};
    use bytes::Bytes;
    use hs_chaos::RetryPolicy;

    const CARD: DomainId = DomainId(1);
    const CARD_STREAM: StreamId = StreamId(1);
    const HOST_STREAM: StreamId = StreamId(0);
    const X: BufferId = BufferId(7);

    fn entry(ev: u64, stream: StreamId, op: LoggedOp) -> LoggedAction {
        LoggedAction {
            ev,
            stream,
            op,
            deps: Vec::new(),
            retry: RetryPolicy::none(),
        }
    }

    fn bump(ev: u64, stream: StreamId, access: Acc) -> LoggedAction {
        entry(
            ev,
            stream,
            LoggedOp::Compute {
                func: "bump".into(),
                args: Bytes::new(),
                operands: vec![Operand::new(X, 0..64, access)],
                cost: CostHint::trivial(),
            },
        )
    }

    fn xfer(ev: u64, from: DomainId, to: DomainId) -> LoggedAction {
        entry(
            ev,
            CARD_STREAM,
            LoggedOp::Xfer {
                buf: X,
                range: 0..64,
                from,
                to,
            },
        )
    }

    fn selected(log: &[LoggedAction], first_failed: usize) -> Vec<usize> {
        let failed: Vec<bool> = (0..log.len()).map(|i| i >= first_failed).collect();
        let set = select(log, &failed, CARD, |la| la.stream == CARD_STREAM);
        (0..log.len()).filter(|&i| set[i]).collect()
    }

    /// h2d, bump, d2h — twice — on the card, with a host bump between.
    fn two_rounds() -> Vec<LoggedAction> {
        vec![
            xfer(0, DomainId::HOST, CARD),
            bump(1, CARD_STREAM, Acc::InOut),
            xfer(2, CARD, DomainId::HOST),
            bump(3, HOST_STREAM, Acc::InOut),
            xfer(4, DomainId::HOST, CARD),
            bump(5, CARD_STREAM, Acc::InOut),
            xfer(6, CARD, DomainId::HOST),
        ]
    }

    #[test]
    fn a_landed_update_is_not_applied_again() {
        // Everything up to the second h2d succeeded: round one's bump is on
        // the host (its d2h landed) and must not be pulled back in by the
        // h2d that overwrites its card copy.
        assert_eq!(selected(&two_rounds(), 4), vec![4, 5, 6]);
    }

    #[test]
    fn an_update_that_lived_only_on_the_card_is_replayed() {
        // The second bump succeeded on the card and died there with it: the
        // failed d2h needs it although no logged dependence says so.
        assert_eq!(selected(&two_rounds(), 6), vec![5, 6]);
        // Same for a chain of two: both, and nothing before the h2d.
        let mut log = two_rounds();
        log.insert(6, bump(9, CARD_STREAM, Acc::InOut));
        assert_eq!(selected(&log, 7), vec![5, 6, 7]);
    }

    #[test]
    fn a_result_landed_after_its_failed_reader_still_counts_as_landed() {
        // Two readers of round one's bump: a card compute that failed (for
        // some other reason) and the d2h after it, which succeeded.
        let log = vec![
            xfer(0, DomainId::HOST, CARD),
            bump(1, CARD_STREAM, Acc::InOut),
            bump(2, CARD_STREAM, Acc::In),
            xfer(3, CARD, DomainId::HOST),
        ];
        let failed = [false, false, true, false];
        let set = select(&log, &failed, CARD, |la| la.stream == CARD_STREAM);
        assert_eq!(set, vec![false, false, true, false]);
    }

    #[test]
    fn a_partial_transfer_does_not_land_a_wider_write() {
        let mut log = two_rounds();
        log[2] = entry(
            2,
            CARD_STREAM,
            LoggedOp::Xfer {
                buf: X,
                range: 0..32,
                from: CARD,
                to: DomainId::HOST,
            },
        );
        log.truncate(3);
        log.push(bump(3, CARD_STREAM, Acc::In));
        assert_eq!(selected(&log, 3), vec![1, 3]);
    }

    fn kept(log: &[LoggedAction], first_pending: usize) -> Vec<usize> {
        let ok: Vec<bool> = (0..log.len()).map(|i| i < first_pending).collect();
        let keep = live(log, &ok, |la| (la.stream == CARD_STREAM).then_some(CARD));
        (0..log.len()).filter(|&i| keep[i]).collect()
    }

    #[test]
    fn the_log_keeps_what_exists_only_on_a_card_and_its_evidence() {
        let log = two_rounds();
        assert_eq!(kept(&log, 7), Vec::<usize>::new(), "everything came home");
        assert_eq!(kept(&log, 6), vec![5, 6], "the bump a pending d2h reads");
        assert_eq!(kept(&log[..6], 6), vec![5], "a result still on the card");
        assert_eq!(kept(&log, 3), vec![3, 4, 5, 6], "round one is home");
        // A compute with two outputs of which one came home: it stays, and
        // so does the transfer that says which one.
        let y = BufferId(8);
        let two_outputs = entry(
            0,
            CARD_STREAM,
            LoggedOp::Compute {
                func: "both".into(),
                args: Bytes::new(),
                operands: vec![
                    Operand::new(X, 0..64, Acc::Out),
                    Operand::new(y, 0..64, Acc::Out),
                ],
                cost: CostHint::trivial(),
            },
        );
        let log = vec![two_outputs, xfer(1, CARD, DomainId::HOST)];
        assert_eq!(kept(&log, 2), vec![0, 1]);
    }

    /// Pruning never changes a later replay: random single-card logs,
    /// shortest first, pruned with some entries complete, then replayed
    /// after a loss that failed some of the others — every selected entry
    /// survived the pruning and the pruned log selects the same entries.
    #[test]
    fn pruning_the_log_never_changes_what_a_later_loss_replays() {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut below = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        const RANGES: [Range<usize>; 3] = [0..64, 0..32, 32..64];
        for len in (1..=24).flat_map(|n| [n; 40]) {
            let log: Vec<LoggedAction> = (0..len)
                .map(|ev| {
                    let buf = BufferId(7 + below(2));
                    let range = RANGES[below(3) as usize].clone();
                    let (from, to) = (DomainId::HOST, CARD);
                    match below(5) {
                        0 => entry(
                            ev,
                            CARD_STREAM,
                            LoggedOp::Xfer {
                                buf,
                                range,
                                from,
                                to,
                            },
                        ),
                        1 => entry(
                            ev,
                            CARD_STREAM,
                            LoggedOp::Xfer {
                                buf,
                                range,
                                from: to,
                                to: from,
                            },
                        ),
                        kind => entry(
                            ev,
                            [HOST_STREAM, CARD_STREAM, CARD_STREAM][kind as usize - 2],
                            LoggedOp::Compute {
                                func: "k".into(),
                                args: Bytes::new(),
                                // One operand, or one on each buffer.
                                operands: [buf, BufferId(15 - buf.0)][..1 + below(2) as usize]
                                    .iter()
                                    .map(|b| {
                                        let access = [Acc::In, Acc::Out, Acc::InOut];
                                        Operand::new(*b, range.clone(), access[below(3) as usize])
                                    })
                                    .collect(),
                                cost: CostHint::trivial(),
                            },
                        ),
                    }
                })
                .collect();
            let n = log.len();
            let on_card = |la: &LoggedAction| la.stream == CARD_STREAM;
            // Completed at the pruning: mostly a prefix, any subset at times
            // (streams run ahead of each other). By the loss everything has
            // settled, and what had completed stays completed.
            let prefix = below(n as u64 + 1) as usize;
            let scattered = below(3) == 0;
            let ok: Vec<bool> = (0..n)
                .map(|i| if scattered { below(3) != 0 } else { i < prefix })
                .collect();
            let keep = live(&log, &ok, |la| on_card(la).then_some(CARD));
            let failed: Vec<bool> = (0..n).map(|i| !ok[i] && below(2) == 0).collect();
            let full = select(&log, &failed, CARD, on_card);
            let survivors: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
            let pruned_log: Vec<LoggedAction> = survivors.iter().map(|&i| log[i].clone()).collect();
            let pruned_failed: Vec<bool> = survivors.iter().map(|&i| failed[i]).collect();
            let pruned = select(&pruned_log, &pruned_failed, CARD, on_card);
            let describe = |la: &LoggedAction| match &la.op {
                LoggedOp::Xfer {
                    buf, range, from, ..
                } => format!(
                    "{} {}[{range:?}]",
                    if from.is_host() { "h2d" } else { "d2h" },
                    buf.0
                ),
                LoggedOp::Compute { operands, .. } => format!(
                    "{} {:?}",
                    if on_card(la) { "card" } else { "host" },
                    operands
                        .iter()
                        .map(|o| format!("{:?} {}[{:?}]", o.access, o.buffer.0, o.range))
                        .collect::<Vec<_>>()
                ),
                LoggedOp::Sync => "sync".to_string(),
            };
            let what = format!(
                "completed at the pruning {ok:?}, failed at the loss {failed:?}, of {:#?}",
                log.iter().map(describe).collect::<Vec<_>>()
            );
            for i in 0..n {
                assert!(keep[i] || !full[i], "{what}: entry {i} pruned but replayed");
            }
            let full_on_survivors: Vec<bool> = survivors.iter().map(|&i| full[i]).collect();
            assert_eq!(pruned, full_on_survivors, "{what}: survivors {survivors:?}");
        }
    }

    #[test]
    fn hazards_order_conflicts_and_let_readers_share() {
        let fp = |write| vec![FootprintItem::new(DomainId::HOST, X, 0..64, write)];
        let mut h = Hazards::default();
        let mut deps = Vec::new();
        h.order(10, &fp(true), &mut deps);
        assert!(deps.is_empty());
        h.order(11, &fp(false), &mut deps);
        assert_eq!(deps, vec![10], "read after write");
        deps.clear();
        h.order(12, &fp(false), &mut deps);
        assert_eq!(deps, vec![10], "readers do not order each other");
        deps.clear();
        h.order(13, &fp(true), &mut deps);
        assert_eq!(deps, vec![10, 11, 12], "write after reads and write");
        deps.clear();
        h.order(14, &fp(false), &mut deps);
        assert_eq!(
            deps,
            vec![13],
            "the covering write stands for what it covered"
        );
        deps.clear();
        let other = vec![FootprintItem::new(CARD, X, 0..64, true)];
        h.order(15, &other, &mut deps);
        assert!(deps.is_empty(), "another domain's copy is another location");
    }
}
