//! Replay of logged actions: which of them re-run, and in what order —
//! after a card's memory is gone (degradation) and after the host process
//! itself died (WAL recovery).
//!
//! **One ordering rule.** The recovery log is appended under the `Recovery`
//! lock while the enqueuing thread still holds its stream's lock, so *log
//! order is a valid sequential order of the program* for any number of
//! source threads: whatever one thread observed complete before it
//! enqueued — through an event, a `stream_synchronize`, a join — is
//! earlier in the log. [`in_log_order`] walks a log in that order and gives
//! each replayed entry its dependences: the ones logged at enqueue plus
//! every earlier replayed entry its footprint conflicts with ([`Hazards`]).
//! Both replays are that walk with a different sink — degradation submits
//! to the executor and overwrites the event slot, recovery calls the
//! public enqueues — and neither keeps an ordering rule of its own.
//!
//! **Which entries re-run after a card loss** comes from the *operands* in
//! the log, not from its enqueue-time dependence lists: those omit every
//! producer that had already retired when its consumer was enqueued (and
//! every edge a covering writer made transitive), so what they contain
//! depends on timing.
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

use crate::deps::{Footprint, FootprintItem};
use crate::durable::RecoveryReport;
use crate::events::EventView;
use crate::exec::{self, ActionSpec, SubmitOpts};
use crate::stream::ActionKind;
use crate::types::{BufferId, DomainId, Event, HsResult};
use crate::{ActionOpts, HStreams, LoggedAction, LoggedOp};
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

/// The conflicts among replayed actions. Re-derived from their footprints
/// because the logged dependences are not enough: an edge onto a producer
/// that had completed at enqueue time was never recorded, nothing records
/// that the source thread itself waited between two enqueues, and with a
/// lost card's copies folded into the host's two actions can conflict that
/// never shared a location before.
#[derive(Default)]
struct Hazards {
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
    fn order(&mut self, ev: u64, footprint: &[FootprintItem], deps: &mut Vec<u64>) {
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

/// One entry of a replay: what `resolve` made of it — the action to submit
/// and the footprint it has *now* — and the old ids of the events it waits
/// for, sorted.
pub(crate) struct Replayed<T> {
    pub action: T,
    pub footprint: Footprint,
    pub deps: Vec<u64>,
}

/// Walk `log` in log order and yield each selected entry with its replay
/// dependences: the logged ones plus every earlier yielded entry it
/// conflicts with. A dependence that is not itself replayed is complete —
/// it points backwards in an order the program was already held to. An
/// entry `resolve` refuses is yielded as that error and orders nothing.
pub(crate) fn in_log_order<'a, T, E>(
    log: &'a [LoggedAction],
    selected: impl Fn(usize) -> bool + 'a,
    mut resolve: impl FnMut(&LoggedAction) -> Result<(T, Footprint), E> + 'a,
) -> impl Iterator<Item = (&'a LoggedAction, Result<Replayed<T>, E>)> + 'a {
    let mut hazards = Hazards::default();
    let entries = log.iter().enumerate().filter(move |(i, _)| selected(*i));
    entries.map(move |(_, la)| {
        let step = resolve(la).map(|(action, footprint)| {
            let mut deps = la.deps.clone();
            hazards.order(la.ev, &footprint, &mut deps);
            deps.sort_unstable();
            deps.dedup();
            Replayed {
                action,
                footprint,
                deps,
            }
        });
        (la, step)
    })
}

impl HStreams {
    /// A logged action against the runtime as it stands now: streams a
    /// degradation remapped resolve on the host, endpoints on a lost card
    /// are the host.
    fn resolve_logged(&self, la: &LoggedAction) -> HsResult<(ActionSpec, Footprint)> {
        match &la.op {
            LoggedOp::Compute {
                func,
                args,
                operands,
                cost,
            } => {
                let func = func.as_str().into();
                self.build_compute_spec(la.stream, func, args.clone(), operands, *cost)
            }
            LoggedOp::Xfer {
                buf,
                range,
                from,
                to,
            } => self.build_xfer_spec(*buf, range.clone(), *from, *to),
            LoggedOp::Sync => Ok((ActionSpec::Noop, Footprint::new())),
        }
    }

    /// Select and re-submit the actions invalidated by losing `dom`: every
    /// failed action, plus the successful computes of the lost card whose
    /// results a replayed action needs and no card→host transfer had
    /// brought home ([`select`]; `on_card[i]` says stream `i` sat on
    /// `dom`). Replays run in log order and overwrite the event-table slot
    /// in place, so application-held [`Event`] handles transparently track
    /// the replayed attempt.
    pub(crate) fn replay_after_loss(&self, dom: DomainId, on_card: &[bool]) -> HsResult<u32> {
        let inner = &*self.inner;
        // Snapshot under a short lock; the rest of the replay touches
        // streams/buffers and must respect the lock order.
        let log: Vec<LoggedAction> = inner.recovery.lock().entries().to_vec();
        let failed: Vec<bool> = log
            .iter()
            .map(|la| match inner.events.view_id(la.ev) {
                EventView::Live(ev, _) => ev.is_complete() && !ev.completed_ok(),
                _ => false, // retired = success; missing = never published
            })
            .collect();
        let in_set = select(&log, &failed, dom, |la| {
            on_card.get(la.stream.0 as usize).copied().unwrap_or(false)
        });
        let mut replayed = 0u32;
        for (la, step) in in_log_order(&log, |i| in_set[i], |la| self.resolve_logged(la)) {
            let step = step?;
            // Replayed dependences already point at their replayed events;
            // untouched ones are complete (quiesced) successes — including
            // tombstoned ones, which need no backend handle at all.
            let deps: Vec<exec::BatchDep> = step
                .deps
                .iter()
                .filter_map(|d| match inner.events.view_id(*d) {
                    EventView::Live(be, _) => Some(exec::BatchDep::External(be)),
                    _ => None,
                })
                .collect();
            // A lifecycle of its own, behind the original event.
            let obs = inner.obs.is_enabled().then(|| {
                let kind = match la.op {
                    LoggedOp::Sync => ActionKind::EventWait,
                    _ => ActionKind::Normal,
                };
                let (s, ev) = (la.stream, la.ev);
                let meta = self.obs_meta(s, ev, kind, &step.action, &step.footprint, &[]);
                self.mint_obs(meta, None)
            });
            // One action per hand-off: its event must be in the table
            // before the next replay resolves its dependences there.
            let item = exec::BatchSubmitItem {
                obs: obs.unwrap_or_default(),
                spec: step.action,
                deps: 0..deps.len(),
            };
            let opts = SubmitOpts {
                deadline_ns: None,
                retry: la.retry,
            };
            let mut done = Vec::with_capacity(1);
            inner
                .exec
                .submit_batch(std::iter::once(item), &deps, opts, &mut done);
            let backend = done.pop().expect("one action in, one event out");
            inner.events.overwrite(la.ev, backend);
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Re-enqueue recovered actions — `actions` is the crashed run's log,
    /// or a prefix of it — through the public enqueues, in log order. An
    /// enqueue re-derives the dependences inside its own stream from the
    /// operands; the ones that cross streams are issued first, as one
    /// [`HStreams::enqueue_cross_wait`] on the replayed events (an event
    /// of the stream itself, or one already complete, is dropped there). A
    /// `Sync` entry waits on its logged dependences alone. A dependence
    /// absent from the recovered set was complete before the crash. An
    /// entry is resolved here for its footprint — which also refuses one
    /// that cannot run before any wait is enqueued on its behalf — and once
    /// more by the enqueue that takes it; recovery is not a hot path.
    pub(crate) fn replay_recovered(&self, actions: &[LoggedAction], report: &mut RecoveryReport) {
        let mut mapped: HashMap<u64, Event> = HashMap::new();
        for (la, step) in in_log_order(actions, |_| true, |la| self.resolve_logged(la)) {
            let s = la.stream;
            let opts = ActionOpts {
                deadline: None,
                retry: Some(la.retry),
            };
            let replay = step.and_then(|step| {
                let deps: Vec<Event> = step
                    .deps
                    .iter()
                    .filter_map(|d| mapped.get(d).copied())
                    .collect();
                match &la.op {
                    // Every awaited event predates the recovered set: the
                    // wait is satisfied by construction.
                    LoggedOp::Sync if deps.is_empty() => Ok(None),
                    LoggedOp::Sync => self.enqueue_event_wait(s, &deps).map(Some),
                    LoggedOp::Compute {
                        func,
                        args,
                        operands,
                        cost,
                    } => {
                        self.enqueue_cross_wait(s, &deps)?;
                        self.inner.stats.bump("enqueue_compute");
                        self.enqueue_one(s, opts, |b| {
                            let func = func.as_str().into();
                            self.built_compute(b, s, func, args.clone(), operands, *cost)
                        })
                        .map(Some)
                    }
                    LoggedOp::Xfer {
                        buf,
                        range,
                        from,
                        to,
                    } => {
                        self.enqueue_cross_wait(s, &deps)?;
                        self.inner.stats.bump("enqueue_xfer");
                        self.enqueue_one(s, opts, |b| {
                            self.built_xfer(b, *buf, range.clone(), *from, *to)
                        })
                        .map(Some)
                    }
                }
            });
            match replay {
                Ok(ev) => {
                    mapped.extend(ev.map(|ev| (la.ev, ev)));
                    report.replayed += 1;
                }
                Err(e) => {
                    report.skipped += 1;
                    self.inner
                        .chaos
                        .note(format!("recover: replay of ev {} failed: {e}", la.ev));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// What `resolve_logged` does, without a runtime: a compute touches
    /// its operands on the card, a transfer reads one copy and writes the
    /// other.
    fn footprint(la: &LoggedAction) -> Result<((), Footprint), ()> {
        Ok((
            (),
            match &la.op {
                LoggedOp::Compute { operands, .. } => operands
                    .iter()
                    .map(|o| {
                        FootprintItem::new(CARD, o.buffer, o.range.clone(), o.access.is_write())
                    })
                    .collect(),
                LoggedOp::Xfer {
                    buf,
                    range,
                    from,
                    to,
                } => [
                    FootprintItem::new(*from, *buf, range.clone(), false),
                    FootprintItem::new(*to, *buf, range.clone(), true),
                ]
                .into_iter()
                .collect(),
                LoggedOp::Sync => Footprint::new(),
            },
        ))
    }

    #[test]
    fn the_walk_orders_by_log_position_and_adds_the_edges_nobody_logged() {
        // A round on one stream, then — the source waited in between, which
        // no record says — an h2d on another, enqueued by a thread whose
        // event ids are *lower*. Its one logged dependence predates the log.
        let mut late = xfer(3, DomainId::HOST, CARD);
        late.stream = StreamId(2);
        late.deps = vec![1];
        let log = vec![
            xfer(32, DomainId::HOST, CARD),
            bump(33, CARD_STREAM, Acc::InOut),
            xfer(34, CARD, DomainId::HOST),
            late,
        ];
        let deps_of = |selected: &[usize]| -> Vec<(u64, Vec<u64>)> {
            in_log_order(&log, |i| selected.contains(&i), footprint)
                .map(|(la, step)| (la.ev, step.expect("resolves").deps))
                .collect()
        };
        assert_eq!(
            deps_of(&[0, 1, 2, 3]),
            vec![
                (32, vec![]),
                (33, vec![32]),
                // Reads what 33 wrote, overwrites the host copy 32 read.
                (34, vec![32, 33]),
                // Reads what 34 wrote on the host, overwrites what 33 wrote
                // and 34 read on the card; 32 is behind covering writes.
                (3, vec![1, 33, 34]),
            ]
        );
        // Only replayed entries order anything: the others are complete.
        assert_eq!(deps_of(&[1, 3]), vec![(33, vec![]), (3, vec![1, 33])]);
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
