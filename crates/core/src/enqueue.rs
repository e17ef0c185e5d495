//! The front-end: how an action gets from an API call to the executor.
//!
//! Every public enqueue validates and resolves its arguments into a
//! [`BuiltAction`] and hands it to one core, [`HStreams::enqueue_built`]:
//! find dependences → reserve an event id → window the action → (all items
//! through) → mint the lifecycle records → submit → log → publish. A
//! single action is a batch of one; [`HStreams::enqueue_many`]
//! passes N and amortizes the shared-state traffic over them. The built
//! actions and the core's lists live in a per-thread [`Scratch`] reused
//! across calls and the reserved ids are written straight into the
//! caller's result slice, so neither shape allocates working storage of
//! its own. While the recovery log wants them, an action's log record is
//! encoded straight from what was built — its op by the builder, from the
//! caller's own terms, its head by the core once the dependences are known
//! ([`durable::Records`]) — so a durable enqueue allocates nothing more
//! than an in-memory one.

use crate::deps::{Footprint, FootprintItem};
use crate::durable::{self, Records};
use crate::events::EventView;
use crate::exec::{self, ActionSpec, FnId, RealXfer, SubmitOpts};
use crate::stream::{ActionKind, DepList};
use crate::types::{
    BufferId, CostHint, DomainId, Event, HsError, HsResult, Operand, OrderingMode, StreamId,
};
use crate::{HStreams, LoggedAction};
use bytes::Bytes;
use hs_chaos::RetryPolicy;
use hs_coi::CoiEvent;
use hs_obs::{ActionMeta, ObsAccess, ObsAction, ObsKind};
use std::cell::Cell;
use std::ops::Range;

/// Per-action options for [`HStreams::enqueue_many_opts`], applied to
/// every action of the call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActionOpts<'a> {
    /// Fail the action if it has not completed this long after submission
    /// (wall time in thread modes, virtual time in sim mode). Expiry fails
    /// the action with [`crate::FailureCause::Timeout`] and poisons
    /// dependents — never a silent hang.
    pub deadline: Option<std::time::Duration>,
    /// Retry budget for transient injected faults. Defaults to the armed
    /// fault plan's policy (or no retries when chaos is off).
    pub retry: Option<RetryPolicy>,
    /// Events, typically of other streams, that each action of the call
    /// orders after: extra dependence edges of those actions alone. Unlike
    /// [`HStreams::enqueue_event_wait`], no sync action is enqueued and
    /// later actions of the stream are not gated; a failed event poisons
    /// the actions as any dependence does. Every id must have been handed
    /// out before the call.
    pub after: &'a [Event],
}

/// One action of a batched [`HStreams::enqueue_many`] submission, in
/// source terms. The batch is validated all-or-nothing, analyzed
/// incrementally under **one** stream-window lock, and submitted to the
/// executor in one round-trip.
#[derive(Clone)]
pub enum BatchAction {
    /// [`HStreams::enqueue_compute`].
    Compute {
        func: String,
        args: Bytes,
        operands: Vec<Operand>,
        cost: CostHint,
    },
    /// [`HStreams::enqueue_xfer`].
    Xfer {
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    },
    /// [`HStreams::enqueue_marker`].
    Marker,
    /// [`HStreams::enqueue_event_wait`]. The awaited events must exist
    /// *before* the batch (batch-internal ids are not knowable by the
    /// caller — intra-batch ordering is already carried by the FIFO +
    /// operand semantics).
    EventWait { events: Vec<Event> },
}

/// An action that passed validation: what [`HStreams::enqueue_built`]
/// enqueues.
pub(crate) struct BuiltAction {
    spec: ActionSpec,
    footprint: Footprint,
    kind: ActionKind,
    /// The events an event-wait names (empty for every other kind).
    waits: DepList,
    /// The action's op in the log's encoding — its range of
    /// [`Built::ops`] — when the recovery log wants it.
    op: Option<Range<usize>>,
    /// Filled in by the core: the action's slice of the call's dependence
    /// list.
    deps: Range<usize>,
}

impl BuiltAction {
    fn new(
        spec: ActionSpec,
        footprint: Footprint,
        kind: ActionKind,
        waits: &[Event],
        op: Option<Range<usize>>,
    ) -> BuiltAction {
        let mut list = DepList::new();
        list.extend_from_slice(waits);
        BuiltAction {
            spec,
            footprint,
            kind,
            waits: list,
            op,
            deps: 0..0,
        }
    }
}

/// The actions of one enqueue call, validated, in order.
#[derive(Default)]
pub(crate) struct Built {
    actions: Vec<BuiltAction>,
    /// The actions' ops in the log's encoding, back to back; written only
    /// while the recovery log wants them.
    ops: Vec<u8>,
}

impl Built {
    /// Encode one op at the end of [`Built::ops`]; its range.
    fn encode(&mut self, op: impl FnOnce(&mut Vec<u8>)) -> Range<usize> {
        let start = self.ops.len();
        op(&mut self.ops);
        start..self.ops.len()
    }
}

/// Working storage of one enqueue call, one per source thread.
#[derive(Default)]
struct Scratch {
    /// The call's actions, in order.
    built: Built,
    /// The action being enqueued's dependences, as event ids: kept here so
    /// a window wider than its inline list spills once per thread, not once
    /// per call.
    dep_events: DepList,
    /// Every action's dependences, back to back (actions hold their range).
    deps: Vec<exec::BatchDep>,
    /// The actions' lifecycle metadata, index-aligned with `built` (empty
    /// while obs is off).
    metas: Vec<ActionMeta>,
    /// The call's log records, while the recovery log wants them.
    records: Records,
    /// The records decoded for the replay mirror, while a card can be
    /// lost.
    mirror: Vec<LoggedAction>,
    /// The items' completion events, as the executor hands them back.
    backends: Vec<CoiEvent>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// The calling thread's [`Scratch`], taken for one enqueue. Dropping the
/// lease empties the lists — by whichever path the enqueue left, so no
/// stale entry pins an action's record — and hands the capacity back. (A
/// nested enqueue would find an empty scratch and grow its own.)
struct ScratchLease(Scratch);

impl ScratchLease {
    fn take() -> ScratchLease {
        ScratchLease(SCRATCH.try_with(Cell::take).unwrap_or_default())
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        let sc = &mut self.0;
        sc.built.actions.clear();
        sc.built.ops.clear();
        sc.dep_events.clear();
        sc.deps.clear();
        sc.metas.clear();
        sc.records.clear();
        sc.mirror.clear();
        sc.backends.clear();
        let _ = SCRATCH.try_with(|cell| cell.set(std::mem::take(sc)));
    }
}

impl HStreams {
    /// Do enqueue-time labels carry content? Skipped (empty) unless
    /// something reads them: labels only surface through obs records
    /// (hsan's traces and the span fold included) and chaos diagnostics,
    /// in either executor mode.
    fn wants_labels(&self) -> bool {
        self.inner.obs.is_enabled() || self.inner.chaos.is_armed()
    }

    // ------------------------------------------------------- public enqueues

    /// Enqueue a compute action. `operands` drive the dependence analysis;
    /// `cost` drives the virtual-time executor ([`CostHint::trivial`] for
    /// real-mode-only code).
    pub fn enqueue_compute(
        &self,
        s: StreamId,
        func: &str,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
    ) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_compute");
        self.enqueue_one(s, ActionOpts::default(), |built| {
            self.built_compute(built, s, func.into(), args, operands, cost)
        })
    }

    /// Enqueue a data transfer of `buf[range]` from `from`'s instantiation
    /// to `to`'s. Same-domain transfers are aliased away (host-as-target
    /// optimization). Card↔card is rejected; route via the host.
    pub fn enqueue_xfer(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    ) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_xfer");
        self.enqueue_one(s, ActionOpts::default(), |built| {
            self.built_xfer(built, buf, range, from, to)
        })
    }

    /// Transfer from the host instantiation to the stream's sink domain.
    pub fn xfer_to_sink(&self, s: StreamId, buf: BufferId, range: Range<usize>) -> HsResult<Event> {
        let to = self.stream_domain(s)?;
        self.enqueue_xfer(s, buf, range, DomainId::HOST, to)
    }

    /// Transfer from the stream's sink domain back to the host.
    pub fn xfer_to_source(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
    ) -> HsResult<Event> {
        let from = self.stream_domain(s)?;
        self.enqueue_xfer(s, buf, range, from, DomainId::HOST)
    }

    /// Enqueue a synchronization action: later actions in stream `s` wait
    /// until all of `events` (typically from *other* streams) complete.
    /// Prior actions of `s` are unaffected and keep executing out of order
    /// — this is hStreams' non-serializing cross-stream dependence
    /// mechanism (streams imply nothing about each other by themselves).
    pub fn enqueue_event_wait(&self, s: StreamId, events: &[Event]) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_event_wait");
        self.enqueue_one(s, ActionOpts::default(), |built| {
            self.built_sync(built, ActionKind::EventWait, events);
            Ok(())
        })
    }

    /// Enqueue a stream marker: it completes when **every** action already
    /// enqueued in `s` has completed, and later actions in `s` order after
    /// it (CUDA's `cudaEventRecord` shape; also a full intra-stream fence).
    pub fn enqueue_marker(&self, s: StreamId) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_marker");
        self.enqueue_one(s, ActionOpts::default(), |built| {
            self.built_sync(built, ActionKind::Marker, &[]);
            Ok(())
        })
    }

    /// Enqueue a batch of actions on one stream in a single front-end
    /// round-trip. Semantically identical to calling the per-action
    /// enqueues in order (same dependences, same event graph, same
    /// recorded trace), but the shared-state traffic is amortized across
    /// the batch: one world-lock share, one stream-window lock (with one
    /// retirement sweep), one executor hand-off, one recovery-log lock —
    /// and intra-batch dependences are wired directly to the batch's
    /// freshly minted backend events without re-reading the event table.
    ///
    /// Returns the actions' events, index-aligned with `actions`. On any
    /// validation error nothing is enqueued (all-or-nothing).
    pub fn enqueue_many(&self, s: StreamId, actions: Vec<BatchAction>) -> HsResult<Vec<Event>> {
        self.enqueue_many_opts(s, actions, ActionOpts::default())
    }

    /// Like [`HStreams::enqueue_many`], with a deadline, a retry budget
    /// and/or [`ActionOpts::after`] edges applied to every action of the
    /// batch.
    pub fn enqueue_many_opts(
        &self,
        s: StreamId,
        actions: Vec<BatchAction>,
        opts: ActionOpts<'_>,
    ) -> HsResult<Vec<Event>> {
        self.inner.stats.bump("enqueue_many");
        let mut evs = vec![Event(0); actions.len()];
        // Every action is validated and resolved before the stream window
        // is touched, so an invalid item enqueues nothing.
        self.enqueue_actions(s, opts, &mut evs, |built| {
            for a in actions {
                match a {
                    BatchAction::Compute {
                        func,
                        args,
                        operands,
                        cost,
                    } => {
                        self.built_compute(built, s, func.as_str().into(), args, &operands, cost)?
                    }
                    BatchAction::Xfer {
                        buf,
                        range,
                        from,
                        to,
                    } => self.built_xfer(built, buf, range, from, to)?,
                    BatchAction::Marker => self.built_sync(built, ActionKind::Marker, &[]),
                    BatchAction::EventWait { events } => {
                        self.built_sync(built, ActionKind::EventWait, &events)
                    }
                }
            }
            Ok(())
        })?;
        Ok(evs)
    }

    // ---------------------------------------------------------- the builders
    //
    // Each validates one action and pushes it onto the call's list.

    pub(crate) fn built_compute(
        &self,
        built: &mut Built,
        s: StreamId,
        func: FnId,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
    ) -> HsResult<()> {
        let op = self.log_actions().then(|| {
            built.encode(|out| durable::encode_compute(out, func.name(), &args, operands, cost))
        });
        let (spec, footprint) = self.build_compute_spec(s, func, args, operands, cost)?;
        let action = BuiltAction::new(spec, footprint, ActionKind::Normal, &[], op);
        built.actions.push(action);
        Ok(())
    }

    pub(crate) fn built_xfer(
        &self,
        built: &mut Built,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    ) -> HsResult<()> {
        let op = self
            .log_actions()
            .then(|| built.encode(|out| durable::encode_xfer(out, buf, &range, from, to)));
        let (spec, footprint) = self.build_xfer_spec(buf, range, from, to)?;
        let action = BuiltAction::new(spec, footprint, ActionKind::Normal, &[], op);
        built.actions.push(action);
        Ok(())
    }

    /// A marker, or an event-wait on `waits` (whose ids the core checks
    /// against the event table).
    fn built_sync(&self, built: &mut Built, kind: ActionKind, waits: &[Event]) {
        let op = self
            .log_actions()
            .then(|| built.encode(durable::encode_sync));
        let action = BuiltAction::new(ActionSpec::Noop, Footprint::new(), kind, waits, op);
        built.actions.push(action);
    }

    /// Validate + resolve a compute action against the stream's *current*
    /// domain (shared by enqueue and card-loss replay, which re-resolves on
    /// the remapped stream).
    pub(crate) fn build_compute_spec(
        &self,
        s: StreamId,
        func: FnId,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
    ) -> HsResult<(ActionSpec, Footprint)> {
        let (domain, device, cores) = {
            let st_arc = self.stream_arc(s)?;
            let st = st_arc.lock();
            let dev = self.inner.platform.domains[st.domain.0].device;
            (st.domain, dev, st.cores())
        };
        // Validate + resolve operands.
        let mut footprint = Footprint::new();
        let mut bufs = exec::BufList::new();
        let real = self.inner.exec.coi().is_some();
        let buffers = self.inner.buffers.read();
        for op in operands {
            let rec = buffers.get(op.buffer)?;
            rec.check_range(&op.range)?;
            if rec.props.read_only && op.access.is_write() {
                return Err(HsError::InvalidArg(format!(
                    "write operand on read-only buffer {:?}",
                    op.buffer
                )));
            }
            if !rec.is_instantiated(domain) {
                return Err(HsError::NotInstantiated(op.buffer, domain));
            }
            // Overlapping operands within ONE action would self-conflict at
            // the sink's range locks (read+write of the same bytes by the
            // same task); reject eagerly with a clear error instead.
            for prev in &footprint {
                if prev.buffer == op.buffer
                    && prev.range.start < op.range.end
                    && op.range.start < prev.range.end
                    && (prev.write || op.access.is_write())
                {
                    return Err(HsError::InvalidArg(format!(
                        "operands of one task overlap with a write on buffer {:?}                          ({:?} vs {:?}); pass a single merged operand instead",
                        op.buffer, prev.range, op.range
                    )));
                }
            }
            footprint.push(FootprintItem::new(
                domain,
                op.buffer,
                op.range.clone(),
                op.access.is_write(),
            ));
            if real {
                let w = rec.window(domain)?;
                bufs.push((w.id(), op.range.clone(), op.access.is_write()));
            }
        }
        let label = if self.wants_labels() {
            format!("{}@{}s{}", func.name(), device.short(), s.0)
        } else {
            String::new()
        };
        let spec = ActionSpec::Compute {
            stream_idx: s.0 as usize,
            device,
            cores,
            func,
            args,
            bufs,
            cost,
            label,
        };
        Ok((spec, footprint))
    }

    /// Validate + resolve a transfer (shared by enqueue and card-loss
    /// replay). An endpoint on a card that was lost and degraded is the host
    /// from then on: the card's copy of a buffer *is* the host's copy
    /// ([`crate::replay`]), so a host→card re-stage becomes an elided host
    /// alias and a card→host result lands straight from the host run of its
    /// producer — for the actions degradation replays and for whatever the
    /// application enqueues afterwards alike.
    pub(crate) fn build_xfer_spec(
        &self,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    ) -> HsResult<(ActionSpec, Footprint)> {
        for d in [from, to] {
            if d.0 >= self.inner.platform.domains.len() {
                return Err(HsError::UnknownDomain(d));
            }
        }
        let buffers = self.inner.buffers.read();
        let rec = buffers.get(buf)?;
        rec.check_range(&range)?;
        // Degradation drops the lost card's instantiations, so the degraded
        // set is consulted only on the way to `NotInstantiated`.
        let surviving = |d: DomainId| {
            if rec.is_instantiated(d) {
                return Ok(d);
            }
            let degraded = self.inner.degraded.lock().contains(&(d.0 as u32));
            if degraded && rec.is_instantiated(DomainId::HOST) {
                Ok(DomainId::HOST)
            } else {
                Err(HsError::NotInstantiated(buf, d))
            }
        };
        let (from, to) = (surviving(from)?, surviving(to)?);
        let elide = from == to;
        let card_domain = if elide {
            None
        } else {
            match (from.is_host(), to.is_host()) {
                (true, false) => Some(to.0),
                (false, true) => Some(from.0),
                (true, true) => None,
                (false, false) => return Err(HsError::CardToCard),
            }
        };
        let h2d = !to.is_host();
        let bytes = range.len();
        let real = if self.inner.exec.coi().is_some() && !elide {
            let src = rec.window(from)?;
            let dst = rec.window(to)?;
            Some(RealXfer {
                src: (src.id(), range.start),
                dst: (dst.id(), range.start),
            })
        } else {
            None
        };
        let mut footprint = Footprint::new();
        footprint.push(FootprintItem::new(from, buf, range.clone(), false));
        if !elide {
            footprint.push(FootprintItem::new(to, buf, range.clone(), true));
        }
        let label = if self.wants_labels() {
            format!("xfer:{}:d{}->d{}", rec.label(), from.0, to.0)
        } else {
            String::new()
        };
        let spec = ActionSpec::Transfer {
            card_domain,
            h2d,
            bytes,
            real,
            label,
        };
        Ok((spec, footprint))
    }

    // --------------------------------------------------------------- the core

    /// Enqueue one action: a batch of one, its event returned by value.
    pub(crate) fn enqueue_one(
        &self,
        s: StreamId,
        opts: ActionOpts<'_>,
        build: impl FnOnce(&mut Built) -> HsResult<()>,
    ) -> HsResult<Event> {
        let mut ev = [Event(0)];
        self.enqueue_actions(s, opts, &mut ev, build)?;
        Ok(ev[0])
    }

    /// Build the actions under the world lock (shared: card-loss
    /// degradation, which remaps streams and drops instantiations, holds it
    /// exclusively), enqueue them, and run the amortized compaction check.
    /// `build` pushes one action per slot of `out`.
    fn enqueue_actions(
        &self,
        s: StreamId,
        opts: ActionOpts<'_>,
        out: &mut [Event],
        build: impl FnOnce(&mut Built) -> HsResult<()>,
    ) -> HsResult<()> {
        if out.is_empty() {
            return Ok(());
        }
        {
            let mut lease = ScratchLease::take();
            let _world = self.inner.world.read();
            build(&mut lease.0.built)?;
            self.enqueue_built(s, &mut lease.0, opts, out)?;
        }
        self.maybe_compact();
        Ok(())
    }

    /// The enqueue hot path, for one action or many. Caller holds the world
    /// lock (shared) and has fully validated the actions in `sc.built`;
    /// their events are written to `out`, index-aligned.
    ///
    /// * **one** stream-window lock and **one** retirement sweep per call;
    /// * dependence analysis is incremental (item *i* is pushed into the
    ///   window before item *i+1*'s `find_deps`), and dependences on the
    ///   call's own items resolve to [`exec::BatchDep::Internal`] — no
    ///   event-table round-trip;
    /// * **one** executor hand-off ([`exec::Executor::submit_batch`]) and **one**
    ///   recovery-log lock for all logged items, whose records are encoded
    ///   before it is taken;
    /// * all events publish before the stream lock is released, so
    ///   concurrent observers never see a window entry without its slot;
    /// * all-or-nothing: the one check that can fail, an event-wait or an
    ///   [`ActionOpts::after`] edge on an id the table has not handed out,
    ///   runs before the first id is reserved — a failed call reserves,
    ///   submits and publishes nothing.
    fn enqueue_built(
        &self,
        s: StreamId,
        sc: &mut Scratch,
        opts: ActionOpts<'_>,
        out: &mut [Event],
    ) -> HsResult<()> {
        let inner = &*self.inner;
        let st_arc = self.stream_arc(s)?;
        let submit_opts = self.submit_opts(&opts);
        // Every wait and edge names an id handed out before this call — so
        // none of the call's own — or the call fails here, before it
        // reserves one.
        let known = inner.events.len();
        let waits = sc.built.actions.iter().flat_map(|item| item.waits.iter());
        if let Some(unknown) = waits.chain(opts.after).find(|e| e.0 >= known) {
            return Err(HsError::UnknownEvent(*unknown));
        }
        // One timestamp for the whole call (sim mode: one executor lock).
        let now_ns = inner.obs.is_enabled().then(|| self.source_now_ns());
        // Fine-grained per-stream window: contention here means multiple
        // source threads feed the *same* stream (distinct streams never
        // touch each other's locks on this path).
        let mut st = match st_arc.try_lock() {
            Some(g) => g,
            None => {
                inner.contended.incr();
                st_arc.lock()
            }
        };
        st.retire(|e| self.event_retired_ok(e));
        let dep_events = &mut sc.dep_events;
        for (n, item) in sc.built.actions.iter_mut().enumerate() {
            let (kind, waits) = (item.kind, &item.waits);
            let footprint = &item.footprint;
            // Event-waits depend on the awaited events plus the pending sync
            // barrier, if any (out-of-order mode: the wait replaces
            // `last_barrier`, so it must chain on the old one or a marker's
            // gate would be severed for post-wait actions) — and under
            // StrictFifo on the stream's previous action, or the strict
            // chain would break at every wait. Markers depend on everything
            // pending; normal actions on their operand conflicts (or the
            // chain, in strict mode). Every action of the call adds the
            // `after` edges, which gate it alone.
            dep_events.clear();
            let redundant = match kind {
                ActionKind::EventWait => match inner.ordering {
                    OrderingMode::OutOfOrder => {
                        dep_events.extend_from_slice(st.sync_chain().as_slice());
                        0
                    }
                    OrderingMode::StrictFifo => {
                        st.find_deps(footprint, false, inner.ordering, dep_events)
                    }
                },
                ActionKind::Marker => st.find_deps(footprint, true, inner.ordering, dep_events),
                ActionKind::Normal => st.find_deps(footprint, false, inner.ordering, dep_events),
            };
            if redundant != 0 {
                inner.redundant.add(redundant);
            }
            dep_events.extend_from_slice(waits.as_slice());
            dep_events.extend_from_slice(opts.after);
            dep_events.sort_dedup();
            // Dependences on the call's own items point at
            // reserved-but-unpublished slots; route them straight to the
            // items' completion events. Everything else resolves through
            // the table.
            let first_dep = sc.deps.len();
            for e in dep_events.iter() {
                if let Some(j) = out[..n].iter().position(|id| id == e) {
                    sc.deps.push(exec::BatchDep::Internal(j));
                    continue;
                }
                match inner.events.view(*e) {
                    EventView::Live(be) => sc.deps.push(exec::BatchDep::External(be)),
                    // Tombstoned = completed success: nothing to wait on.
                    EventView::Retired => {}
                    // Only an awaited event whose slot another thread is
                    // still publishing: its enqueue has not returned, so
                    // it cannot be a dependence source yet. Intra-stream
                    // dependences are always published (same stream lock).
                    EventView::Missing => {}
                }
            }
            // Minted under the stream lock: a stream's ids ascend in enqueue
            // order (`StreamState::push` checks it).
            let id = inner.events.reserve();
            // Described while the footprint is at hand; minted once the whole
            // call has passed its checks.
            if now_ns.is_some() {
                let waits = waits.iter().chain(opts.after);
                let meta = self.obs_meta(s, id, kind, &item.spec, footprint, waits);
                sc.metas.push(meta);
            }
            if let Some(op) = item.op.clone() {
                let (retry, deps) = (&submit_opts.retry, dep_events.as_slice());
                sc.records.push(id, s, retry, deps, &sc.built.ops[op]);
            }
            out[n] = Event(id);
            item.deps = first_dep..sc.deps.len();
            // Window the item *now* so the next item's find_deps sees it.
            st.push(Event(id), footprint, kind);
        }
        // Every check has passed: the call's actions count as enqueued.
        for item in sc.built.actions.iter() {
            match &item.spec {
                ActionSpec::Compute { .. } => inner.stats.note_compute(),
                ActionSpec::Transfer { card_domain, .. } => {
                    inner.stats.note_transfer(card_domain.is_none())
                }
                ActionSpec::Noop => inner.stats.note_sync(),
            }
        }
        // One executor round-trip. Specs are taken out of their slots, not
        // drained through the list by value: a spec is a few hundred bytes,
        // and this path runs per action. Each lifecycle record is minted as
        // the executor takes its item — ahead of the phases the fast path
        // emits inside submit.
        let mut metas = sc.metas.drain(..);
        let items = sc.built.actions.iter_mut().map(|b| exec::BatchSubmitItem {
            spec: std::mem::replace(&mut b.spec, ActionSpec::Noop),
            deps: b.deps.clone(),
            obs: metas
                .next()
                .map_or_else(ObsAction::disabled, |meta| self.mint_obs(meta, now_ns)),
        });
        inner
            .exec
            .submit_batch(items, &sc.deps, submit_opts, &mut sc.backends);
        if !sc.records.is_empty() {
            // The replay mirror, decoded from the very bytes the WAL gets —
            // outside the lock, and only while a card loss could replay it.
            if self.can_lose_card() {
                sc.records.decode_into(&mut sc.mirror);
            }
            inner.recovery.lock().append(&sc.records, &mut sc.mirror);
        }
        // Publish everything before the stream lock drops.
        for (ev, be) in out.iter().zip(sc.backends.drain(..)) {
            inner.events.publish(ev.0, be);
        }
        Ok(())
    }

    /// Resolve per-action options against the armed plan's defaults.
    fn submit_opts(&self, opts: &ActionOpts<'_>) -> SubmitOpts {
        SubmitOpts {
            deadline_ns: opts.deadline.map(|d| d.as_nanos() as u64),
            retry: opts.retry.unwrap_or_else(|| {
                if self.inner.chaos.is_armed() {
                    self.inner.chaos.default_retry()
                } else {
                    RetryPolicy::none()
                }
            }),
        }
    }

    /// The lifecycle metadata of action `event` (stream `s`, ordering
    /// `order`), about to be submitted: what the Chrome export draws and
    /// what `hsan` folds ([`crate::record`]).
    pub(crate) fn obs_meta<'w>(
        &self,
        s: StreamId,
        event: u64,
        order: ActionKind,
        spec: &ActionSpec,
        footprint: &Footprint,
        waits: impl Iterator<Item = &'w Event>,
    ) -> ActionMeta {
        let (kind, card, h2d, bytes) = match spec {
            ActionSpec::Compute { .. } => (
                ObsKind::Compute,
                None,
                false,
                footprint.iter().map(|f| f.range.len() as u64).sum(),
            ),
            ActionSpec::Transfer {
                card_domain,
                h2d,
                bytes,
                ..
            } => (
                ObsKind::Transfer,
                card_domain.map(|c| c as u32),
                *h2d,
                *bytes as u64,
            ),
            ActionSpec::Noop => (ObsKind::Sync, None, false, 0),
        };
        ActionMeta {
            stream: s.0,
            event,
            kind,
            order,
            card,
            h2d,
            bytes,
            footprint: footprint
                .iter()
                .map(|f| ObsAccess {
                    domain: f.domain.0,
                    buffer: f.buffer.0,
                    range: f.range.clone(),
                    write: f.write,
                })
                .collect(),
            waits: waits.map(|e| e.0).collect(),
            label: spec.label().to_string(),
        }
    }

    /// Record an action's enqueue and mint its lifecycle handle (inert when
    /// tracing is off). `now_ns` is a pre-captured source timestamp — an
    /// enqueue stamps all its actions with one [`Self::source_now_ns`]
    /// reading instead of one clock round-trip (and, in sim mode, one
    /// executor lock) per action.
    pub(crate) fn mint_obs(&self, meta: ActionMeta, now_ns: Option<u64>) -> ObsAction {
        let now = now_ns.unwrap_or_else(|| self.source_now_ns());
        self.inner.obs.action(meta, now)
    }
}
