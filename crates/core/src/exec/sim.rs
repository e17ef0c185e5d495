//! The virtual clock and the model service.
//!
//! Sim mode runs the executor's one action state machine
//! ([`super::thread`]) on virtual time: a dependence countdown that reaches
//! zero, a retry backoff, a deadline and the submit instant are all events
//! on [`hs_sim`]'s heap. The service is the calibrated
//! [`hs_machine::CostModel`]: each stream sink is a serial server gated on
//! its domain's cores, each card link a pair of DMA-direction servers. This
//! is what regenerates the paper's figures: the schedule (who waits for
//! whom, what overlaps) is produced by the real hStreams dependence
//! machinery; only the per-action durations are modelled.
//!
//! The clock also models a busy *source*: every enqueue advances a source
//! clock by the per-action enqueue overhead (§III), and synchronous costs —
//! buffer instantiation, a layered runtime's per-task bookkeeping — are
//! charged to the same clock (`VirtualClock::charge_source`).
//!
//! Heap events run while the stepping thread holds the clock's lock and
//! `&mut Sim`, so what they start cannot reach the heap directly: a ready
//! action, a retry, an attempt handed to the model lands in the clock's
//! inbox, and the clock turns each entry into a heap event at its instant
//! (or serves it, now) before the next step. A completion thus reaches a
//! dependent's dispatch through two same-instant hops — the job's event
//! completes the action, the dependent's attempt runs next — and ties on a
//! server or a domain's cores are broken by heap insertion order.

use super::thread::{ActionRun, Service, TimerJob};
use super::ActionSpec;
use crate::sync::{class, Arc, AtomicU64, ClassedMutex, Ordering};
use hs_chaos::{ChaosHub, FailureCause};
use hs_coi::CoiEvent;
use hs_machine::{CostModel, PlatformCfg};
use hs_obs::ObsPhase;
use hs_sim::{Dur, SemId, ServerId, Sim, Time};

struct CardRes {
    h2d: ServerId,
    d2h: ServerId,
    link: hs_machine::LinkSpec,
}

/// What a heap event leaves for the clock to do before the next step.
enum Due {
    /// Run this job at this virtual instant (ns).
    At(u64, TimerJob),
    /// Put this attempt on its model server, now.
    Serve(Arc<ActionRun>),
}

/// The heap and everything that changes with it.
struct Heap {
    sim: Sim,
    /// The source clock: when the source thread is free to issue again.
    source: Time,
    cost: CostModel,
    /// Per-domain core capacity gate: streams whose masks overlap (e.g. a
    /// machine-wide panel stream over worker streams) time-share the
    /// domain's physical cores instead of multiplying them.
    domain_sems: Vec<SemId>,
    domain_cores: Vec<u32>,
    cards: Vec<CardRes>,
}

/// Virtual time: hs-sim's event heap plus the source clock.
pub(super) struct VirtualClock {
    heap: ClassedMutex<class::SimExec, Heap>,
    /// The heap's now, published before each event runs: the time a
    /// lifecycle stamp or a retry taken inside the event reads.
    now_ns: AtomicU64,
    inbox: ClassedMutex<class::SimInbox, Vec<Due>>,
    /// Consulted at every modelled transfer.
    chaos: ChaosHub,
}

fn deadlock() -> FailureCause {
    FailureCause::Exec(
        "deadlock: event can never fire (circular or dropped dependence)".to_string(),
    )
}

impl VirtualClock {
    pub(super) fn new(platform: &PlatformCfg, chaos: ChaosHub) -> VirtualClock {
        let mut sim = Sim::new();
        let domain_sems = platform
            .domains
            .iter()
            .map(|d| sim.sem_create(d.cores))
            .collect();
        let cards = platform
            .cards()
            .map(|(_, c)| CardRes {
                h2d: sim.server_create(1),
                d2h: sim.server_create(1),
                link: c.link.expect("cards have links"),
            })
            .collect();
        VirtualClock {
            heap: ClassedMutex::new(Heap {
                sim,
                source: Time::ZERO,
                cost: platform.cost_model(),
                domain_sems,
                domain_cores: platform.domains.iter().map(|d| d.cores).collect(),
                cards,
            }),
            now_ns: AtomicU64::new(0),
            inbox: ClassedMutex::new(Vec::new()),
            chaos,
        }
    }

    /// A fresh serial server: a stream's sink.
    pub(super) fn add_server(&self) -> ServerId {
        self.heap.lock().sim.server_create(1)
    }

    pub(super) fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Run `job` at virtual instant `at_ns` (clamped to now).
    pub(super) fn schedule(&self, at_ns: u64, job: TimerJob) {
        self.inbox.lock().push(Due::At(at_ns, job));
    }

    /// Hand an attempt to the model: it occupies its server from now.
    pub(super) fn serve(&self, run: Arc<ActionRun>) {
        self.inbox.lock().push(Due::Serve(run));
    }

    /// The submit instant of the next action: the source spends the
    /// enqueue overhead issuing it, and everything already in the source's
    /// past runs first. That is semantically neutral (virtual time still
    /// only moves forward) and keeps the runtime's pending-action windows
    /// short, so dependence scans stay cheap during long enqueue phases.
    pub(super) fn issue(&self) -> u64 {
        let mut heap = self.heap.lock();
        let enqueue = heap.cost.enqueue_dur();
        Self::charge(&mut heap, enqueue);
        let at = heap.source;
        self.run(&mut heap, at, || false);
        heap.sim.run_until(at);
        self.now_ns.store(at.as_nanos(), Ordering::Relaxed);
        at.as_nanos()
    }

    fn charge(heap: &mut Heap, dur: Dur) {
        heap.source = heap.source.max(heap.sim.now()) + dur;
    }

    /// Charge synchronous source-side time.
    pub(super) fn charge_source(&self, dur: Dur) {
        Self::charge(&mut self.heap.lock(), dur);
    }

    /// Virtual nanoseconds on the source clock.
    pub(super) fn source_ns(&self) -> u64 {
        self.heap.lock().source.as_nanos()
    }

    pub(super) fn now_secs(&self) -> f64 {
        self.heap.lock().sim.now().as_secs_f64()
    }

    /// Step the heap — events due by `limit`, one at a time, the inbox
    /// emptied before each — until `done` holds. False if nothing was left
    /// to run first.
    fn run(&self, heap: &mut Heap, limit: Time, mut done: impl FnMut() -> bool) -> bool {
        loop {
            self.settle(heap);
            if done() {
                return true;
            }
            let now = &self.now_ns;
            if !heap
                .sim
                .step_until(limit, |t| now.store(t.as_nanos(), Ordering::Relaxed))
            {
                return false;
            }
        }
    }

    /// Empty the inbox: a job becomes a heap event at its instant, an
    /// attempt goes on its server now — in the order they were handed in.
    fn settle(&self, heap: &mut Heap) {
        loop {
            let due = std::mem::take(&mut *self.inbox.lock());
            if due.is_empty() {
                return;
            }
            for d in due {
                match d {
                    Due::At(at, job) => heap.sim.schedule_at(Time(at), move |_| job.run()),
                    Due::Serve(run) => self.occupy(heap, run),
                }
            }
        }
    }

    /// The model service: put the attempt on its stream's server (gated on
    /// the domain's cores) or its card's link server for the modelled
    /// duration — a transfer first consults the fault plan — and finish it
    /// when the job completes.
    fn occupy(&self, heap: &mut Heap, run: Arc<ActionRun>) {
        let Service::Model { servers, .. } = &run.ctx.service else {
            unreachable!("only model-served actions reach the virtual clock's servers");
        };
        let (server, gate, dur) = match &run.spec {
            ActionSpec::Compute {
                stream_idx,
                device,
                cores,
                cost,
                ..
            } => {
                let dom = run.ctx.engines[*stream_idx] as usize;
                let cores = (*cores).min(heap.domain_cores[dom]);
                let dur =
                    heap.cost
                        .kernel_dur(*device, cores, cost.kernel, cost.flops, cost.tile_n)
                        + heap.cost.invoke_dur(*device);
                let gate = (heap.domain_sems[dom], cores);
                (servers[*stream_idx], Some(gate), dur)
            }
            ActionSpec::Transfer {
                card_domain: Some(dom),
                h2d,
                bytes,
                ..
            } => {
                if let Some(cause) = self.chaos.check_dma(*dom as u32, *h2d) {
                    return run.finish(Err(cause));
                }
                let card = &heap.cards[dom - 1];
                let dur = heap.cost.transfer_dur(&card.link, *bytes as u64, *h2d);
                (if *h2d { card.h2d } else { card.d2h }, None, dur)
            }
            _ => unreachable!("only computes and card transfers occupy a server"),
        };
        let job = heap.sim.server_enqueue(server, dur, gate);
        heap.sim.token_on_fire(job, move |sim| {
            if run.ev.is_complete() {
                return; // deadline beat completion; the late result is void
            }
            // The sink was occupied for `dur` ending now (no job-start hook
            // in hs_sim, so derive the start).
            let end = sim.now().as_nanos();
            run.obs
                .phase(ObsPhase::SinkStart, end.saturating_sub(dur.0));
            run.finish(Ok(()));
        });
    }

    /// Run the heap until `ev` completes.
    pub(super) fn wait(&self, ev: &CoiEvent) -> Result<(), FailureCause> {
        if !self.run(&mut self.heap.lock(), Time(u64::MAX), || ev.is_complete()) {
            return Err(deadlock());
        }
        ev.wait()
    }

    /// Run the heap until one of `evs` succeeds (its index), or all have
    /// failed (the first failure in list order).
    pub(super) fn wait_any(&self, evs: &[CoiEvent]) -> Result<usize, FailureCause> {
        assert!(!evs.is_empty(), "wait_any on empty set");
        let ok = || evs.iter().position(|e| e.completed_ok());
        let settled = || ok().is_some() || evs.iter().all(|e| e.is_complete());
        if !self.run(&mut self.heap.lock(), Time(u64::MAX), settled) {
            return Err(deadlock());
        }
        match ok() {
            Some(i) => Ok(i),
            None => Err(evs[0].wait().expect_err("every member failed")),
        }
    }

    /// Run all outstanding virtual-time work to quiescence.
    pub(super) fn run_all(&self) {
        self.run(&mut self.heap.lock(), Time(u64::MAX), || false);
    }

    /// Drop every pending event and inbox entry. They hold action records,
    /// whose dispatch context holds this clock: left in place, the cycle
    /// would outlive the executor.
    pub(super) fn clear(&self) {
        let sim = std::mem::take(&mut self.heap.lock().sim);
        let due = std::mem::take(&mut *self.inbox.lock());
        drop((sim, due));
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ActionSpec, Executor, SubmitOpts};
    use crate::types::CostHint;
    use crate::ExecMode;
    use hs_chaos::{ChaosHub, FailureCause};
    use hs_coi::CoiEvent;
    use hs_machine::{Device, KernelKind, PlatformCfg};
    use hs_obs::ObsHub;

    fn compute(stream_idx: usize, flops: f64, label: &str) -> ActionSpec {
        compute_w(stream_idx, 60, flops, label)
    }

    fn compute_w(stream_idx: usize, cores: u32, flops: f64, label: &str) -> ActionSpec {
        ActionSpec::Compute {
            stream_idx,
            device: Device::Knc,
            cores,
            func: "".into(),
            args: bytes::Bytes::new(),
            bufs: Default::default(),
            cost: CostHint::new(KernelKind::Dgemm, flops, 2000),
            label: label.to_string(),
        }
    }

    fn sim() -> Executor {
        Executor::connect(
            &PlatformCfg::hetero(Device::Hsw, 1),
            ExecMode::Sim,
            ChaosHub::default(),
            &[],
        )
        .expect("an in-process executor")
    }

    /// A stream's mask; the model reads only its domain.
    fn mask() -> crate::CpuMask {
        crate::CpuMask::first(60)
    }

    fn opts() -> SubmitOpts {
        SubmitOpts::default()
    }

    #[test]
    fn compute_takes_modelled_time() {
        let ex = sim();
        ex.add_stream(1, mask());
        let ev = ex.submit(
            compute(0, 1e12, "big"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(&ev).expect("completes");
        // ~1e12 flops at ~880 GF/s ≈ 1.14 s.
        let t = ex.now_secs();
        assert!(t > 0.9 && t < 1.5, "unexpected virtual time {t}");
    }

    #[test]
    fn independent_computes_on_two_streams_overlap() {
        let ex = sim();
        ex.add_stream(1, mask());
        ex.add_stream(1, mask());
        let a = ex.submit(
            compute_w(0, 30, 1e11, "a"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let b = ex.submit(
            compute_w(1, 30, 1e11, "b"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(&a).expect("a");
        ex.wait(&b).expect("b");
        let t2 = ex.now_secs();
        // Serial would be ~2x one stream's time; overlap keeps it ~1x.
        let ser = sim();
        ser.add_stream(1, mask());
        let c = ser.submit(
            compute_w(0, 30, 1e11, "c"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let d = ser.submit(
            compute_w(0, 30, 1e11, "d"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ser.wait(&c).expect("c");
        ser.wait(&d).expect("d");
        let t1 = ser.now_secs();
        assert!(t2 < 0.65 * t1, "two streams {t2}s vs one stream {t1}s");
    }

    #[test]
    fn dependent_actions_serialize() {
        let ex = sim();
        ex.add_stream(1, mask());
        ex.add_stream(1, mask());
        let a = ex.submit(
            compute(0, 1e11, "a"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let b = ex.submit(
            compute(1, 1e11, "b"),
            &[a],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(&b).expect("b");
        let t = ex.now_secs();
        let one = 1e11 / (880e9) * 2.0 * 0.9;
        assert!(t > one, "dependent tasks must serialize: {t}");
    }

    #[test]
    fn transfers_use_link_servers_and_directions_overlap() {
        let ex = sim();
        ex.add_stream(1, mask());
        let mb = 64 << 20;
        let up = ActionSpec::Transfer {
            card_domain: Some(1),
            h2d: true,
            bytes: mb,
            real: None,
            label: "up".into(),
        };
        let down = ActionSpec::Transfer {
            card_domain: Some(1),
            h2d: false,
            bytes: mb,
            real: None,
            label: "down".into(),
        };
        let a = ex.submit(up, &[], hs_obs::ObsAction::disabled(), opts());
        let b = ex.submit(down, &[], hs_obs::ObsAction::disabled(), opts());
        ex.wait(&a).expect("up");
        ex.wait(&b).expect("down");
        let t = ex.now_secs();
        let one_way = mb as f64 / 6.5e9;
        assert!(
            t < one_way * 1.3,
            "full duplex: both directions in ~one transfer time, got {t} vs {one_way}"
        );
    }

    #[test]
    fn host_alias_transfer_is_free() {
        let ex = sim();
        ex.add_stream(0, mask());
        let x = ActionSpec::Transfer {
            card_domain: None,
            h2d: true,
            bytes: 1 << 30,
            real: None,
            label: "aliased".into(),
        };
        let ev = ex.submit(x, &[], hs_obs::ObsAction::disabled(), opts());
        ex.wait(&ev).expect("elided transfer");
        // Only the enqueue overhead has passed, far less than 1 GB of wire
        // time (~150 ms).
        assert!(ex.now_secs() < 0.001, "{}", ex.now_secs());
    }

    #[test]
    fn source_enqueue_overhead_accumulates() {
        let ex = sim();
        ex.add_stream(1, mask());
        let mut last = None;
        for i in 0..1000 {
            last = Some(ex.submit(
                compute(0, 0.0, &format!("t{i}")),
                &[],
                hs_obs::ObsAction::disabled(),
                opts(),
            ));
        }
        ex.wait(&last.expect("submitted")).expect("ok");
        // 1000 enqueues x 5 us >= 5 ms of source time.
        assert!(ex.now_secs() >= 0.005, "{}", ex.now_secs());
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let ex = sim();
        ex.add_stream(1, mask());
        let never = CoiEvent::new();
        let ev = ex.submit(
            compute(0, 1.0, "stuck"),
            &[never],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let err = ex.wait(&ev).expect_err("must detect the stall");
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn overlapping_masks_timeshare_domain_capacity() {
        // Two full-width streams on one 60-core card: their computes cannot
        // run concurrently (each claims all 60 cores), even though they are
        // separate streams — the overlapping-mask case.
        let ex = sim();
        ex.add_stream(1, mask());
        ex.add_stream(1, mask());
        let a = ex.submit(
            compute(0, 1e11, "a"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let b = ex.submit(
            compute(1, 1e11, "b"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(&a).expect("a");
        ex.wait(&b).expect("b");
        let both = ex.now_secs();
        let one = sim();
        one.add_stream(1, mask());
        let c = one.submit(
            compute(0, 1e11, "c"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        one.wait(&c).expect("c");
        let single = one.now_secs();
        assert!(
            both > 1.8 * single,
            "full-width streams must serialize: {both:.4}s vs single {single:.4}s"
        );
    }

    #[test]
    fn trace_records_compute_spans() {
        let obs = ObsHub::new();
        obs.enable(true);
        let ex = sim();
        ex.add_stream(1, mask());
        let meta = hs_obs::ActionMeta {
            stream: 0,
            event: 0,
            kind: hs_obs::ObsKind::Compute,
            order: hs_obs::ActionKind::Normal,
            card: None,
            h2d: false,
            bytes: 0,
            footprint: Vec::new(),
            waits: Vec::new(),
            label: "traced".into(),
        };
        let action = obs.action(meta, ex.source_ns().expect("sim mode"));
        let ev = ex.submit(compute(0, 1e9, "traced"), &[], action, opts());
        ex.wait(&ev).expect("ok");
        let records = obs.take_records();
        let spans = hs_obs::spans(&records);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.meta.label, "traced");
        assert_eq!(span.row, hs_obs::Row::Stream(0));
        assert!(span.ok);
        assert_eq!(span.end_ns, (ex.now_secs() * 1e9).round() as u64);
        assert!(span.start_ns < span.end_ns, "the sink was occupied");
    }

    #[test]
    fn fire_time_poisoning_reaches_dependents_submitted_before_the_failure() {
        // A deadline failure postdates the dependent's submit: the poison
        // must still reach it.
        let ex = sim();
        ex.add_stream(1, mask());
        let slow = ex.submit(
            compute(0, 1e12, "slow"),
            &[],
            hs_obs::ObsAction::disabled(),
            SubmitOpts {
                deadline_ns: Some(1_000_000), // 1 ms << ~1.1 s of work
                ..SubmitOpts::default()
            },
        );
        let dep = ex.submit(
            compute(0, 1e9, "dependent"),
            std::slice::from_ref(&slow),
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let err = ex.wait(&slow).expect_err("deadline must fail the action");
        assert!(matches!(err, FailureCause::Timeout { .. }), "{err}");
        let err = ex.wait(&dep).expect_err("dependent must be poisoned");
        assert!(
            matches!(&err, FailureCause::Poisoned { origin }
                if matches!(origin.as_ref(), FailureCause::Timeout { .. })),
            "{err}"
        );
    }

    #[test]
    fn virtual_deadline_does_not_fail_a_fast_action() {
        let ex = sim();
        ex.add_stream(1, mask());
        let ev = ex.submit(
            compute(0, 1e9, "fast"),
            &[],
            hs_obs::ObsAction::disabled(),
            SubmitOpts {
                deadline_ns: Some(60_000_000_000), // one virtual minute
                ..SubmitOpts::default()
            },
        );
        ex.wait(&ev).expect("well within deadline");
        // The deadline timer still fires later; run everything out to make
        // sure the guarded callback does not double-fire or mis-fail.
        ex.run_all();
        assert!(ev.completed_ok());
    }
}
