//! The virtual-time executor.
//!
//! Runs the same semantic action graph as the thread executor, but each
//! stream sink is a serial [`hs_sim`] server, each card link is a pair of
//! DMA-direction servers, and durations come from the calibrated
//! [`hs_machine::CostModel`]. This is what regenerates the paper's figures:
//! the schedule (who waits for whom, what overlaps) is produced by the real
//! hStreams dependence machinery; only the per-action durations are modelled.
//!
//! The executor also models a busy *source*: every enqueue advances a source
//! clock by the per-action enqueue overhead (§III), and synchronous costs —
//! buffer instantiation, a layered runtime's per-task bookkeeping — are
//! charged to the same clock via [`SimExec::charge_source`].
//!
//! Fault semantics mirror the thread executor: sim tokens always *fire*;
//! failure rides in a shared side map keyed by token. Dependence poisoning
//! happens at *fire* time (when the last dependence resolves), not submit
//! time, because failures can now arrive mid-run (injected faults, virtual
//! deadlines) — after the depending action was already submitted.

use super::{ActionSpec, SubmitOpts};
use crate::sync::Mutex;
use hs_chaos::{ChaosHub, FailureCause, RetryPolicy};
use hs_machine::{CostModel, PlatformCfg};
use hs_obs::{ObsAction, ObsHub, ObsPhase};
use hs_sim::{Dur, SemId, ServerId, Sim, Time, Token};
use std::collections::HashMap;
use std::sync::Arc;

struct StreamRes {
    server: ServerId,
    domain_idx: usize,
}

struct CardRes {
    h2d: ServerId,
    d2h: ServerId,
    link: hs_machine::LinkSpec,
}

/// Tokens of actions that failed, with their causes. Shared (`Arc`) because
/// sim callbacks only receive `&mut Sim` — they record failures through
/// this map, and later-firing dependents consult it.
type FailedMap = Arc<Mutex<HashMap<Token, FailureCause>>>;

/// Which fault-injection site an action occupies (None for noops and
/// aliased transfers, which touch no sink or wire).
#[derive(Clone, Copy)]
enum SimSite {
    Compute { stream: u32, card: u32 },
    Dma { card: u32, h2d: bool },
}

/// Everything one sink-bound action needs across (possibly retried)
/// attempts: the sim analogue of the thread executor's `ActionRun`.
struct SimAction {
    done: Token,
    server: ServerId,
    gate: Option<(SemId, u32)>,
    dur: Dur,
    site: SimSite,
    chaos: ChaosHub,
    retry: RetryPolicy,
    failed: FailedMap,
    obs: ObsAction,
    /// Deterministic jitter salt (the submission ordinal).
    salt: u64,
}

/// Run one attempt: consult the fault plan, then either occupy the sink
/// server for the modelled duration, schedule a backed-off re-attempt
/// (virtual time), or record the failure and fire `done`.
fn sim_attempt(sim: &mut Sim, act: Arc<SimAction>, attempt: u32) {
    if sim.token_fired(act.done) {
        return; // deadline expired while queued/backing off
    }
    let now = sim.now().as_nanos();
    if attempt == 1 {
        act.obs.phase(ObsPhase::DepsResolved, now);
    }
    if act.chaos.is_armed() {
        let injected = match act.site {
            SimSite::Compute { stream, card } => act.chaos.check_compute(stream, card),
            SimSite::Dma { card, h2d } => act.chaos.check_dma(card, h2d),
        };
        if let Some(cause) = injected {
            if cause.is_transient() && attempt < act.retry.max_attempts {
                let jitter = act.chaos.jitter01(act.salt ^ u64::from(attempt));
                let backoff = act.retry.backoff_us(attempt, jitter);
                act.obs.retry(attempt, backoff, now);
                let at = sim.now() + Dur::from_micros(backoff);
                let act2 = act.clone();
                sim.schedule_at(at, move |sim| sim_attempt(sim, act2, attempt + 1));
                return;
            }
            act.obs.fail_cause(&cause, attempt, now);
            act.failed.lock().insert(act.done, cause);
            sim.token_fire(act.done);
            return;
        }
    }
    act.obs.phase(ObsPhase::Dispatched, now);
    let job = sim.server_enqueue(act.server, act.dur, act.gate);
    let act2 = act.clone();
    sim.token_on_fire(job, move |sim| {
        if sim.token_fired(act2.done) {
            return; // deadline beat completion; the late result is void
        }
        // The sink occupied `dur` ending now (no job-start hook in hs_sim,
        // so derive the start).
        let end = sim.now().as_nanos();
        act2.obs
            .phase(ObsPhase::SinkStart, end.saturating_sub(act2.dur.0));
        act2.obs.finish(true, end);
        sim.token_fire(act2.done);
    });
}

/// Virtual-time executor state.
pub struct SimExec {
    sim: Sim,
    cost: CostModel,
    /// Per-domain core capacity gate: streams whose masks overlap (e.g. a
    /// machine-wide panel stream over worker streams) time-share the
    /// domain's physical cores instead of multiplying them.
    domain_sems: Vec<SemId>,
    domain_cores: Vec<u32>,
    streams: Vec<StreamRes>,
    cards: Vec<CardRes>,
    source_time: Time,
    failed: FailedMap,
    obs: ObsHub,
    chaos: ChaosHub,
    /// Monotonic submission counter (deterministic retry-jitter salt).
    submitted: u64,
}

impl SimExec {
    pub fn new(platform: &PlatformCfg) -> SimExec {
        Self::new_with_obs_chaos(platform, ObsHub::new(), ChaosHub::default())
    }

    /// Like [`Self::new`], routing lifecycle events (virtual timestamps) to
    /// `obs` and consulting `chaos` at every compute and transfer site (in
    /// virtual time; backoffs advance the virtual clock).
    pub fn new_with_obs_chaos(platform: &PlatformCfg, obs: ObsHub, chaos: ChaosHub) -> SimExec {
        let mut sim = Sim::new();
        let cost = platform.cost_model();
        let domain_sems: Vec<SemId> = platform
            .domains
            .iter()
            .map(|d| sim.sem_create(d.cores))
            .collect();
        let domain_cores: Vec<u32> = platform.domains.iter().map(|d| d.cores).collect();
        let cards = platform
            .cards()
            .map(|(_, c)| CardRes {
                h2d: sim.server_create(1),
                d2h: sim.server_create(1),
                link: c.link.expect("cards have links"),
            })
            .collect();
        SimExec {
            sim,
            cost,
            domain_sems,
            domain_cores,
            streams: Vec::new(),
            cards,
            source_time: Time::ZERO,
            failed: Arc::new(Mutex::new(HashMap::new())),
            obs,
            chaos,
            submitted: 0,
        }
    }

    /// Virtual nanoseconds on the source clock (enqueue timestamps).
    pub fn source_now_ns(&self) -> u64 {
        self.source_time.as_nanos()
    }

    /// The observability hub lifecycle events are routed to.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// The fault-injection hub consulted at compute/transfer sites.
    pub fn chaos(&self) -> &ChaosHub {
        &self.chaos
    }

    pub fn add_stream(&mut self, domain_idx: usize) {
        let server = self.sim.server_create(1);
        self.streams.push(StreamRes { server, domain_idx });
    }

    /// Rebind stream `idx`'s sink to a fresh host-domain server (card-loss
    /// degradation): jobs already queued on the lost card's server still
    /// fire (their results are discarded by the replay); subsequent
    /// submissions run on host resources.
    pub fn remap_stream_to_host(&mut self, idx: usize) {
        let Some(s) = self.streams.get_mut(idx) else {
            return;
        };
        s.domain_idx = 0;
        s.server = self.sim.server_create(1);
    }

    pub fn charge_source(&mut self, dur: Dur) {
        self.source_time = self.source_time.max(self.sim.now()) + dur;
    }

    pub fn now_secs(&self) -> f64 {
        self.sim.now().as_secs_f64()
    }

    pub fn is_complete(&self, tok: Token) -> bool {
        self.sim.token_fired(tok)
    }

    /// The failure cause of a fired-and-failed token (None while pending
    /// or after success).
    pub fn failure_of(&self, tok: Token) -> Option<FailureCause> {
        if !self.sim.token_fired(tok) {
            return None;
        }
        self.failed.lock().get(&tok).cloned()
    }

    /// Run all outstanding virtual-time work to quiescence. Degradation
    /// uses this to settle every in-flight action's status before
    /// selecting the replay set.
    pub fn run_all(&mut self) {
        self.sim.run();
    }

    pub fn wait(&mut self, tok: Token) -> Result<(), FailureCause> {
        if !self.sim.run_until_fired(tok) {
            return Err(FailureCause::Exec(
                "deadlock: event can never fire (circular or dropped dependence)".to_string(),
            ));
        }
        match self.failed.lock().get(&tok) {
            Some(c) => Err(c.clone()),
            None => Ok(()),
        }
    }

    /// Wait until any of the tokens *succeeds*; returns its index. Errors
    /// (with the first failure in list order) only when all have failed.
    pub fn wait_any(&mut self, toks: &[Token]) -> Result<usize, FailureCause> {
        assert!(!toks.is_empty(), "wait_any on empty set");
        loop {
            let pending: Vec<Token> = toks
                .iter()
                .copied()
                .filter(|t| !self.sim.token_fired(*t))
                .collect();
            {
                let failed = self.failed.lock();
                if let Some(i) = toks
                    .iter()
                    .position(|t| self.sim.token_fired(*t) && !failed.contains_key(t))
                {
                    return Ok(i);
                }
                if pending.is_empty() {
                    // All fired, none succeeded: first failure in list order.
                    return Err(failed
                        .get(&toks[0])
                        .cloned()
                        .expect("all tokens fired and failed"));
                }
            }
            let any = self.sim.join_any(&pending);
            if !self.sim.run_until_fired(any) {
                return Err(FailureCause::Exec(
                    "deadlock: event can never fire (circular or dropped dependence)".to_string(),
                ));
            }
        }
    }

    /// Record `done` as failed and fire it once the source has issued it —
    /// for failures known at submit time (malformed specs).
    fn poison(&mut self, done: Token, issue: Token, cause: FailureCause, obs: &ObsAction) {
        obs.fail_cause(&cause, 1, self.source_time.as_nanos());
        self.failed.lock().insert(done, cause);
        self.sim
            .token_on_fire(issue, move |sim| sim.token_fire(done));
    }

    pub fn submit<'a>(
        &mut self,
        spec: ActionSpec,
        deps: impl IntoIterator<Item = &'a super::BackendEvent>,
        obs: ObsAction,
        opts: SubmitOpts,
    ) -> Token {
        // The source thread spends enqueue_us issuing this action; the
        // action cannot start before the source has issued it.
        self.charge_source(self.cost.enqueue_dur());
        // Drain any simulation events that are already in the source's past.
        // This is semantically neutral (virtual time still only moves
        // forward) and keeps the runtime's pending-action windows short, so
        // dependence scans stay cheap during long enqueue phases.
        let horizon = self.source_time;
        self.sim.run_until(horizon);
        let issue = self.sim.token_create();
        let at = self.source_time;
        self.sim.schedule_at(at, move |sim| sim.token_fire(issue));
        self.submitted += 1;

        let real_deps: Vec<Token> = deps.into_iter().map(|d| d.as_sim()).collect();
        let mut dep_toks = real_deps.clone();
        dep_toks.push(issue);
        let done = self.sim.token_create();

        // Virtual deadline: fail-then-poison on expiry. Completion paths
        // check `token_fired(done)` first, so whichever side fires first
        // wins — mirroring the thread executor's first-wins events.
        if let Some(ns) = opts.deadline_ns {
            let failed = self.failed.clone();
            let o = obs.clone();
            self.sim.schedule_at(at + Dur(ns), move |sim| {
                if sim.token_fired(done) {
                    return;
                }
                let cause = FailureCause::Timeout { deadline_ns: ns };
                o.fail_cause(&cause, 1, sim.now().as_nanos());
                failed.lock().insert(done, cause);
                sim.token_fire(done);
            });
        }

        // Pass-through actions (no sink, no wire): complete — or poison —
        // when the dependences fire.
        let passthrough = match &spec {
            ActionSpec::Noop => true,
            ActionSpec::Transfer { card_domain, .. } => card_domain.is_none(),
            ActionSpec::Compute { .. } => false,
        };
        if passthrough {
            let failed = self.failed.clone();
            self.sim.when_all(&dep_toks, move |sim| {
                if sim.token_fired(done) {
                    return;
                }
                let origin = {
                    let f = failed.lock();
                    real_deps.iter().find_map(|t| f.get(t).cloned())
                };
                let now = sim.now().as_nanos();
                match origin {
                    Some(or) => {
                        let cause = FailureCause::poisoned_by(or);
                        obs.fail_cause(&cause, 1, now);
                        failed.lock().insert(done, cause);
                    }
                    None => obs.finish(true, now),
                }
                sim.token_fire(done);
            });
            return done;
        }

        let act = match spec {
            ActionSpec::Compute {
                stream_idx,
                device,
                cores,
                cost,
                func,
                ..
            } => {
                let Some(stream) = self.streams.get(stream_idx) else {
                    let cause = FailureCause::Malformed(format!(
                        "malformed compute '{func}': no stream with index {stream_idx}"
                    ));
                    self.poison(done, issue, cause, &obs);
                    return done;
                };
                let dom = stream.domain_idx;
                let cores = cores.min(self.domain_cores[dom]);
                let dur = self
                    .cost
                    .kernel_dur(device, cores, cost.kernel, cost.flops, cost.tile_n)
                    + self.cost.invoke_dur(device);
                SimAction {
                    done,
                    server: stream.server,
                    gate: Some((self.domain_sems[dom], cores)),
                    dur,
                    site: SimSite::Compute {
                        stream: stream_idx as u32,
                        card: dom as u32,
                    },
                    chaos: self.chaos.clone(),
                    retry: opts.retry,
                    failed: self.failed.clone(),
                    obs,
                    salt: self.submitted,
                }
            }
            ActionSpec::Transfer {
                card_domain,
                h2d,
                bytes,
                label,
                ..
            } => {
                let dom = card_domain.expect("aliased transfers handled above");
                let Some(card) = dom.checked_sub(1).and_then(|c| self.cards.get(c)) else {
                    let cause = FailureCause::Malformed(format!(
                        "malformed transfer '{label}': card domain {dom} out of range \
                         ({} cards)",
                        self.cards.len()
                    ));
                    self.poison(done, issue, cause, &obs);
                    return done;
                };
                SimAction {
                    done,
                    server: if h2d { card.h2d } else { card.d2h },
                    gate: None,
                    dur: self.cost.transfer_dur(&card.link, bytes as u64, h2d),
                    site: SimSite::Dma {
                        card: dom as u32,
                        h2d,
                    },
                    chaos: self.chaos.clone(),
                    retry: opts.retry,
                    failed: self.failed.clone(),
                    obs,
                    salt: self.submitted,
                }
            }
            ActionSpec::Noop => unreachable!("noop handled in the passthrough arm"),
        };
        let act = Arc::new(act);
        let failed = self.failed.clone();
        self.sim.when_all(&dep_toks, move |sim| {
            if sim.token_fired(act.done) {
                return;
            }
            // Fire-time dependence poisoning: failures (injected faults,
            // deadlines, poisoned ancestors) may postdate this submit.
            let origin = {
                let f = failed.lock();
                real_deps.iter().find_map(|t| f.get(t).cloned())
            };
            if let Some(or) = origin {
                let cause = FailureCause::poisoned_by(or);
                act.obs.fail_cause(&cause, 1, sim.now().as_nanos());
                failed.lock().insert(act.done, cause);
                sim.token_fire(act.done);
                return;
            }
            sim_attempt(sim, act, 1);
        });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BackendEvent;
    use crate::types::CostHint;
    use hs_machine::{Device, KernelKind};

    fn compute(stream_idx: usize, flops: f64, label: &str) -> ActionSpec {
        compute_w(stream_idx, 60, flops, label)
    }

    fn compute_w(stream_idx: usize, cores: u32, flops: f64, label: &str) -> ActionSpec {
        ActionSpec::Compute {
            stream_idx,
            device: Device::Knc,
            cores,
            func: String::new(),
            args: bytes::Bytes::new(),
            bufs: Default::default(),
            cost: CostHint::new(KernelKind::Dgemm, flops, 2000),
            label: label.to_string(),
        }
    }

    fn platform() -> PlatformCfg {
        PlatformCfg::hetero(Device::Hsw, 1)
    }

    fn opts() -> SubmitOpts {
        SubmitOpts::default()
    }

    #[test]
    fn compute_takes_modelled_time() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        let ev = ex.submit(
            compute(0, 1e12, "big"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(ev).expect("completes");
        // ~1e12 flops at ~880 GF/s ≈ 1.14 s.
        let t = ex.now_secs();
        assert!(t > 0.9 && t < 1.5, "unexpected virtual time {t}");
    }

    #[test]
    fn independent_computes_on_two_streams_overlap() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        ex.add_stream(1);
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
        ex.wait(a).expect("a");
        ex.wait(b).expect("b");
        let t2 = ex.now_secs();
        // Serial would be ~2x one stream's time; overlap keeps it ~1x.
        let mut ser = SimExec::new(&platform());
        ser.add_stream(1);
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
        ser.wait(c).expect("c");
        ser.wait(d).expect("d");
        let t1 = ser.now_secs();
        assert!(t2 < 0.65 * t1, "two streams {t2}s vs one stream {t1}s");
    }

    #[test]
    fn dependent_actions_serialize() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        ex.add_stream(1);
        let a = ex.submit(
            compute(0, 1e11, "a"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let b = ex.submit(
            compute(1, 1e11, "b"),
            &[BackendEvent::Sim(a)],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        ex.wait(b).expect("b");
        let t = ex.now_secs();
        let one = 1e11 / (880e9) * 2.0 * 0.9;
        assert!(t > one, "dependent tasks must serialize: {t}");
    }

    #[test]
    fn transfers_use_link_servers_and_directions_overlap() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
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
        ex.wait(a).expect("up");
        ex.wait(b).expect("down");
        let t = ex.now_secs();
        let one_way = mb as f64 / 6.5e9;
        assert!(
            t < one_way * 1.3,
            "full duplex: both directions in ~one transfer time, got {t} vs {one_way}"
        );
    }

    #[test]
    fn host_alias_transfer_is_free() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(0);
        let x = ActionSpec::Transfer {
            card_domain: None,
            h2d: true,
            bytes: 1 << 30,
            real: None,
            label: "aliased".into(),
        };
        let ev = ex.submit(x, &[], hs_obs::ObsAction::disabled(), opts());
        ex.wait(ev).expect("elided transfer");
        // Only the enqueue overhead has passed, far less than 1 GB of wire
        // time (~150 ms).
        assert!(ex.now_secs() < 0.001, "{}", ex.now_secs());
    }

    #[test]
    fn source_enqueue_overhead_accumulates() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        let mut last = None;
        for i in 0..1000 {
            last = Some(ex.submit(
                compute(0, 0.0, &format!("t{i}")),
                &[],
                hs_obs::ObsAction::disabled(),
                opts(),
            ));
        }
        ex.wait(last.expect("submitted")).expect("ok");
        // 1000 enqueues x 5 us >= 5 ms of source time.
        assert!(ex.now_secs() >= 0.005, "{}", ex.now_secs());
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        let never = ex.sim.token_create();
        let ev = ex.submit(
            compute(0, 1.0, "stuck"),
            &[BackendEvent::Sim(never)],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let err = ex.wait(ev).expect_err("must detect the stall");
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn overlapping_masks_timeshare_domain_capacity() {
        // Two full-width streams on one 60-core card: their computes cannot
        // run concurrently (each claims all 60 cores), even though they are
        // separate streams — the overlapping-mask case.
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        ex.add_stream(1);
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
        ex.wait(a).expect("a");
        ex.wait(b).expect("b");
        let both = ex.now_secs();
        let mut one = SimExec::new(&platform());
        one.add_stream(1);
        let c = one.submit(
            compute(0, 1e11, "c"),
            &[],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        one.wait(c).expect("c");
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
        let mut ex = SimExec::new_with_obs_chaos(&platform(), obs.clone(), ChaosHub::default());
        ex.add_stream(1);
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
        let action = obs.action(meta, ex.source_now_ns());
        let ev = ex.submit(compute(0, 1e9, "traced"), &[], action, opts());
        ex.wait(ev).expect("ok");
        let records = obs.take_records();
        let spans = hs_obs::spans(&records);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.meta.label, "traced");
        assert_eq!(span.row, hs_obs::Row::Stream(0));
        assert!(span.ok);
        assert_eq!(span.end_ns, ex.sim.now().as_nanos());
        assert!(span.start_ns < span.end_ns, "the sink was occupied");
    }

    #[test]
    fn fire_time_poisoning_reaches_dependents_submitted_before_the_failure() {
        // A deadline failure postdates the dependent's submit: only
        // fire-time poisoning can catch it.
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
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
            &[BackendEvent::Sim(slow)],
            hs_obs::ObsAction::disabled(),
            opts(),
        );
        let err = ex.wait(slow).expect_err("deadline must fail the action");
        assert!(matches!(err, FailureCause::Timeout { .. }), "{err}");
        let err = ex.wait(dep).expect_err("dependent must be poisoned");
        assert!(
            matches!(&err, FailureCause::Poisoned { origin }
                if matches!(origin.as_ref(), FailureCause::Timeout { .. })),
            "{err}"
        );
    }

    #[test]
    fn virtual_deadline_does_not_fail_a_fast_action() {
        let mut ex = SimExec::new(&platform());
        ex.add_stream(1);
        let ev = ex.submit(
            compute(0, 1e9, "fast"),
            &[],
            hs_obs::ObsAction::disabled(),
            SubmitOpts {
                deadline_ns: Some(60_000_000_000), // one virtual minute
                ..SubmitOpts::default()
            },
        );
        ex.wait(ev).expect("well within deadline");
        // The deadline timer still fires later; run everything out to make
        // sure the guarded callback does not double-fire or mis-fail.
        ex.run_all();
        assert!(ex.failure_of(ev).is_none());
    }
}
