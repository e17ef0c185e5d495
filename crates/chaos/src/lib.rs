//! Deterministic, seedable fault injection for the hStreams reproduction.
//!
//! The paper's FIFO-with-implied-dependences semantic means a failed action
//! must poison exactly its dependents; this crate supplies the machinery to
//! *prove* that under fire. A [`FaultPlan`] names fault sites (nth DMA op on
//! card K, nth compute in stream S, card-dead-after-N-ops) or seeded random
//! rates; the runtime installs it into a shared [`ChaosHub`] which the fabric
//! DMA engines and the executor dispatch paths consult. When disarmed the
//! hub costs one relaxed atomic load per check, mirroring the obs gate.
//!
//! Determinism: every random decision is a pure function of
//! `(seed, site identity, site ordinal)` — no shared RNG stream whose
//! consumption order depends on thread interleaving. The same plan therefore
//! injects the same faults at the same logical sites in both executor modes
//! and across repeated runs.

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Structured cause of an action failure, replacing the stringly messages
/// that PR 3's poison path carried. `Display` output preserves the legacy
/// message shapes ("dependency failed: …", "run function panicked: …") so
/// human-facing text and message-matching diagnostics stay stable.
#[derive(Clone, PartialEq, Debug)]
pub enum FailureCause {
    /// Miscellaneous runtime failure (shutdown, missing kernel, fabric error).
    Exec(String),
    /// The action spec itself was invalid (bad stream index, OOB card, …).
    Malformed(String),
    /// A fault injected by an armed [`ChaosHub`].
    Injected { site: String, transient: bool },
    /// The action's deadline expired before it completed.
    Timeout { deadline_ns: u64 },
    /// The card (device domain) the action targeted is dead.
    CardLost { card: u32 },
    /// The sink function panicked while running the action.
    SinkPanic(String),
    /// A dependence failed; `origin` is the upstream cause.
    Poisoned { origin: Arc<FailureCause> },
}

impl FailureCause {
    /// Wrap `origin` as the cause of a poisoned dependent.
    pub fn poisoned_by(origin: FailureCause) -> FailureCause {
        FailureCause::Poisoned {
            origin: Arc::new(origin),
        }
    }

    /// Walk the poison chain back to the originating failure.
    pub fn root(&self) -> &FailureCause {
        let mut c = self;
        while let FailureCause::Poisoned { origin } = c {
            c = origin;
        }
        c
    }

    /// Transient faults are worth retrying: only injected faults marked
    /// transient qualify. Timeouts, card loss, panics, and malformed specs
    /// are final.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FailureCause::Injected {
                transient: true,
                ..
            }
        )
    }

    /// Stable short tag for counters and obs records.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureCause::Exec(_) => "exec",
            FailureCause::Malformed(_) => "malformed",
            FailureCause::Injected { .. } => "injected",
            FailureCause::Timeout { .. } => "timeout",
            FailureCause::CardLost { .. } => "card_lost",
            FailureCause::SinkPanic(_) => "sink_panic",
            FailureCause::Poisoned { .. } => "poisoned",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Exec(m) => write!(f, "{m}"),
            FailureCause::Malformed(m) => write!(f, "{m}"),
            FailureCause::Injected { site, transient } => {
                let kind = if *transient { "transient" } else { "fatal" };
                write!(f, "injected {kind} fault at {site}")
            }
            FailureCause::Timeout { deadline_ns } => {
                write!(f, "deadline exceeded ({deadline_ns} ns)")
            }
            FailureCause::CardLost { card } => write!(f, "card {card} lost"),
            FailureCause::SinkPanic(m) => write!(f, "run function panicked: {m}"),
            FailureCause::Poisoned { origin } => write!(f, "dependency failed: {origin}"),
        }
    }
}

impl From<String> for FailureCause {
    fn from(m: String) -> Self {
        FailureCause::Exec(m)
    }
}

impl From<&str> for FailureCause {
    fn from(m: &str) -> Self {
        FailureCause::Exec(m.to_string())
    }
}

/// Per-action retry budget for transient faults. Backoff is exponential
/// with multiplicative jitter drawn deterministically from the plan seed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Backoff growth factor per further retry.
    pub multiplier: f64,
    /// Fractional jitter: the backoff is scaled by `1 ± jitter * u` with
    /// `u ∈ [0, 1)` from the plan's deterministic draw.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_us: 0,
            multiplier: 1.0,
            jitter: 0.0,
        }
    }

    /// `attempts` total attempts, 50 µs base backoff doubling each retry,
    /// ±25 % jitter.
    pub fn standard(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_backoff_us: 50,
            multiplier: 2.0,
            jitter: 0.25,
        }
    }

    /// Backoff before retry number `retry` (1-based), in microseconds.
    /// `jitter01` must be in `[0, 1)`.
    pub fn backoff_us(&self, retry: u32, jitter01: f64) -> u64 {
        let exp = self.multiplier.powi(retry.saturating_sub(1) as i32);
        let centred = 2.0 * jitter01 - 1.0; // [-1, 1)
        let scale = (1.0 + self.jitter * centred).max(0.0);
        (self.base_backoff_us as f64 * exp * scale) as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// What an explicit trigger does when its site is hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Fail the op with a retryable [`FailureCause::Injected`].
    Transient,
    /// Fail the op with a non-retryable injected fault.
    Fatal,
    /// Fail a compute as its panicking run function would, with
    /// [`FailureCause::SinkPanic`] (compute sites only; on DMA sites this
    /// degrades to `Fatal` — no run function runs there).
    SinkPanic,
    /// Kill the card the op targets: the op fails with
    /// [`FailureCause::CardLost`] and every later op on that card fails too.
    CardDead,
    /// Tear the durable action log: the write lands but its tail is chopped
    /// mid-record, as a crash mid-`write(2)` would leave it. Only
    /// meaningful on [`FaultSite::Wal`]; degrades to `Fatal` elsewhere.
    Torn,
    /// Fail the durable-log I/O outright (disk full, EIO). Only meaningful
    /// on [`FaultSite::Wal`]; degrades to `Fatal` elsewhere.
    Io,
}

/// Where a trigger fires. Ordinals (`nth`) are 1-based and counted per
/// serialized channel, which is what makes them deterministic under
/// threaded execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The `nth` DMA op on `card` (optionally restricted to one direction).
    Dma {
        card: u32,
        h2d: Option<bool>,
        nth: u64,
    },
    /// The `nth` compute dispatched in stream `stream`.
    Compute { stream: u32, nth: u64 },
    /// The `nth` chaos-visible op (DMA or compute) touching `card` —
    /// the natural site for card-dead-after-T triggers.
    CardOp { card: u32, nth: u64 },
    /// The `nth` durable-log flush, counted on the (serialized) WAL lock.
    Wal { nth: u64 },
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Dma { card, h2d, nth } => match h2d {
                Some(d) => write!(f, "dma(card={card},h2d={d})#{nth}"),
                None => write!(f, "dma(card={card})#{nth}"),
            },
            FaultSite::Compute { stream, nth } => write!(f, "compute(stream={stream})#{nth}"),
            FaultSite::CardOp { card, nth } => write!(f, "cardop(card={card})#{nth}"),
            FaultSite::Wal { nth } => write!(f, "wal#{nth}"),
        }
    }
}

/// An explicit fault trigger: fire `kind` at `site`, once.
#[derive(Clone, PartialEq, Debug)]
pub struct Trigger {
    pub site: FaultSite,
    pub kind: FaultKind,
}

/// A complete injection schedule: explicit triggers plus seeded random
/// fault rates, with the retry budget for the transients it injects. It
/// says only what to inject: recovering from a lost card is the runtime's
/// own policy, armed plan or not.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    pub triggers: Vec<Trigger>,
    /// Probability in `[0, 1]` that any given DMA op fails transiently.
    pub dma_fault_rate: f64,
    /// Probability in `[0, 1]` that any given compute fails transiently.
    pub compute_fault_rate: f64,
    /// Default retry policy for actions enqueued while this plan is armed.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            triggers: Vec::new(),
            dma_fault_rate: 0.0,
            compute_fault_rate: 0.0,
            retry: RetryPolicy::standard(4),
        }
    }

    pub fn with_trigger(mut self, site: FaultSite, kind: FaultKind) -> FaultPlan {
        self.triggers.push(Trigger { site, kind });
        self
    }

    /// The fixed-shape smoke plan CI and the bench harness share: one
    /// transient DMA fault early on card 1 plus a mid-run loss of card 1.
    /// `seed` perturbs nothing structural — it feeds retry jitter — so the
    /// smoke run is reproducible for any seed.
    pub fn smoke(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_trigger(
                FaultSite::Dma {
                    card: 1,
                    h2d: Some(true),
                    nth: 2,
                },
                FaultKind::Transient,
            )
            .with_trigger(FaultSite::CardOp { card: 1, nth: 12 }, FaultKind::CardDead)
    }
}

/// What an armed WAL trigger asks the durable-log writer to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalFault {
    /// Chop the tail of the just-flushed segment mid-record.
    Torn,
    /// Fail the flush with an I/O error.
    Io,
}

#[derive(Default)]
struct State {
    plan: Option<FaultPlan>,
    fired: Vec<bool>,
    dma_ord: HashMap<(u32, bool), u64>,
    stream_ord: HashMap<u32, u64>,
    card_ord: HashMap<u32, u64>,
    wal_ord: u64,
    dead: BTreeSet<u32>,
    log: Vec<String>,
}

#[derive(Default)]
struct Inner {
    armed: AtomicBool,
    state: Mutex<State>,
}

/// Shared fault-injection hub. Clones share state; a disarmed hub costs one
/// relaxed atomic load per check.
#[derive(Clone, Default)]
pub struct ChaosHub {
    inner: Arc<Inner>,
}

/// splitmix64 — the same generator the rand shim's `SmallRng` uses; here it
/// is applied as a pure hash so draws cannot depend on thread interleaving.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(splitmix(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ b)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl ChaosHub {
    pub fn new() -> ChaosHub {
        ChaosHub::default()
    }

    /// Install `plan` and start injecting. Resets all site ordinals; the
    /// dead cards stay dead (liveness is the runtime's state, not the
    /// plan's).
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.inner.state.lock();
        st.fired = vec![false; plan.triggers.len()];
        st.plan = Some(plan);
        st.dma_ord.clear();
        st.stream_ord.clear();
        st.card_ord.clear();
        st.wal_ord = 0;
        st.log.clear();
        self.inner.armed.store(true, Ordering::Release);
    }

    #[inline]
    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// The armed plan's seed (0 when disarmed).
    pub fn seed(&self) -> u64 {
        self.inner.state.lock().plan.as_ref().map_or(0, |p| p.seed)
    }

    /// Default retry policy for chaotic runs ([`RetryPolicy::none`] when
    /// disarmed).
    pub fn default_retry(&self) -> RetryPolicy {
        if !self.is_armed() {
            return RetryPolicy::none();
        }
        self.inner
            .state
            .lock()
            .plan
            .as_ref()
            .map_or_else(RetryPolicy::none, |p| p.retry)
    }

    /// Deterministic jitter draw in `[0, 1)` for retry backoff: a pure
    /// function of the plan seed and `salt` (callers pass action-id ^
    /// attempt), so replays see identical backoffs.
    pub fn jitter01(&self, salt: u64) -> f64 {
        let seed = self.seed();
        unit(mix(seed, 0x6A17, salt))
    }

    /// Mark `card` dead (used by CardDead triggers and by tests that kill a
    /// card directly). Returns true if the card was alive before.
    pub fn mark_card_dead(&self, card: u32) -> bool {
        let mut st = self.inner.state.lock();
        let newly = st.dead.insert(card);
        if newly {
            st.log.push(format!("card {card} marked dead"));
        }
        newly
    }

    pub fn dead_cards(&self) -> Vec<u32> {
        self.inner.state.lock().dead.iter().copied().collect()
    }

    /// Bring `card` back from the dead (a restarted worker was re-admitted).
    /// Returns true if the card was dead before.
    pub fn revive_card(&self, card: u32) -> bool {
        let mut st = self.inner.state.lock();
        let was_dead = st.dead.remove(&card);
        if was_dead {
            st.log.push(format!("card {card} revived"));
        }
        was_dead
    }

    /// Consult the plan for the next durable-log flush. Must be called
    /// under the WAL lock so the ordinal is deterministic.
    pub fn check_wal(&self) -> Option<WalFault> {
        if !self.is_armed() {
            return None;
        }
        let mut st = self.inner.state.lock();
        st.wal_ord += 1;
        let n = st.wal_ord;
        let plan = st.plan.as_ref()?.clone();
        for (i, trig) in plan.triggers.iter().enumerate() {
            if st.fired[i] {
                continue;
            }
            if matches!(trig.site, FaultSite::Wal { nth } if nth == n) {
                st.fired[i] = true;
                let fault = match trig.kind {
                    FaultKind::Torn => WalFault::Torn,
                    _ => WalFault::Io,
                };
                st.log.push(format!(
                    "{}@wal#{n}",
                    if fault == WalFault::Torn {
                        "torn"
                    } else {
                        "io"
                    }
                ));
                return Some(fault);
            }
        }
        None
    }

    /// Append a free-form note to the injection log (degradation events,
    /// replay summaries).
    pub fn note(&self, msg: impl Into<String>) {
        self.inner.state.lock().log.push(msg.into());
    }

    /// Everything injected so far, in injection order. Entries for
    /// independent sites may interleave differently across threaded runs;
    /// determinism tests should compare sorted copies.
    pub fn injected_log(&self) -> Vec<String> {
        self.inner.state.lock().log.clone()
    }

    /// Consult the plan for the next DMA op on `(card, h2d)`: the cause to
    /// fail it with, without running it. Must be called from the
    /// (serialized) DMA channel so ordinals are deterministic.
    pub fn check_dma(&self, card: u32, h2d: bool) -> Option<FailureCause> {
        if !self.is_armed() {
            return None;
        }
        let mut st = self.inner.state.lock();
        let d = bump(&mut st.dma_ord, (card, h2d));
        let c = bump(&mut st.card_ord, card);
        if st.dead.contains(&card) {
            return Some(FailureCause::CardLost { card });
        }
        let plan = st.plan.as_ref()?.clone();
        for (i, trig) in plan.triggers.iter().enumerate() {
            if st.fired[i] {
                continue;
            }
            let hit = match &trig.site {
                FaultSite::Dma {
                    card: tc,
                    h2d: th,
                    nth,
                } => *tc == card && th.is_none_or(|x| x == h2d) && *nth == d,
                FaultSite::CardOp { card: tc, nth } => *tc == card && *nth == c,
                FaultSite::Compute { .. } | FaultSite::Wal { .. } => false,
            };
            if hit {
                st.fired[i] = true;
                // No run function runs on a DMA op; a SinkPanic trigger on
                // a DMA site degrades to a fatal injected fault.
                let kind = if trig.kind == FaultKind::SinkPanic {
                    FaultKind::Fatal
                } else {
                    trig.kind
                };
                return Some(Self::fire(&mut st, &trig.site.to_string(), kind, card));
            }
        }
        if plan.dma_fault_rate > 0.0 {
            let draw = unit(mix(plan.seed, 0xD3A ^ ((card as u64) << 8) | h2d as u64, d));
            if draw < plan.dma_fault_rate {
                let site = FaultSite::Dma {
                    card,
                    h2d: Some(h2d),
                    nth: d,
                };
                return Some(Self::fire(
                    &mut st,
                    &site.to_string(),
                    FaultKind::Transient,
                    card,
                ));
            }
        }
        None
    }

    /// Consult the plan for the next compute dispatched in `stream`
    /// (running on `card`, 0 = host): the cause to fail it with, without
    /// running it. Must be called from the serialized dispatch point of the
    /// stream so ordinals are deterministic.
    pub fn check_compute(&self, stream: u32, card: u32) -> Option<FailureCause> {
        if !self.is_armed() {
            return None;
        }
        let mut st = self.inner.state.lock();
        let s = bump(&mut st.stream_ord, stream);
        let c = if card != 0 {
            bump(&mut st.card_ord, card)
        } else {
            0
        };
        if card != 0 && st.dead.contains(&card) {
            return Some(FailureCause::CardLost { card });
        }
        let plan = st.plan.as_ref()?.clone();
        for (i, trig) in plan.triggers.iter().enumerate() {
            if st.fired[i] {
                continue;
            }
            let hit = match &trig.site {
                FaultSite::Compute { stream: ts, nth } => *ts == stream && *nth == s,
                FaultSite::CardOp { card: tc, nth } => card != 0 && *tc == card && *nth == c,
                FaultSite::Dma { .. } | FaultSite::Wal { .. } => false,
            };
            if hit {
                st.fired[i] = true;
                return Some(Self::fire(&mut st, &trig.site.to_string(), trig.kind, card));
            }
        }
        if plan.compute_fault_rate > 0.0 {
            let draw = unit(mix(plan.seed, 0xC0_0000 ^ stream as u64, s));
            if draw < plan.compute_fault_rate {
                let site = FaultSite::Compute { stream, nth: s };
                return Some(Self::fire(
                    &mut st,
                    &site.to_string(),
                    FaultKind::Transient,
                    card,
                ));
            }
        }
        None
    }

    fn fire(st: &mut State, site: &str, kind: FaultKind, card: u32) -> FailureCause {
        match kind {
            // WAL-only kinds landing on a DMA/compute site degrade to a
            // fatal injected fault — there is no log tail to tear here.
            FaultKind::Torn | FaultKind::Io | FaultKind::Fatal => {
                st.log.push(format!("fatal@{site}"));
                FailureCause::Injected {
                    site: site.to_string(),
                    transient: false,
                }
            }
            FaultKind::Transient => {
                st.log.push(format!("transient@{site}"));
                FailureCause::Injected {
                    site: site.to_string(),
                    transient: true,
                }
            }
            FaultKind::SinkPanic => {
                st.log.push(format!("sink_panic@{site}"));
                FailureCause::SinkPanic(format!("chaos: injected sink panic at {site}"))
            }
            FaultKind::CardDead => {
                st.log.push(format!("card_dead@{site}"));
                st.dead.insert(card);
                st.log.push(format!("card {card} marked dead"));
                FailureCause::CardLost { card }
            }
        }
    }
}

fn bump<K: std::hash::Hash + Eq>(m: &mut HashMap<K, u64>, k: K) -> u64 {
    let e = m.entry(k).or_insert(0);
    *e += 1;
    *e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hub_injects_nothing() {
        let hub = ChaosHub::new();
        assert!(!hub.is_armed());
        for _ in 0..100 {
            assert_eq!(hub.check_dma(1, true), None);
            assert_eq!(hub.check_compute(3, 1), None);
        }
        assert!(hub.injected_log().is_empty());
    }

    #[test]
    fn explicit_dma_trigger_fires_once_at_nth() {
        let hub = ChaosHub::new();
        hub.arm(FaultPlan::new(7).with_trigger(
            FaultSite::Dma {
                card: 1,
                h2d: Some(true),
                nth: 3,
            },
            FaultKind::Transient,
        ));
        assert_eq!(hub.check_dma(1, true), None);
        assert_eq!(hub.check_dma(1, false), None); // wrong direction
        assert_eq!(hub.check_dma(2, true), None); // wrong card
        assert_eq!(hub.check_dma(1, true), None); // 2nd h2d op
        let cause = hub.check_dma(1, true).expect("3rd h2d op faults");
        match cause {
            FailureCause::Injected { transient, .. } => assert!(transient),
            other => panic!("unexpected injection {other:?}"),
        }
        assert_eq!(hub.check_dma(1, true), None, "trigger fires once");
    }

    #[test]
    fn card_dead_trigger_kills_card_for_all_later_ops() {
        let hub = ChaosHub::new();
        hub.arm(
            FaultPlan::new(1)
                .with_trigger(FaultSite::CardOp { card: 2, nth: 2 }, FaultKind::CardDead),
        );
        assert_eq!(hub.check_dma(2, true), None);
        let cause = hub.check_compute(5, 2).expect("2nd card op kills card");
        assert_eq!(cause, FailureCause::CardLost { card: 2 });
        assert!(hub.dead_cards().contains(&2));
        assert_eq!(
            hub.check_dma(2, false),
            Some(FailureCause::CardLost { card: 2 })
        );
        assert_eq!(hub.check_compute(9, 1), None, "other cards unaffected");
    }

    #[test]
    fn sink_panic_trigger_asks_for_panic_on_compute_but_fails_dma() {
        let hub = ChaosHub::new();
        hub.arm(
            FaultPlan::new(1)
                .with_trigger(
                    FaultSite::Compute { stream: 4, nth: 1 },
                    FaultKind::SinkPanic,
                )
                .with_trigger(
                    FaultSite::Dma {
                        card: 1,
                        h2d: None,
                        nth: 1,
                    },
                    FaultKind::SinkPanic,
                ),
        );
        assert_eq!(
            hub.check_compute(4, 1),
            Some(FailureCause::SinkPanic(
                "chaos: injected sink panic at compute(stream=4)#1".into()
            ))
        );
        assert!(matches!(
            hub.check_dma(1, true),
            Some(FailureCause::Injected {
                transient: false,
                ..
            })
        ));
        let log = hub.injected_log();
        assert!(
            log.contains(&"sink_panic@compute(stream=4)#1".to_string()),
            "{log:?}"
        );
    }

    #[test]
    fn rate_draws_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let hub = ChaosHub::new();
            hub.arm(FaultPlan {
                dma_fault_rate: 0.3,
                ..FaultPlan::new(seed)
            });
            let mut hits = Vec::new();
            for i in 0..50 {
                if hub.check_dma(1, i % 2 == 0).is_some() {
                    hits.push(i);
                }
            }
            hits
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same sites");
        assert!(!a.is_empty(), "rate 0.3 over 50 ops should hit");
        assert_ne!(a, run(43), "different seed, different sites");
    }

    #[test]
    fn failure_cause_display_and_helpers() {
        let inj = FailureCause::Injected {
            site: "dma(card=1,h2d=true)#2".into(),
            transient: true,
        };
        assert!(inj.is_transient());
        let poisoned = FailureCause::poisoned_by(FailureCause::poisoned_by(inj.clone()));
        assert_eq!(poisoned.root(), &inj);
        assert!(!poisoned.is_transient());
        assert!(poisoned.to_string().starts_with("dependency failed: "));
        assert_eq!(
            FailureCause::SinkPanic("boom".into()).to_string(),
            "run function panicked: boom"
        );
        assert_eq!(FailureCause::from("oops").to_string(), "oops");
        assert_eq!(FailureCause::CardLost { card: 3 }.tag(), "card_lost");
    }

    #[test]
    fn retry_backoff_grows_and_jitters_within_bounds() {
        let p = RetryPolicy::standard(4);
        let b1 = p.backoff_us(1, 0.5); // centred jitter => exactly base
        let b2 = p.backoff_us(2, 0.5);
        let b3 = p.backoff_us(3, 0.5);
        assert_eq!(b1, 50);
        assert_eq!(b2, 100);
        assert_eq!(b3, 200);
        let lo = p.backoff_us(1, 0.0);
        let hi = p.backoff_us(1, 0.999);
        assert!(lo >= 37 && hi <= 63, "±25% of 50µs, got {lo}..{hi}");
    }

    #[test]
    fn jitter_is_pure_in_seed_and_salt() {
        let hub = ChaosHub::new();
        hub.arm(FaultPlan::new(99));
        let a = hub.jitter01(17);
        assert_eq!(a, hub.jitter01(17));
        assert_ne!(a, hub.jitter01(18));
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn wal_trigger_fires_at_nth_flush_with_requested_kind() {
        let hub = ChaosHub::new();
        hub.arm(
            FaultPlan::new(5)
                .with_trigger(FaultSite::Wal { nth: 2 }, FaultKind::Torn)
                .with_trigger(FaultSite::Wal { nth: 4 }, FaultKind::Io),
        );
        assert_eq!(hub.check_wal(), None);
        assert_eq!(hub.check_wal(), Some(WalFault::Torn));
        assert_eq!(hub.check_wal(), None);
        assert_eq!(hub.check_wal(), Some(WalFault::Io));
        assert_eq!(hub.check_wal(), None, "triggers fire once");
        // WAL sites never perturb DMA/compute ordinals.
        assert_eq!(hub.check_dma(1, true), None);
        assert_eq!(hub.check_compute(0, 0), None);
        let log = hub.injected_log();
        assert!(log.contains(&"torn@wal#2".to_string()), "{log:?}");
        assert!(log.contains(&"io@wal#4".to_string()), "{log:?}");
    }

    #[test]
    fn torn_kind_on_compute_site_degrades_to_fatal() {
        let hub = ChaosHub::new();
        hub.arm(
            FaultPlan::new(1)
                .with_trigger(FaultSite::Compute { stream: 0, nth: 1 }, FaultKind::Torn),
        );
        match hub.check_compute(0, 0) {
            Some(FailureCause::Injected { transient, .. }) => assert!(!transient),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn revive_card_clears_dead_state() {
        let hub = ChaosHub::new();
        hub.arm(FaultPlan::new(1));
        assert!(!hub.revive_card(2), "not dead yet");
        hub.mark_card_dead(2);
        assert!(hub.dead_cards().contains(&2));
        assert!(hub.revive_card(2));
        assert!(!hub.dead_cards().contains(&2));
        assert_eq!(hub.check_dma(2, true), None, "ops flow again");
    }

    #[test]
    fn rearming_resets_ordinals_and_log() {
        let hub = ChaosHub::new();
        hub.arm(FaultPlan::new(1).with_trigger(
            FaultSite::Dma {
                card: 1,
                h2d: None,
                nth: 1,
            },
            FaultKind::Transient,
        ));
        assert!(hub.check_dma(1, true).is_some());
        assert_eq!(hub.injected_log().len(), 1);
        hub.arm(FaultPlan::new(1).with_trigger(
            FaultSite::Dma {
                card: 1,
                h2d: None,
                nth: 1,
            },
            FaultKind::Transient,
        ));
        assert!(hub.injected_log().is_empty());
        assert!(hub.check_dma(1, true).is_some(), "ordinals reset");
    }

    #[test]
    fn rearming_keeps_dead_cards_dead() {
        let hub = ChaosHub::new();
        hub.arm(
            FaultPlan::new(1)
                .with_trigger(FaultSite::CardOp { card: 1, nth: 1 }, FaultKind::CardDead),
        );
        assert_eq!(
            hub.check_dma(1, true),
            Some(FailureCause::CardLost { card: 1 })
        );
        hub.arm(FaultPlan::new(2));
        assert_eq!(hub.dead_cards(), [1], "a re-arm revives no card");
        assert_eq!(
            hub.check_dma(1, true),
            Some(FailureCause::CardLost { card: 1 })
        );
    }
}
