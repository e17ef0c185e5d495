//! DMA pacing: make real `memcpy` transfers exhibit PCIe-like timing.
//!
//! The paper's overlap results (e.g. the RTM pipelining benefit and the
//! <5 %-overhead-above-1 MB claim) depend on transfers taking *link time*,
//! not memcpy time. A [`Pacer`] computes the target duration of a transfer
//! from a [`LinkSpec`] + [`Overheads`]; a [`DmaEngine`] serializes transfers
//! of one direction (like a DMA channel) and stretches each to its target
//! duration, sleeping the bulk and spinning the tail for accuracy.

use hs_chaos::{ChaosHub, FailureCause};
use hs_machine::{LinkSpec, Overheads};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Computes real-time target durations for transfers.
#[derive(Clone, Debug, Default)]
pub struct Pacer {
    spec: Option<(LinkSpec, Overheads)>,
}

impl Pacer {
    /// No pacing: transfers run at memcpy speed (functional tests).
    pub fn unpaced() -> Pacer {
        Pacer { spec: None }
    }

    /// Pace to the given link and overhead model.
    pub fn pcie(link: LinkSpec, overheads: Overheads) -> Pacer {
        Pacer {
            spec: Some((link, overheads)),
        }
    }

    /// Target wall-clock duration for `bytes` in the given direction.
    pub fn target(&self, bytes: usize, h2d: bool) -> Duration {
        match &self.spec {
            None => Duration::ZERO,
            Some((link, ov)) => {
                let bw = if h2d {
                    link.h2d_bytes_per_sec
                } else {
                    link.d2h_bytes_per_sec
                };
                let us = link.latency_us + ov.transfer_fixed_us(bytes as u64);
                Duration::from_secs_f64(us * 1e-6 + bytes as f64 / bw)
            }
        }
    }
}

/// Sleep-then-spin until `deadline` (sleep is coarse; the final stretch is
/// spun for ~µs accuracy, which small-transfer overheads need).
pub fn pace_until(deadline: Instant) {
    const SPIN_TAIL: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_TAIL {
            std::thread::sleep(remaining - SPIN_TAIL);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Cumulative activity of one DMA channel, for link-utilization metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Total time the channel was occupied (paced duration included), ns.
    pub busy_ns: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Number of transfers run.
    pub ops: u64,
}

/// A serialized DMA channel for one (card, direction) pair.
pub struct DmaEngine {
    pacer: Pacer,
    h2d: bool,
    card: u32,
    chaos: ChaosHub,
    channel: Mutex<()>,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
    ops: AtomicU64,
}

impl DmaEngine {
    /// A channel that consults `chaos` (armed or not) before every op,
    /// identifying itself as `(card, h2d)`.
    pub fn new_chaos(pacer: Pacer, h2d: bool, card: u32, chaos: ChaosHub) -> DmaEngine {
        DmaEngine {
            pacer,
            h2d,
            card,
            chaos,
            channel: Mutex::new(()),
            busy_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }

    /// The pacer this channel stretches transfers with.
    #[cfg(test)]
    pub fn pacer(&self) -> &Pacer {
        &self.pacer
    }

    /// Snapshot of cumulative channel activity.
    pub fn stats(&self) -> DmaStats {
        DmaStats {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
        }
    }

    /// Run `copy` (the actual memcpy) on this channel, stretched to the
    /// paced duration. Transfers on one engine serialize, transfers on
    /// different engines (other direction / other card) proceed in parallel.
    ///
    /// When a chaos plan is armed the channel consults it (under the channel
    /// lock, so fault ordinals are deterministic) and an injected fault
    /// aborts the op *before* the copy runs — a faulted transfer delivers no
    /// payload. Disarmed, the check is one relaxed atomic load.
    pub fn run(&self, bytes: usize, copy: impl FnOnce()) -> Result<(), FailureCause> {
        let _serial = self.channel.lock();
        if self.chaos.is_armed() {
            if let Some(cause) = self.chaos.check_dma(self.card, self.h2d) {
                return Err(cause);
            }
        }
        let start = Instant::now();
        let deadline = start + self.pacer.target(bytes, self.h2d);
        copy();
        pace_until(deadline);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Like [`DmaEngine::run`], but for transfers whose payload crosses a
    /// real wire (remote transports): `io` performs the transfer and its
    /// measured duration is *real* link cost, so the modelled budget is
    /// paced **on top of** it — the deadline starts when the wire finishes,
    /// never overlapping the io time. Total channel occupancy is therefore
    /// `wire + target` (additive), where [`DmaEngine::run`]'s local-copy
    /// semantics are `max(copy, target)` (a memcpy is not a modelled cost).
    ///
    /// A failed `io` delivers no payload and counts nothing, exactly like
    /// an injected fault on the local path — byte/op stats stay comparable
    /// between Local and Remote transports.
    pub fn run_wire(
        &self,
        bytes: usize,
        io: impl FnOnce() -> Result<(), FailureCause>,
    ) -> Result<(), FailureCause> {
        let _serial = self.channel.lock();
        if self.chaos.is_armed() {
            if let Some(cause) = self.chaos.check_dma(self.card, self.h2d) {
                return Err(cause);
            }
        }
        let start = Instant::now();
        io()?;
        let wire_end = Instant::now();
        pace_until(wire_end + self.pacer.target(bytes, self.h2d));
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_target_is_zero() {
        let p = Pacer::unpaced();
        assert_eq!(p.target(1 << 20, true), Duration::ZERO);
        assert!(p.spec.is_none());
    }

    #[test]
    fn paced_target_scales_with_bytes() {
        let p = Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper());
        let t1 = p.target(1 << 20, true);
        let t2 = p.target(2 << 20, true);
        let delta = (t2 - t1).as_secs_f64();
        let ideal = (1 << 20) as f64 / 6.5e9;
        assert!(
            (delta - ideal).abs() / ideal < 0.01,
            "delta {delta} vs {ideal}"
        );
    }

    #[test]
    fn small_transfer_pays_fixed_overhead() {
        let p = Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper());
        let t = p.target(4096, true);
        // 10us latency + 25us fixed dominates the ~0.6us wire time.
        assert!(t >= Duration::from_micros(35) && t < Duration::from_micros(40));
    }

    #[test]
    fn engine_stretches_fast_copies() {
        let p = Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper());
        let e = DmaEngine::new_chaos(p.clone(), true, 0, ChaosHub::default());
        let start = Instant::now();
        e.run(256 * 1024, || {}).expect("no chaos armed");
        let elapsed = start.elapsed();
        let target = p.target(256 * 1024, true);
        assert!(elapsed >= target, "elapsed {elapsed:?} < target {target:?}");
        assert!(elapsed < target + Duration::from_millis(5));
    }

    #[test]
    fn engine_serializes_same_direction() {
        let p = Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper());
        let e = std::sync::Arc::new(DmaEngine::new_chaos(
            p.clone(),
            true,
            0,
            ChaosHub::default(),
        ));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let e = e.clone();
                s.spawn(move || e.run(1 << 20, || {}).expect("no chaos armed"));
            }
        });
        let elapsed = start.elapsed();
        let one = p.target(1 << 20, true);
        assert!(
            elapsed >= one * 2 - Duration::from_micros(50),
            "two same-direction transfers must serialize: {elapsed:?} vs 2x{one:?}"
        );
    }

    #[test]
    fn pace_until_past_deadline_returns_immediately() {
        let t = Instant::now();
        pace_until(t);
        assert!(t.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn run_wire_paces_on_top_of_wire_time() {
        // Satellite: modelled link time composes *additively* with measured
        // wire time — the engine must not double-count (pace the full target
        // from before the io started) nor under-count (max(io, target)).
        let link = LinkSpec::pcie_knc();
        let p = Pacer::pcie(link, Overheads::paper());
        let e = DmaEngine::new_chaos(p.clone(), true, 0, ChaosHub::default());
        let bytes = 64 << 20; // ~10ms modelled at KNC PCIe bandwidth
        let target = p.target(bytes, true);
        assert!(target > Duration::from_millis(5), "target {target:?}");
        // Measure the wire leg from inside the io closure: sleep overshoot
        // is real wire time and must not count against the slack.
        let wire_cell = std::cell::Cell::new(Duration::ZERO);
        let start = Instant::now();
        e.run_wire(bytes, || {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(30));
            wire_cell.set(t0.elapsed());
            Ok(())
        })
        .expect("wire io succeeds");
        let elapsed = start.elapsed();
        let wire = wire_cell.get();
        assert!(
            elapsed >= wire + target,
            "additive composition: {elapsed:?} < {wire:?} + {target:?}"
        );
        assert!(
            elapsed < wire + target + Duration::from_millis(15),
            "no double-count: {elapsed:?} vs {wire:?} + {target:?}"
        );
        let s = e.stats();
        assert_eq!((s.ops, s.bytes), (1, bytes as u64));
        assert!(s.busy_ns >= (wire + target).as_nanos() as u64);
    }

    #[test]
    fn run_wire_failure_delivers_no_stats() {
        let e = DmaEngine::new_chaos(Pacer::unpaced(), true, 0, ChaosHub::default());
        let err = e
            .run_wire(64, || Err(FailureCause::CardLost { card: 1 }))
            .expect_err("io failed");
        assert!(matches!(err, FailureCause::CardLost { card: 1 }));
        assert_eq!(e.stats().ops, 0, "failed wire op not counted");
    }

    #[test]
    fn injected_dma_fault_skips_the_copy() {
        use hs_chaos::{FaultKind, FaultPlan, FaultSite};
        let chaos = ChaosHub::new();
        chaos.arm(FaultPlan::new(3).with_trigger(
            FaultSite::Dma {
                card: 2,
                h2d: Some(false),
                nth: 2,
            },
            FaultKind::Transient,
        ));
        let e = DmaEngine::new_chaos(Pacer::unpaced(), false, 2, chaos);
        let mut copied = 0u32;
        e.run(64, || copied += 1).expect("1st op clean");
        let err = e.run(64, || copied += 1).expect_err("2nd op faulted");
        assert!(err.is_transient(), "{err}");
        assert_eq!(copied, 1, "faulted transfer must not deliver payload");
        assert_eq!(e.stats().ops, 1, "faulted op not counted as completed");
    }
}
