//! DMA channels: one serialized channel per (card, direction).
//!
//! A [`DmaEngine`] runs one transfer at a time, the way a DMA channel of a
//! PCIe card does, consults the fault-injection hub before each one and
//! counts what it moved. It prices nothing: a transfer takes as long as its
//! `memcpy` or its wire call. The modelled link time of §III belongs to the
//! sim layer (`hs_machine::CostModel::transfer_dur`).

use hs_chaos::{ChaosHub, FailureCause};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A vestige of the removed DMA pacing: `benchmark/src/probes.rs` still
/// builds `CoiRuntime::new(1, Pacer::unpaced())`, and the benchmark's
/// sources change only in a benchmark change. It holds nothing and changes
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct Pacer;

impl Pacer {
    /// The only value there is.
    pub fn unpaced() -> Pacer {
        Pacer
    }
}

/// Cumulative activity of one DMA channel, for link-utilization metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Total time the channel was occupied by its copies or wire calls, ns.
    pub busy_ns: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Number of transfers run.
    pub ops: u64,
}

/// A serialized DMA channel for one (card, direction) pair.
pub struct DmaEngine {
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
    pub fn new_chaos(h2d: bool, card: u32, chaos: ChaosHub) -> DmaEngine {
        DmaEngine {
            h2d,
            card,
            chaos,
            channel: Mutex::new(()),
            busy_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        }
    }

    /// Snapshot of cumulative channel activity.
    pub fn stats(&self) -> DmaStats {
        DmaStats {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
        }
    }

    /// Run `io` — a local `memcpy` or a remote transport's wire call — on
    /// this channel. Transfers on one engine serialize, transfers on
    /// different engines (other direction / other card) proceed in parallel.
    ///
    /// When a chaos plan is armed the channel consults it (under the channel
    /// lock, so fault ordinals are deterministic) and an injected fault
    /// aborts the op *before* `io` runs — a faulted transfer delivers no
    /// payload. Disarmed, the check is one relaxed atomic load. A failed op,
    /// injected or returned by `io`, counts nothing, so byte and op stats
    /// are comparable between local and remote transports.
    pub fn run(
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
    use std::sync::Barrier;

    #[test]
    fn engine_serializes_same_direction() {
        // The first op holds the channel until the second has had time to
        // reach it; the second must not run its copy before the first ends.
        let e = DmaEngine::new_chaos(true, 0, ChaosHub::default());
        let (inside, release) = (Barrier::new(2), Barrier::new(2));
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                e.run(1 << 20, || {
                    inside.wait();
                    release.wait();
                    order.lock().push(1);
                    Ok(())
                })
                .expect("no chaos armed")
            });
            inside.wait();
            s.spawn(|| {
                e.run(1 << 20, || {
                    order.lock().push(2);
                    Ok(())
                })
                .expect("no chaos armed")
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            release.wait();
        });
        assert_eq!(*order.lock(), [1, 2], "the second op ran inside the first");
        let s = e.stats();
        assert_eq!((s.ops, s.bytes), (2, 2 << 20));
    }

    #[test]
    fn the_two_directions_run_side_by_side() {
        // The h2d op waits inside its copy for the d2h op to finish: only
        // two channels that do not serialize each other let both through.
        let up = DmaEngine::new_chaos(true, 1, ChaosHub::default());
        let down = DmaEngine::new_chaos(false, 1, ChaosHub::default());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let up = &up;
            s.spawn(move || {
                up.run(8, || {
                    rx.recv_timeout(std::time::Duration::from_secs(10))
                        .expect("the d2h op ran while the h2d op held its channel");
                    Ok(())
                })
                .expect("no chaos armed")
            });
            down.run(8, || {
                tx.send(()).expect("h2d op waiting");
                Ok(())
            })
            .expect("no chaos armed");
        });
        assert_eq!((up.stats().ops, down.stats().ops), (1, 1));
    }

    #[test]
    fn a_failed_op_leaves_the_channel_usable() {
        let e = DmaEngine::new_chaos(true, 0, ChaosHub::default());
        e.run(64, || Err(FailureCause::Exec("wire".into())))
            .expect_err("io failed");
        e.run(32, || Ok(())).expect("the channel was released");
        let s = e.stats();
        assert_eq!((s.ops, s.bytes), (1, 32));
    }

    #[test]
    fn busy_time_is_the_io_time() {
        let e = DmaEngine::new_chaos(false, 0, ChaosHub::default());
        let pause = std::time::Duration::from_millis(3);
        e.run(1, || {
            std::thread::sleep(pause);
            Ok(())
        })
        .expect("no chaos armed");
        assert!(e.stats().busy_ns >= pause.as_nanos() as u64);
    }

    #[test]
    fn run_failure_delivers_no_stats() {
        let e = DmaEngine::new_chaos(true, 0, ChaosHub::default());
        let err = e
            .run(64, || Err(FailureCause::CardLost { card: 1 }))
            .expect_err("io failed");
        assert!(matches!(err, FailureCause::CardLost { card: 1 }));
        assert_eq!(e.stats(), DmaStats::default(), "failed op not counted");
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
        let e = DmaEngine::new_chaos(false, 2, chaos);
        let mut copied = 0u32;
        let mut copy = || {
            copied += 1;
            Ok(())
        };
        e.run(64, &mut copy).expect("1st op clean");
        let err = e.run(64, &mut copy).expect_err("2nd op faulted");
        assert!(err.is_transient(), "{err}");
        assert_eq!(copied, 1, "faulted transfer must not deliver payload");
        assert_eq!(e.stats().ops, 1, "faulted op not counted as completed");
    }
}
