//! The calibration kernel every run time is divided by.
//!
//! This host is a small shared VM whose speed moves in phases that last
//! minutes, so raw seconds from two runs of one commit differ by more than
//! any change worth measuring. Each timed repetition is therefore divided
//! by the wall time of a fixed piece of work run immediately before and
//! after it. The work lives here, never in a repo crate: an `hs-linalg`
//! speed-up must not cancel itself out.
//!
//! What moves on this host is how much of the *second* core the VM gets
//! (README.md has the sizing numbers): in a slow phase a loop on one thread
//! runs as fast as ever while the same loop on both cores at once takes up
//! to twice as long. A workload that keeps the second core busy for a share
//! `q` of its run slows down by `1 + q·(k − 1)` when the all-cores loop
//! slows down by `k`, so the kernel is timed both ways and the divisor is
//! `(1 − q)·serial + q·all_cores`, with `q` the workload's
//! [`crate::workload::Workload::parallel_share`].

use std::time::Instant;

/// Loop trips of the scalar kernel: about 30 ms on this host.
const TRIPS: u32 = 16_000_000;

/// One thread's fixed work: four independent multiply-add chains.
fn spin() -> [f64; 4] {
    let mut x = [1.0f64, 1.1, 1.2, 1.3];
    for _ in 0..std::hint::black_box(TRIPS) {
        for v in &mut x {
            *v = *v * 0.999_999 + 1e-6;
        }
    }
    x
}

/// One calibration sample.
#[derive(Clone, Copy, Debug)]
pub struct Calib {
    /// The kernel on one thread, seconds.
    pub serial_s: f64,
    /// The kernel on every core at once, until the last finishes, seconds.
    pub all_cores_s: f64,
}

impl Calib {
    pub fn measure(cores: usize) -> Calib {
        let t = Instant::now();
        std::hint::black_box(spin());
        let serial_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..cores {
                s.spawn(|| std::hint::black_box(spin()));
            }
            std::hint::black_box(spin());
        });
        Calib {
            serial_s,
            all_cores_s: t.elapsed().as_secs_f64(),
        }
    }

    /// The mean of two samples: the calibration of what ran between them.
    pub fn mean(self, other: Calib) -> Calib {
        Calib {
            serial_s: (self.serial_s + other.serial_s) / 2.0,
            all_cores_s: (self.all_cores_s + other.all_cores_s) / 2.0,
        }
    }

    /// `calib_s` for a workload that keeps the second core busy for the
    /// share `q` of its run.
    pub fn divisor(self, q: f64) -> f64 {
        (1.0 - q) * self.serial_s + q * self.all_cores_s
    }
}

/// Cores the process may run on (1 when the platform will not say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
