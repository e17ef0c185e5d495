//! Resource servers and the semaphores that gate them.
//!
//! A **server** models a resource that serves jobs FIFO with `width`
//! concurrent slots: an hStreams stream sink (one compute task at a time,
//! expanded over the stream's cores) is a serial server; a DMA direction of a
//! PCIe link is another serial server; a pool of independent cores is a wide
//! server. A **semaphore** is a domain's core count, which the jobs of
//! overlapping streams hold while in service.

use crate::time::Dur;
use crate::token::Token;
use std::collections::VecDeque;

/// Handle to a server.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ServerId(pub(crate) usize);

/// Handle to a counting semaphore (models shared domain capacity).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SemId(pub(crate) usize);

pub(crate) struct Job {
    pub service: Dur,
    pub done: Token,
    /// Capacity this job must hold while in service: (semaphore, units).
    pub gate: Option<(SemId, u32)>,
}

pub(crate) struct ServerState {
    pub width: usize,
    pub busy: usize,
    pub queue: VecDeque<Job>,
    /// Registered as a waiter on a semaphore (head job gated, capacity
    /// short). Cleared when the pump runs again.
    pub parked: bool,
}

impl ServerState {
    pub fn new(width: usize) -> Self {
        ServerState {
            width,
            busy: 0,
            queue: VecDeque::new(),
            parked: false,
        }
    }
}

pub(crate) struct SemState {
    pub available: u32,
    /// Servers whose head job waits for capacity, FIFO.
    pub waiters: VecDeque<ServerId>,
}

#[cfg(test)]
mod tests {
    use crate::{Dur, Sim};

    #[test]
    fn fifo_order_is_respected_among_queued_jobs() {
        let mut sim = Sim::new();
        let s = sim.server_create(1);
        let tokens: Vec<_> = (0..4)
            .map(|_| sim.server_enqueue(s, Dur::from_micros(1), None))
            .collect();
        sim.run();
        let times: Vec<_> = tokens
            .iter()
            .map(|t| sim.token_fire_time(*t).expect("job completes"))
            .collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "FIFO completion order");
        }
    }

    #[test]
    fn zero_width_is_rejected() {
        let mut sim = Sim::new();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.server_create(0)));
        assert!(result.is_err());
    }
}
