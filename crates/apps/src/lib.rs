//! # hs-apps — the paper's applications on the hStreams runtime
//!
//! Each module implements one of §V's applications, parameterized by
//! platform and executor so the same code validates numerically in
//! real-thread mode and regenerates the paper's performance figures in
//! virtual-time mode:
//!
//! * [`matmul`] — heterogeneous tiled matrix multiplication with the Fig. 4
//!   distribution (A broadcast, B/C column panels, host-as-target streams,
//!   optional load balancing) — Figs. 3 and 6;
//! * [`cholesky`] — heterogeneous tiled Cholesky with the Fig. 5
//!   distribution, plus the MKL-Automatic-Offload-like and MAGMA-like
//!   comparator schedules and the OmpSs port — Fig. 7;
//! * [`solver`] — the Abaqus/Standard-like symmetric solver: a standalone
//!   dense LDLᵀ supernode (Fig. 9) and the 8-workload full-application
//!   model (Fig. 8);
//! * [`rtm`] — the Petrobras-like reverse-time-migration stencil with
//!   barrier-based and dependence-queued halo exchange schemes (§VI).

pub mod cholesky;
pub mod kernels;
pub mod lu;
pub mod matmul;
pub mod remote;
pub mod rtm;
pub mod solver;
pub mod tilebuf;
pub mod tuned;

use hstreams_core::{CpuMask, DomainId, Event, HStreams, HsResult, StreamId};

/// Create `n` worker streams on `domain`, honoring an optional tuned mask
/// width: `None` keeps the classic even partition of the domain's cores
/// (`app_init`); `Some(w)` binds each stream to a disjoint `w`-core mask,
/// clamped so the demand never oversubscribes the domain. Every app's
/// `mask_width` config knob funnels through here.
///
/// The width knob binds only the *tuned* compute domain — the cards when
/// the platform has any, else the host. Host helper streams on a carded
/// platform keep their even partition: the tuner's machine signature
/// keys the width to the card's core count, and bleeding a card-sized
/// width onto the host would silently reshape streams the search never
/// measured.
pub fn domain_streams(
    hs: &HStreams,
    domain: DomainId,
    n: usize,
    mask_width: Option<u32>,
) -> HsResult<Vec<StreamId>> {
    let cores = hs
        .domains()
        .get(domain.0)
        .map(|d| d.cores)
        .unwrap_or(1)
        .max(1);
    let n = n.min(cores as usize).max(1);
    let mask_width = if domain == DomainId::HOST && hs.platform().num_cards() > 0 {
        None
    } else {
        mask_width
    };
    match mask_width {
        None => hs.app_init(&[(domain, n)]),
        Some(w) => {
            let w = w.clamp(1, (cores / n as u32).max(1));
            (0..n as u32)
                .map(|i| hs.stream_create(domain, CpuMask::range(i * w, w)))
                .collect()
        }
    }
}

/// Make stream `s` wait for whichever of `events` exist, in the order
/// given; none at all enqueues nothing. A schedule's dependence tables hold
/// `None` for "nothing produced this yet" (a tile not staged, a copy that
/// aliased away), so its wait sets are written as the table lookups.
pub(crate) fn wait_for(hs: &HStreams, s: StreamId, events: &[Option<Event>]) -> HsResult<()> {
    let waits: Vec<Event> = events.iter().flatten().copied().collect();
    if !waits.is_empty() {
        hs.enqueue_cross_wait(s, &waits)?;
    }
    Ok(())
}
