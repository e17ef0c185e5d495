//! OpenMP-offload-shaped execution models.
//!
//! §IV of the paper pins two OpenMP gaps: (1) no way "to subdivide a device
//! to be able to have multiple offload regions running concurrently onto
//! disjoint sets of heterogeneous resources", and (2) in 4.0, no
//! asynchronous data transfers. [`OffloadModel`] reproduces both versions:
//! every device gets exactly **one whole-device stream**, and
//! [`OmpVersion::V40`] target regions are fully synchronous while
//! [`OmpVersion::V45`] regions are `nowait` with `depend`-style event lists.

use bytes::Bytes;
use hs_machine::PlatformCfg;
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode, HStreams, HsResult,
    Operand, StreamId,
};
use std::ops::Range;

/// Which OpenMP spec the model mimics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OmpVersion {
    /// 4.0: synchronous target regions (implicit map in/out around each).
    V40,
    /// 4.5: `target nowait` + `depend` — async transfers and regions, but
    /// still whole-device granularity.
    V45,
}

/// A `target data` / `target` style offload model.
pub struct OffloadModel {
    hs: HStreams,
    version: OmpVersion,
    /// One whole-device stream per domain (index = domain id).
    dev_streams: Vec<StreamId>,
}

impl OffloadModel {
    pub fn new(platform: PlatformCfg, mode: ExecMode, version: OmpVersion) -> OffloadModel {
        let hs = HStreams::init(platform, mode);
        let mut dev_streams = Vec::new();
        for d in hs.domains() {
            let s = hs
                .stream_create(d.id, CpuMask::first(d.cores))
                .expect("whole-device stream");
            dev_streams.push(s);
        }
        OffloadModel {
            hs,
            version,
            dev_streams,
        }
    }

    /// `omp_target_alloc` / implicit `map(alloc:)`.
    pub fn map_alloc(&mut self, len: usize, device: DomainId) -> HsResult<BufferId> {
        let b = self.hs.buffer_create(len, BufProps::default());
        self.hs.buffer_instantiate(b, device)?;
        Ok(b)
    }

    /// One `#pragma omp target` region on `device`: map inputs to the
    /// device, run `func` across the whole device, map outputs back.
    ///
    /// * V40: blocks until the region (and its maps) complete; returns
    ///   `None`.
    /// * V45: returns the region's completion [`Event`] (`nowait`); the
    ///   region itself waits on `depends` (the `depend` clause).
    #[allow(clippy::too_many_arguments)]
    pub fn target(
        &mut self,
        device: DomainId,
        func: &str,
        args: Bytes,
        inputs: &[(BufferId, Range<usize>)],
        outputs: &[(BufferId, Range<usize>)],
        cost: CostHint,
        depends: &[Event],
    ) -> HsResult<Option<Event>> {
        let s = self.dev_streams[device.0];
        if !depends.is_empty() {
            self.hs.enqueue_event_wait(s, depends)?;
        }
        for (b, r) in inputs {
            self.hs
                .enqueue_xfer(s, *b, r.clone(), DomainId::HOST, device)?;
        }
        // A buffer range that is both mapped in and out is one InOut
        // operand (OpenMP's map(tofrom:)).
        let mut ops: Vec<Operand> = outputs
            .iter()
            .map(|(b, r)| Operand::new(*b, r.clone(), Access::InOut))
            .collect();
        for (b, r) in inputs {
            let dup = outputs
                .iter()
                .any(|(ob, or)| ob == b && or.start < r.end && r.start < or.end);
            if !dup {
                ops.push(Operand::new(*b, r.clone(), Access::In));
            }
        }
        self.hs.enqueue_compute(s, func, args, &ops, cost)?;
        let mut last = None;
        for (b, r) in outputs {
            last = Some(
                self.hs
                    .enqueue_xfer(s, *b, r.clone(), device, DomainId::HOST)?,
            );
        }
        match self.version {
            OmpVersion::V40 => {
                // Synchronous region: the paper's OpenMP 4.0 column.
                self.hs.stream_synchronize(s)?;
                Ok(None)
            }
            OmpVersion::V45 => {
                // nowait: hand back an event for later taskwait/depend use.
                let ev = match last {
                    Some(e) => e,
                    None => self.hs.enqueue_marker(s)?,
                };
                Ok(Some(ev))
            }
        }
    }

    /// `#pragma omp taskwait` — wait for everything.
    pub fn taskwait(&mut self) -> HsResult<()> {
        self.hs.thread_synchronize()
    }

    pub fn now_secs(&self) -> f64 {
        self.hs.now_secs()
    }

    /// Measured API counts of the runtime underneath: (unique APIs, total
    /// calls), read from its `api.unique` / `api.calls` metrics rows.
    pub fn api_counts(&self) -> (usize, u64) {
        let m = self.hs.metrics().extra;
        (m["api.unique"] as usize, m["api.calls"] as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::Device;
    use std::sync::Arc;

    fn model(v: OmpVersion) -> OffloadModel {
        let m = OffloadModel::new(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads, v);
        m.hs.register(
            "scale3",
            Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
                let n = ctx.num_bufs();
                for x in ctx.buf_f64_mut(n - 1) {
                    *x *= 3.0;
                }
            }),
        );
        m
    }

    #[test]
    fn v40_target_is_synchronous_and_correct() {
        let mut m = model(OmpVersion::V40);
        let dev = DomainId(1);
        let b = m.map_alloc(8 * 2, dev).expect("alloc");
        m.hs.buffer_write_f64(b, 0, &[2.0, 5.0]).expect("write");
        let ev = m
            .target(
                dev,
                "scale3",
                Bytes::new(),
                &[(b, 0..16)],
                &[(b, 0..16)],
                CostHint::trivial(),
                &[],
            )
            .expect("target");
        assert!(ev.is_none(), "4.0 regions are synchronous");
        let mut out = [0.0; 2];
        m.hs.buffer_read_f64(b, 0, &mut out).expect("read");
        assert_eq!(out, [6.0, 15.0]);
    }

    #[test]
    fn v45_target_returns_event_and_depend_chains() {
        let mut m = model(OmpVersion::V45);
        let dev = DomainId(1);
        let b = m.map_alloc(8 * 2, dev).expect("alloc");
        m.hs.buffer_write_f64(b, 0, &[1.0, 1.0]).expect("write");
        let e1 = m
            .target(
                dev,
                "scale3",
                Bytes::new(),
                &[(b, 0..16)],
                &[(b, 0..16)],
                CostHint::trivial(),
                &[],
            )
            .expect("t1")
            .expect("4.5 returns an event");
        let _e2 = m
            .target(
                dev,
                "scale3",
                Bytes::new(),
                &[(b, 0..16)],
                &[(b, 0..16)],
                CostHint::trivial(),
                &[e1],
            )
            .expect("t2")
            .expect("event");
        m.taskwait().expect("taskwait");
        let mut out = [0.0; 2];
        m.hs.buffer_read_f64(b, 0, &mut out).expect("read");
        assert_eq!(out, [9.0, 9.0]);
    }

    #[test]
    fn whole_device_streams_only() {
        let m = model(OmpVersion::V40);
        // One stream per domain, each as wide as the whole device.
        assert_eq!(m.dev_streams.len(), 2);
    }

    #[test]
    fn v40_is_slower_than_v45_in_sim() {
        // Two independent regions on one device: 4.0 serializes region
        // boundaries with the host; 4.5 lets the second region's transfers
        // overlap the first region's compute.
        use hs_machine::KernelKind;
        let run = |v: OmpVersion| {
            let mut m = OffloadModel::new(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim, v);
            let dev = DomainId(1);
            let mb = 32 << 20;
            let bufs: Vec<BufferId> = (0..4)
                .map(|_| m.map_alloc(mb, dev).expect("alloc"))
                .collect();
            let mut evs = Vec::new();
            for b in &bufs {
                let e = m
                    .target(
                        dev,
                        "work",
                        Bytes::new(),
                        &[(*b, 0..mb)],
                        &[(*b, 0..mb)],
                        CostHint::new(KernelKind::Dgemm, 5e10, 2000),
                        &[],
                    )
                    .expect("target");
                if let Some(e) = e {
                    evs.push(e);
                }
            }
            m.taskwait().expect("wait");
            m.now_secs()
        };
        let t40 = run(OmpVersion::V40);
        let t45 = run(OmpVersion::V45);
        assert!(
            t45 < t40 * 0.95,
            "4.5 async must beat 4.0 sync: {t45} vs {t40}"
        );
    }
}
