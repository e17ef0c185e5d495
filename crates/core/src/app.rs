//! The "app API" layer: convenience entry points mirroring the original
//! library's `hStreams_app_*` calls (memset, memcpy, dgemm, sequential
//! helpers). The paper positions these as the high-productivity tier above
//! the core APIs: "this division and assignment can be under full user
//! control with low-level APIs, or almost fully-automatic, with high-level
//! APIs".
//!
//! The compute-bearing app calls ship with built-in sink kernels
//! (registered automatically on first use), so a user program can run a
//! tiled DGEMM without registering anything — exactly what
//! `hStreams_app_dgemm` offered.

use crate::types::{Access, BufferId, CostHint, Event, HsResult, Operand, StreamId};
use crate::{HStreams, TaskCtx};
use bytes::Bytes;
use hs_machine::KernelKind;
use std::ops::Range;
use std::sync::Arc;

/// Names of the built-in sink kernels.
pub const K_MEMSET: &str = "__hs_app_memset";
pub const K_COPY: &str = "__hs_app_copy";
pub const K_DGEMM: &str = "__hs_app_dgemm";

fn builtin_memset(ctx: &mut TaskCtx) {
    let v = ctx.args()[0];
    ctx.buf_mut(0).fill(v);
}

fn builtin_copy(ctx: &mut TaskCtx) {
    let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
    dst.copy_from_slice(src);
}

/// args: m, n, k, beta01 as little-endian u32s; operands (A, B, C) row-major.
fn builtin_dgemm(ctx: &mut TaskCtx) {
    let d: Vec<u32> = ctx
        .args()
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte dim")))
        .collect();
    let (m, n, k, beta) = (d[0] as usize, d[1] as usize, d[2] as usize, d[3]);
    let a: Vec<f64> = ctx.buf_f64(0).to_vec();
    let b: Vec<f64> = ctx.buf_f64(1).to_vec();
    let c = ctx.buf_f64_mut(2);
    if beta == 0 {
        c.fill(0.0);
    }
    // Cache-friendly i-k-j with the a[i][k] scalar hoisted; correctness-
    // grade (the paper's app dgemm delegated to MKL; speed here comes from
    // the calibrated simulator, numerics from this kernel).
    for i in 0..m {
        for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    }
}

impl HStreams {
    fn ensure_builtins(&self) {
        self.inner.builtins.call_once(|| {
            self.register(K_MEMSET, Arc::new(builtin_memset));
            self.register(K_COPY, Arc::new(builtin_copy));
            self.register(K_DGEMM, Arc::new(builtin_dgemm));
        });
    }

    /// `hStreams_app_memset`: fill `buf[range]` with `value` in the stream's
    /// sink domain.
    pub fn app_memset(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
        value: u8,
    ) -> HsResult<Event> {
        self.ensure_builtins();
        self.stats().bump("app_memset");
        self.enqueue_compute(
            s,
            K_MEMSET,
            Bytes::copy_from_slice(&[value]),
            &[Operand::new(buf, range, Access::Out)],
            CostHint::trivial(),
        )
    }

    /// `hStreams_app_memcpy`: copy `src[sr]` into `dst[dr]` within the
    /// stream's sink domain (both f64-aligned, equal length).
    pub fn app_memcpy(
        &self,
        s: StreamId,
        src: BufferId,
        sr: Range<usize>,
        dst: BufferId,
        dr: Range<usize>,
    ) -> HsResult<Event> {
        if sr.len() != dr.len() {
            return Err(crate::HsError::InvalidArg(
                "app_memcpy ranges must have equal length".into(),
            ));
        }
        self.ensure_builtins();
        self.stats().bump("app_memcpy");
        self.enqueue_compute(
            s,
            K_COPY,
            Bytes::new(),
            &[
                Operand::new(src, sr, Access::In),
                Operand::new(dst, dr, Access::Out),
            ],
            CostHint::trivial(),
        )
    }

    /// `hStreams_app_dgemm`: `C = A·B (+ C)` on row-major buffers in the
    /// stream's sink domain, with the proper DGEMM cost hint for the
    /// virtual-time executor.
    #[allow(clippy::too_many_arguments)]
    pub fn app_dgemm(
        &self,
        s: StreamId,
        a: BufferId,
        b: BufferId,
        c: BufferId,
        m: usize,
        n: usize,
        k: usize,
        accumulate: bool,
    ) -> HsResult<Event> {
        self.ensure_builtins();
        self.stats().bump("app_dgemm");
        let mut args = Vec::with_capacity(16);
        for v in [m as u32, n as u32, k as u32, u32::from(accumulate)] {
            args.extend_from_slice(&v.to_le_bytes());
        }
        let ops = [
            Operand::f64s(a, 0, m * k, Access::In),
            Operand::f64s(b, 0, k * n, Access::In),
            Operand::f64s(
                c,
                0,
                m * n,
                if accumulate {
                    Access::InOut
                } else {
                    Access::Out
                },
            ),
        ];
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        self.enqueue_compute(
            s,
            K_DGEMM,
            Bytes::from(args),
            &ops,
            CostHint::new(KernelKind::Dgemm, flops, n.max(m).max(k) as u64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufProps, CpuMask, DomainId, ExecMode};
    use hs_machine::{Device, PlatformCfg};

    fn rt() -> HStreams {
        HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads)
    }

    #[test]
    fn app_memset_fills_sink_copy() {
        let hs = rt();
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(2)).expect("stream");
        let b = hs.buffer_create(64, BufProps::default());
        hs.buffer_instantiate(b, card).expect("inst");
        hs.app_memset(s, b, 0..64, 0x2a).expect("memset");
        hs.xfer_to_source(s, b, 0..64).expect("d2h");
        hs.stream_synchronize(s).expect("sync");
        let mut out = [0.0; 8];
        hs.buffer_read_f64(b, 0, &mut out).expect("read");
        assert!(out.iter().all(|x| x.to_le_bytes() == [0x2a; 8]));
    }

    #[test]
    fn app_memcpy_moves_between_buffers() {
        let hs = rt();
        let host = DomainId::HOST;
        let s = hs.stream_create(host, CpuMask::first(2)).expect("stream");
        let a = hs.buffer_create(64, BufProps::default());
        let b = hs.buffer_create(64, BufProps::default());
        hs.buffer_write_f64(a, 0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .expect("write");
        hs.app_memcpy(s, a, 0..64, b, 0..64).expect("copy");
        hs.stream_synchronize(s).expect("sync");
        let mut out = [0.0; 8];
        hs.buffer_read_f64(b, 0, &mut out).expect("read");
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn app_memcpy_rejects_length_mismatch() {
        let hs = rt();
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(1))
            .expect("stream");
        let a = hs.buffer_create(64, BufProps::default());
        let b = hs.buffer_create(64, BufProps::default());
        assert!(hs.app_memcpy(s, a, 0..32, b, 0..64).is_err());
    }

    #[test]
    fn app_dgemm_computes_product_on_card() {
        let hs = rt();
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(2)).expect("stream");
        let (m, n, k) = (3usize, 4, 2);
        let a = hs.buffer_create(m * k * 8, BufProps::default());
        let b = hs.buffer_create(k * n * 8, BufProps::default());
        let c = hs.buffer_create(m * n * 8, BufProps::default());
        for buf in [a, b, c] {
            hs.buffer_instantiate(buf, card).expect("inst");
        }
        hs.buffer_write_f64(a, 0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .expect("A");
        hs.buffer_write_f64(b, 0, &[1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 2.0])
            .expect("B");
        hs.xfer_to_sink(s, a, 0..m * k * 8).expect("h2d");
        hs.xfer_to_sink(s, b, 0..k * n * 8).expect("h2d");
        hs.app_dgemm(s, a, b, c, m, n, k, false).expect("dgemm");
        hs.xfer_to_source(s, c, 0..m * n * 8).expect("d2h");
        hs.stream_synchronize(s).expect("sync");
        let mut out = [0.0; 12];
        hs.buffer_read_f64(c, 0, &mut out).expect("read");
        // [1 2; 3 4; 5 6] * [1 0 2 0; 0 1 0 2]
        assert_eq!(
            out,
            [1.0, 2.0, 2.0, 4.0, 3.0, 4.0, 6.0, 8.0, 5.0, 6.0, 10.0, 12.0]
        );
    }

    #[test]
    fn app_dgemm_accumulates_when_asked() {
        let hs = rt();
        let s = hs
            .stream_create(DomainId::HOST, CpuMask::first(2))
            .expect("stream");
        let (m, n, k) = (2usize, 2, 2);
        let a = hs.buffer_create(m * k * 8, BufProps::default());
        let b = hs.buffer_create(k * n * 8, BufProps::default());
        let c = hs.buffer_create(m * n * 8, BufProps::default());
        hs.buffer_write_f64(a, 0, &[1.0, 0.0, 0.0, 1.0]).expect("A");
        hs.buffer_write_f64(b, 0, &[1.0, 2.0, 3.0, 4.0]).expect("B");
        hs.buffer_write_f64(c, 0, &[10.0, 10.0, 10.0, 10.0])
            .expect("C");
        hs.app_dgemm(s, a, b, c, m, n, k, true).expect("dgemm");
        hs.stream_synchronize(s).expect("sync");
        let mut out = [0.0; 4];
        hs.buffer_read_f64(c, 0, &mut out).expect("read");
        assert_eq!(out, [11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn app_calls_have_cost_hints_in_sim() {
        // A big app_dgemm in sim mode must take real virtual time (the cost
        // hint is wired through).
        let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
        let card = DomainId(1);
        let s = hs.stream_create(card, CpuMask::first(60)).expect("stream");
        let n = 4000usize;
        let a = hs.buffer_create(n * n * 8, BufProps::default());
        let b = hs.buffer_create(n * n * 8, BufProps::default());
        let c = hs.buffer_create(n * n * 8, BufProps::default());
        for buf in [a, b, c] {
            hs.buffer_instantiate(buf, card).expect("inst");
        }
        hs.app_dgemm(s, a, b, c, n, n, n, false).expect("dgemm");
        hs.thread_synchronize().expect("sync");
        // 2*4000^3 = 1.28e11 flops at <1 TF/s => > 0.1s.
        assert!(hs.now_secs() > 0.1, "{}", hs.now_secs());
    }
}
