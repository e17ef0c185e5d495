//! The cost model: virtual durations for compute tasks and transfers.

use crate::calib::{eff_curve, fork_join_us};
use crate::config::{Device, LinkSpec, Overheads};
use hs_sim::Dur;
use serde::{Deserialize, Serialize};

/// Kernels the applications enqueue; each has a fitted efficiency curve per
/// device (see [`crate::calib`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum KernelKind {
    Dgemm,
    Dsyrk,
    Dtrsm,
    Dpotrf,
    Dgetrf,
    /// Dense LDLᵀ supernode factorization work (Simulia-style solver).
    Ldlt,
    /// Interior grid points of the RTM stencil.
    StencilBulk,
    /// Halo grid points of the RTM stencil.
    StencilHalo,
    /// Untyped flops.
    Generic,
    /// A fixed stall: `flops` is interpreted as microseconds, independent of
    /// the device (models synchronous runtime costs such as unpooled
    /// MIC-side buffer allocation, the bottleneck the paper's conclusions
    /// single out).
    FixedUs,
}

impl KernelKind {
    pub const ALL: [KernelKind; 10] = [
        KernelKind::Dgemm,
        KernelKind::Dsyrk,
        KernelKind::Dtrsm,
        KernelKind::Dpotrf,
        KernelKind::Dgetrf,
        KernelKind::Ldlt,
        KernelKind::StencilBulk,
        KernelKind::StencilHalo,
        KernelKind::Generic,
        KernelKind::FixedUs,
    ];

    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Dgemm => "dgemm",
            KernelKind::Dsyrk => "dsyrk",
            KernelKind::Dtrsm => "dtrsm",
            KernelKind::Dpotrf => "dpotrf",
            KernelKind::Dgetrf => "dgetrf",
            KernelKind::Ldlt => "ldlt",
            KernelKind::StencilBulk => "stencil_bulk",
            KernelKind::StencilHalo => "stencil_halo",
            KernelKind::Generic => "generic",
            KernelKind::FixedUs => "fixed_us",
        }
    }
}

/// Translates (device, cores, kernel, flops, tile size) and (link, bytes)
/// into virtual durations. One instance is shared by the whole simulated
/// platform.
#[derive(Clone, Debug)]
pub struct CostModel {
    overheads: Overheads,
}

impl CostModel {
    pub fn with_overheads(overheads: Overheads) -> CostModel {
        CostModel { overheads }
    }

    /// Achieved rate in Gflop/s for a kernel at tile dimension `tile_n`
    /// using `cores` cores of `device`.
    pub fn kernel_gflops(
        &self,
        device: Device,
        cores: u32,
        kernel: KernelKind,
        tile_n: u64,
    ) -> f64 {
        let spec = device.spec();
        let cores = cores.min(spec.total_cores());
        spec.peak_dp_gflops_cores(cores) * eff_curve(device, kernel).eff(tile_n)
    }

    /// Wall-clock seconds for `flops` floating-point operations of `kernel`
    /// at tile dimension `tile_n` on `cores` cores, including the fork/join
    /// cost of expanding the task across the stream's threads.
    pub fn kernel_secs(
        &self,
        device: Device,
        cores: u32,
        kernel: KernelKind,
        flops: f64,
        tile_n: u64,
    ) -> f64 {
        if kernel == KernelKind::FixedUs {
            return flops * 1e-6;
        }
        let rate = self.kernel_gflops(device, cores, kernel, tile_n);
        let threads = cores * device.spec().threads_per_core;
        flops / (rate * 1e9) + fork_join_us(device, threads) * 1e-6
    }

    /// Same as [`CostModel::kernel_secs`] but as a virtual duration.
    pub fn kernel_dur(
        &self,
        device: Device,
        cores: u32,
        kernel: KernelKind,
        flops: f64,
        tile_n: u64,
    ) -> Dur {
        Dur::from_secs_f64(self.kernel_secs(device, cores, kernel, flops, tile_n))
    }

    /// Duration of a transfer of `bytes` across `link` (h2d or d2h),
    /// including the small-transfer fixed overhead of §III.
    pub fn transfer_dur(&self, link: &LinkSpec, bytes: u64, h2d: bool) -> Dur {
        let bw = if h2d {
            link.h2d_bytes_per_sec
        } else {
            link.d2h_bytes_per_sec
        };
        let fixed_us = link.latency_us + self.overheads.transfer_fixed_us(bytes);
        Dur::from_secs_f64(fixed_us * 1e-6 + bytes as f64 / bw)
    }

    /// Source-side enqueue overhead per action.
    pub fn enqueue_dur(&self) -> Dur {
        Dur::from_secs_f64(self.overheads.enqueue_us * 1e-6)
    }

    /// Sink-side invocation overhead for a remote compute action.
    pub fn invoke_dur(&self, device: Device) -> Dur {
        if device.is_accelerator() {
            Dur::from_secs_f64(self.overheads.invoke_us * 1e-6)
        } else {
            // Host-as-target invocations are function calls — negligible
            // (§III: "overheads for hStreams on the host were negligible").
            Dur::from_secs_f64(0.3e-6)
        }
    }

    /// Device-side buffer instantiation cost.
    pub fn alloc_dur(&self, pooled: bool) -> Dur {
        let us = if pooled {
            self.overheads.alloc_pool_us
        } else {
            self.overheads.alloc_no_pool_us
        };
        Dur::from_secs_f64(us * 1e-6)
    }

    /// OmpSs task instantiation + scheduling overhead on the source.
    pub fn ompss_task_dur(&self) -> Dur {
        Dur::from_secs_f64(self.overheads.ompss_task_us * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::with_overheads(Overheads::paper())
    }

    #[test]
    fn large_dgemm_rate_on_hsw_close_to_902() {
        // A 10000^3-scale op at tile 2000 should achieve close to the fitted
        // asymptote (0.774 * 1164.8 ~= 902 at eff(2000) ~= 0.886 of max).
        let rate = cm().kernel_gflops(Device::Hsw, 28, KernelKind::Dgemm, 2000);
        assert!(rate > 750.0 && rate < 902.0, "rate {rate}");
    }

    #[test]
    fn kernel_secs_scales_with_flops() {
        let t1 = cm().kernel_secs(Device::Hsw, 28, KernelKind::Dgemm, 1e9, 1000);
        let t2 = cm().kernel_secs(Device::Hsw, 28, KernelKind::Dgemm, 2e9, 1000);
        // Double flops slightly less than doubles time (fixed fork/join).
        assert!(t2 > 1.9 * t1 && t2 < 2.0 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn more_cores_is_faster() {
        let t_full = cm().kernel_secs(Device::Knc, 60, KernelKind::Dgemm, 1e10, 1200);
        let t_quarter = cm().kernel_secs(Device::Knc, 15, KernelKind::Dgemm, 1e10, 1200);
        assert!(t_quarter > 3.0 * t_full);
    }

    #[test]
    fn cores_clamp_at_device_size() {
        let a = cm().kernel_gflops(Device::Hsw, 28, KernelKind::Dgemm, 1000);
        let b = cm().kernel_gflops(Device::Hsw, 999, KernelKind::Dgemm, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let link = LinkSpec::pcie_knc();
        let small = cm().transfer_dur(&link, 4 * 1024, true);
        // 4 KB is overhead-dominated: 10us latency + 25us fixed.
        assert!(small > Dur::from_micros(30) && small < Dur::from_micros(45));
        let big = cm().transfer_dur(&link, 64 << 20, true);
        let ideal = (64 << 20) as f64 / 6.5e9;
        let overhead = big.as_secs_f64() / ideal - 1.0;
        assert!(
            overhead < 0.05,
            "paper: <5% overhead above 1MB, got {:.2}%",
            overhead * 100.0
        );
    }

    #[test]
    fn host_invoke_is_negligible_vs_card() {
        let host = cm().invoke_dur(Device::Hsw);
        let card = cm().invoke_dur(Device::Knc);
        assert!(card.0 > 10 * host.0);
    }

    #[test]
    fn pooled_alloc_is_much_cheaper() {
        let no_pool = cm().alloc_dur(false);
        let pool = cm().alloc_dur(true);
        assert!(no_pool.0 > 20 * pool.0);
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut names: Vec<_> = KernelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), KernelKind::ALL.len());
    }
}
