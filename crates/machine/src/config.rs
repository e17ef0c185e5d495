//! The paper's Fig. 2 machine-configuration table, as data.

use serde::{Deserialize, Serialize};

/// The four devices of the paper's evaluation (Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Device {
    /// Intel Xeon E5-2697v2 "Ivy Bridge", dual socket.
    Ivb,
    /// Intel Xeon E5-2697v3 "Haswell", dual socket.
    Hsw,
    /// Intel Xeon Phi 7120A "Knights Corner" coprocessor.
    Knc,
    /// NVidia K40x GPU (encoded for completeness; used only in the Abaqus
    /// hStreams-vs-CUDA-Streams normalization discussion).
    K40x,
}

impl Device {
    pub const ALL: [Device; 4] = [Device::Ivb, Device::Hsw, Device::Knc, Device::K40x];

    /// Full Fig. 2 row for the device.
    pub fn spec(self) -> DeviceSpec {
        match self {
            Device::Ivb => DeviceSpec {
                device: self,
                name: "Intel Xeon E5-2697v2 (IVB)",
                sockets: 2,
                cores_per_socket: 12,
                threads_per_core: 2,
                sp_simd_width: 8,
                dp_simd_width: 4,
                fma: false,
                fma_units: 1,
                clock_ghz: 2.7,
                ram_gb: 64,
                l1d_kb: 32,
                l2_kb: 256,
                l3_kb: Some(32 * 1024),
                os_compiler: "RHEL 6.4, Intel 16.0",
                middleware: "MPSS 3.6",
            },
            Device::Hsw => DeviceSpec {
                device: self,
                name: "Intel Xeon E5-2697v3 (HSW)",
                sockets: 2,
                cores_per_socket: 14,
                threads_per_core: 2,
                sp_simd_width: 8,
                dp_simd_width: 4,
                fma: true,
                fma_units: 2,
                clock_ghz: 2.6,
                ram_gb: 64,
                l1d_kb: 32,
                l2_kb: 256,
                l3_kb: Some(35 * 1024),
                os_compiler: "RHEL 6.4, Intel 16.0",
                middleware: "MPSS 3.6",
            },
            Device::Knc => DeviceSpec {
                device: self,
                name: "Intel Xeon Phi C0-7120A (KNC)",
                sockets: 1,
                cores_per_socket: 61,
                threads_per_core: 4,
                sp_simd_width: 16,
                dp_simd_width: 8,
                fma: true,
                fma_units: 1,
                clock_ghz: 1.33,
                ram_gb: 16,
                l1d_kb: 32,
                l2_kb: 512,
                l3_kb: None,
                os_compiler: "Linux, Intel 16.0",
                middleware: "MPSS 3.6",
            },
            Device::K40x => DeviceSpec {
                device: self,
                name: "NVidia K40x",
                sockets: 1,
                cores_per_socket: 15, // SMX count
                threads_per_core: 256,
                sp_simd_width: 192,
                dp_simd_width: 64,
                fma: true,
                fma_units: 1,
                clock_ghz: 0.875,
                ram_gb: 12,
                l1d_kb: 64,
                l2_kb: 200, // "roughly 200" in the paper
                l3_kb: None,
                os_compiler: "-",
                middleware: "CUDA 7.5",
            },
        }
    }

    /// Short label used in tables and resource names.
    pub fn short(self) -> &'static str {
        match self {
            Device::Ivb => "IVB",
            Device::Hsw => "HSW",
            Device::Knc => "KNC",
            Device::K40x => "K40x",
        }
    }

    /// Is this a coprocessor/accelerator (reached over a link)?
    pub fn is_accelerator(self) -> bool {
        matches!(self, Device::Knc | Device::K40x)
    }
}

/// One row of the paper's Fig. 2 table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub device: Device,
    pub name: &'static str,
    pub sockets: u32,
    pub cores_per_socket: u32,
    pub threads_per_core: u32,
    pub sp_simd_width: u32,
    pub dp_simd_width: u32,
    pub fma: bool,
    /// Number of FMA pipes per core (1 when `fma` is false).
    pub fma_units: u32,
    pub clock_ghz: f64,
    pub ram_gb: u32,
    pub l1d_kb: u32,
    pub l2_kb: u32,
    pub l3_kb: Option<u32>,
    pub os_compiler: &'static str,
    pub middleware: &'static str,
}

impl DeviceSpec {
    /// Total physical cores (SMX for the GPU).
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// DP flops per core per cycle.
    ///
    /// Without FMA (IVB) a core issues one SIMD mul + one SIMD add per cycle
    /// on separate ports: `width * 2`. With FMA each unit does `width * 2`
    /// flops per cycle, times the number of FMA pipes (`fma_units`): HSW has
    /// two AVX2 FMA ports, KNC one 512-bit VPU, K40x one DP path per lane.
    pub fn dp_flops_per_core_cycle(&self) -> f64 {
        if self.fma {
            self.dp_simd_width as f64 * 2.0 * self.fma_units as f64
        } else {
            self.dp_simd_width as f64 * 2.0
        }
    }

    /// Peak double-precision Gflop/s of the whole device.
    pub fn peak_dp_gflops(&self) -> f64 {
        self.peak_dp_gflops_cores(self.total_cores())
    }

    /// Peak DP Gflop/s when only `cores` cores participate.
    pub fn peak_dp_gflops_cores(&self, cores: u32) -> f64 {
        cores as f64 * self.clock_ghz * self.dp_flops_per_core_cycle()
    }

    /// Device memory capacity in bytes.
    pub fn ram_bytes(&self) -> u64 {
        self.ram_gb as u64 * (1 << 30)
    }
}

/// PCIe-like link description (per card).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way latency.
    pub latency_us: f64,
    /// Host-to-device bandwidth, bytes/s.
    pub h2d_bytes_per_sec: f64,
    /// Device-to-host bandwidth, bytes/s.
    pub d2h_bytes_per_sec: f64,
}

impl LinkSpec {
    /// PCIe gen-2 x16 to a KNC card via SCIF, as observed in the paper's era
    /// (~6.5 GB/s large-transfer throughput each way).
    pub fn pcie_knc() -> LinkSpec {
        LinkSpec {
            latency_us: 10.0,
            h2d_bytes_per_sec: 6.5e9,
            d2h_bytes_per_sec: 6.5e9,
        }
    }
}

/// Per-action overhead constants, mirroring the paper's §III analysis.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Overheads {
    /// Source-side cost of enqueuing any action (µs).
    pub enqueue_us: f64,
    /// Fixed overhead added to every transfer below
    /// [`Overheads::SMALL_TRANSFER_BYTES`] — the paper reports 20–30 µs.
    pub small_transfer_us: f64,
    /// Sink-side invocation overhead of a remote compute action (µs).
    pub invoke_us: f64,
    /// Device-side buffer instantiation without the COI 2 MB buffer pool (µs
    /// per buffer) — the paper calls this out as significant for OmpSs.
    pub alloc_no_pool_us: f64,
    /// Buffer instantiation with the pool enabled (µs per buffer).
    pub alloc_pool_us: f64,
    /// OmpSs per-task instantiation + dynamic-scheduling overhead on the
    /// source (µs per task) — the cost of its conveniences.
    pub ompss_task_us: f64,
}

impl Overheads {
    /// Transfers at or below this size pay `small_transfer_us`.
    pub const SMALL_TRANSFER_BYTES: u64 = 128 * 1024;

    /// Constants matching the paper's reported §III overheads.
    pub fn paper() -> Overheads {
        Overheads {
            enqueue_us: 5.0,
            small_transfer_us: 25.0,
            invoke_us: 8.0,
            alloc_no_pool_us: 600.0,
            alloc_pool_us: 6.0,
            ompss_task_us: 150.0,
        }
    }

    /// Fixed (latency-like) overhead of a transfer of `bytes`.
    pub fn transfer_fixed_us(&self, bytes: u64) -> f64 {
        if bytes <= Self::SMALL_TRANSFER_BYTES {
            self.small_transfer_us
        } else {
            // Large transfers amortize the fixed cost; §III reports <5%
            // overhead above 1 MB, which the bandwidth model preserves.
            self.small_transfer_us * 0.4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_core_counts() {
        assert_eq!(Device::Ivb.spec().total_cores(), 24);
        assert_eq!(Device::Hsw.spec().total_cores(), 28);
        assert_eq!(Device::Knc.spec().total_cores(), 61);
        assert_eq!(Device::K40x.spec().total_cores(), 15);
    }

    #[test]
    fn fig2_thread_counts() {
        let threads = |d: Device| d.spec().total_cores() * d.spec().threads_per_core;
        assert_eq!(threads(Device::Knc), 244);
        assert_eq!(threads(Device::Hsw), 56);
    }

    #[test]
    fn peaks_are_in_expected_ranges() {
        // IVB: 24 cores * 2.7 GHz * 8 flops = 518.4 GF/s.
        let ivb = Device::Ivb.spec().peak_dp_gflops();
        assert!((ivb - 518.4).abs() < 1.0, "IVB peak {ivb}");
        // HSW: 28 * 2.6 * 16 = 1164.8 GF/s (two AVX2 FMA ports).
        let hsw = Device::Hsw.spec().peak_dp_gflops();
        assert!((hsw - 1164.8).abs() < 1.0, "HSW peak {hsw}");
        assert!(hsw > ivb, "HSW ({hsw}) must exceed IVB ({ivb})");
        let knc = Device::Knc.spec().peak_dp_gflops();
        assert!(knc > hsw, "KNC peak ({knc}) must exceed HSW ({hsw})");
    }

    #[test]
    fn partial_core_peak_scales_linearly() {
        let spec = Device::Knc.spec();
        let half = spec.peak_dp_gflops_cores(30);
        let full = spec.peak_dp_gflops_cores(60);
        assert!((full / half - 2.0).abs() < 1e-12);
    }

    #[test]
    fn accelerator_classification() {
        assert!(Device::Knc.is_accelerator());
        assert!(Device::K40x.is_accelerator());
        assert!(!Device::Hsw.is_accelerator());
        assert!(!Device::Ivb.is_accelerator());
    }

    #[test]
    fn small_transfer_overhead_in_paper_band() {
        let o = Overheads::paper();
        let small = o.transfer_fixed_us(64 * 1024);
        assert!(
            (20.0..=30.0).contains(&small),
            "paper reports 20-30us, got {small}"
        );
        assert!(o.transfer_fixed_us(2 << 20) < small);
    }

    #[test]
    fn ram_capacity() {
        assert_eq!(Device::Knc.spec().ram_bytes(), 16 * (1 << 30));
    }
}
