//! # hs-machine — platform descriptions and calibrated cost models
//!
//! Encodes the machine-configuration table of the paper (Fig. 2): the Ivy
//! Bridge and Haswell Xeon hosts, the Knights Corner (KNC) Xeon Phi
//! coprocessor and the NVidia K40x, together with:
//!
//! * derived peak DP Gflop/s per device,
//! * per-device, per-kernel **efficiency curves** calibrated so simulated
//!   asymptotes land on the paper's measured single-device numbers
//!   (see [`calib`]),
//! * the PCIe link model and the per-action overhead constants the paper's
//!   §III overhead analysis reports, and
//! * ready-made heterogeneous [`PlatformCfg`]s for every configuration the
//!   evaluation sweeps (host native, 1/2 KNC offload, host + 1/2 KNC).
//!
//! Everything downstream of these constants — overlap, crossovers, scaling
//! efficiency, who-wins ordering — is produced by the actual scheduling
//! algorithms in `hstreams-core` and `hs-apps`, not baked in here.

pub mod calib;
pub mod config;
pub mod cost;
pub mod platform;

pub use config::{Device, DeviceSpec, LinkSpec, Overheads};
pub use cost::{CostModel, KernelKind};
pub use platform::{DomainCfg, DomainRole, PlatformCfg};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        let spec = Device::Hsw.spec();
        assert!(spec.peak_dp_gflops() > 1000.0);
        let cm = CostModel::with_overheads(Overheads::paper());
        let t = cm.kernel_secs(
            Device::Hsw,
            spec.total_cores(),
            KernelKind::Dgemm,
            2e9,
            1000,
        );
        assert!(t > 0.0);
    }
}
