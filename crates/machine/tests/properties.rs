//! Property tests of the cost model: monotonicity in every axis the
//! schedules rely on, and the fixed-stall kernel's exact semantics.

use hs_machine::{CostModel, Device, KernelKind, LinkSpec, Overheads, PlatformCfg};
use proptest::prelude::*;

fn cm() -> CostModel {
    CostModel::with_overheads(Overheads::paper())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// More flops never takes less time.
    #[test]
    fn kernel_secs_monotone_in_flops(
        f1 in 1.0e6f64..1.0e12, f2 in 1.0e6f64..1.0e12, tile in 64u64..8000,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        for dev in [Device::Hsw, Device::Ivb, Device::Knc] {
            let a = cm().kernel_secs(dev, 16, KernelKind::Dgemm, lo, tile);
            let b = cm().kernel_secs(dev, 16, KernelKind::Dgemm, hi, tile);
            prop_assert!(a <= b, "{dev:?}: {a} > {b}");
        }
    }

    /// More cores never makes a kernel slower.
    #[test]
    fn kernel_secs_monotone_in_cores(c1 in 1u32..64, c2 in 1u32..64, tile in 64u64..8000) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let a = cm().kernel_secs(Device::Knc, hi, KernelKind::Dgemm, 1e10, tile);
        let b = cm().kernel_secs(Device::Knc, lo, KernelKind::Dgemm, 1e10, tile);
        // Note: fork/join overhead grows with threads, but it is orders of
        // magnitude below the compute term at 1e10 flops.
        prop_assert!(a <= b, "more cores slower: {a} vs {b}");
    }

    /// Bigger tiles never lower the achieved rate (saturating ramps).
    #[test]
    fn kernel_rate_monotone_in_tile(t1 in 16u64..10_000, t2 in 16u64..10_000) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        for k in [KernelKind::Dgemm, KernelKind::Dpotrf, KernelKind::Ldlt] {
            let a = cm().kernel_gflops(Device::Knc, 60, k, lo);
            let b = cm().kernel_gflops(Device::Knc, 60, k, hi);
            prop_assert!(a <= b + 1e-9, "{k:?}: rate fell from {a} to {b}");
        }
    }

    /// Transfer time is monotone in bytes and superlinear never.
    #[test]
    fn transfer_monotone_in_bytes(b1 in 1u64..1u64 << 28, b2 in 1u64..1u64 << 28) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let link = LinkSpec::pcie_knc();
        let a = cm().transfer_dur(&link, lo, true);
        let b = cm().transfer_dur(&link, hi, true);
        prop_assert!(a <= b);
    }

    /// FixedUs kernels take exactly their requested microseconds on every
    /// device and at every width.
    #[test]
    fn fixed_us_is_device_independent(us in 1.0f64..1e6, cores in 1u32..64) {
        for dev in [Device::Hsw, Device::Ivb, Device::Knc, Device::K40x] {
            let secs = cm().kernel_secs(dev, cores, KernelKind::FixedUs, us, 1);
            prop_assert!((secs - us * 1e-6).abs() < 1e-12);
        }
    }

    /// Even partitions of platform cores stay within device limits.
    #[test]
    fn platform_cards_have_valid_links(n in 0usize..8) {
        let p = PlatformCfg::hetero(Device::Hsw, n);
        prop_assert_eq!(p.num_cards(), n);
        for (_, c) in p.cards() {
            let link = c.link.expect("cards are linked");
            prop_assert!(link.h2d_bytes_per_sec > 0.0);
            prop_assert!(c.cores > 0);
        }
    }
}

#[test]
fn overheads_paper_constants_are_the_documented_bands() {
    let o = Overheads::paper();
    // §III: 20-30 µs below 128 KB.
    assert!((20.0..=30.0).contains(&o.transfer_fixed_us(64 * 1024)));
    // Pool vs no-pool spread is the "significant" gap the paper describes.
    assert!(o.alloc_no_pool_us / o.alloc_pool_us > 50.0);
}
