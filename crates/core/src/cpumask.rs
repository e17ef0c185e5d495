//! CPU masks: which cores of a domain a stream's sink is bound to.
//!
//! The paper's "core APIs" let tuners provide an explicit mask per stream;
//! the "app APIs" divide a domain's cores evenly among a requested number of
//! streams. Masks here are logical (up to 128 cores per domain — enough for
//! a 61-core KNC with headroom); OS-level pinning is out of scope for the
//! reproduction (documented in DESIGN.md §10, Non-goals).

use serde::{Deserialize, Serialize};

/// A set of logical cores within one domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CpuMask(pub u128);

impl CpuMask {
    pub const EMPTY: CpuMask = CpuMask(0);

    /// Mask of cores `[start, start+count)`.
    pub fn range(start: u32, count: u32) -> CpuMask {
        assert!(
            start.checked_add(count).is_some_and(|end| end <= 128),
            "mask supports up to 128 cores"
        );
        if count == 0 {
            return CpuMask(0);
        }
        let ones = if count == 128 {
            u128::MAX
        } else {
            (1u128 << count) - 1
        };
        CpuMask(ones << start)
    }

    /// Mask of the first `count` cores.
    pub fn first(count: u32) -> CpuMask {
        Self::range(0, count)
    }

    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Divide `cores` cores evenly into `n` contiguous masks; the first
    /// `cores % n` masks get one extra core. This is the app-API partition
    /// ("resources evenly divided up among a specified number of streams").
    pub fn partition_evenly(cores: u32, n: usize) -> Vec<CpuMask> {
        assert!(n > 0, "cannot partition into zero streams");
        assert!(
            cores as usize >= n,
            "fewer cores ({cores}) than streams ({n})"
        );
        let base = cores / n as u32;
        let extra = cores % n as u32;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n as u32 {
            let len = base + u32::from(i < extra);
            out.push(CpuMask::range(start, len));
            start += len;
        }
        out
    }
}

impl std::fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CpuMask[{} cores", self.count())?;
        if !self.is_empty() {
            let lo = self.0.trailing_zeros();
            let hi = 127 - self.0.leading_zeros();
            write!(f, " {lo}..={hi}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_masks() {
        let m = CpuMask::range(4, 3);
        assert_eq!(m.count(), 3);
        assert_eq!(m.0, 0b111 << 4);
    }

    #[test]
    #[should_panic(expected = "mask supports up to 128 cores")]
    fn range_past_the_last_core_panics_instead_of_wrapping() {
        let _ = CpuMask::range(u32::MAX, 2);
    }

    #[test]
    fn full_128_core_mask() {
        let m = CpuMask::range(0, 128);
        assert_eq!(m.count(), 128);
        assert_eq!(m.0, u128::MAX);
    }

    #[test]
    fn empty_mask() {
        assert!(CpuMask::range(5, 0).is_empty());
        assert!(CpuMask::EMPTY.is_empty());
    }

    #[test]
    fn partition_covers_all_cores_disjointly() {
        for (cores, n) in [(60u32, 4usize), (28, 3), (24, 3), (61, 5), (7, 7)] {
            let parts = CpuMask::partition_evenly(cores, n);
            assert_eq!(parts.len(), n);
            let total: u32 = parts.iter().map(CpuMask::count).sum();
            assert_eq!(total, cores, "{cores} cores into {n}");
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(parts[i].0 & parts[j].0, 0, "parts must be disjoint");
                }
            }
            // Sizes differ by at most one.
            let min = parts.iter().map(CpuMask::count).min().expect("non-empty");
            let max = parts.iter().map(CpuMask::count).max().expect("non-empty");
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn paper_fig9_partitions() {
        // Fig 9: 4 streams x 60 threads on KNC (240 of 244 threads -> 60 of
        // 61 cores, 15 cores per stream), 3 streams x 9 threads HSW, 3 x 7 IVB.
        let knc = CpuMask::partition_evenly(60, 4);
        assert!(knc.iter().all(|m| m.count() == 15));
        let hsw = CpuMask::partition_evenly(27, 3);
        assert!(hsw.iter().all(|m| m.count() == 9));
        let ivb = CpuMask::partition_evenly(21, 3);
        assert!(ivb.iter().all(|m| m.count() == 7));
    }

    #[test]
    #[should_panic(expected = "fewer cores")]
    fn partition_more_streams_than_cores_panics() {
        let _ = CpuMask::partition_evenly(2, 3);
    }

    #[test]
    fn debug_format_names_core_span() {
        let s = format!("{:?}", CpuMask::range(2, 3));
        assert!(s.contains("3 cores"));
        assert!(s.contains("2..=4"));
    }
}
