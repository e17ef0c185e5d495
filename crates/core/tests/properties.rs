//! Property tests of the core data structures: CPU-mask partitions and
//! dependence-engine soundness (no dropped conflict edge, no spurious edge
//! between disjoint accesses).

use hstreams_core::deps::{footprints_conflict, Footprint, FootprintItem};
use hstreams_core::{BufferId, CpuMask, DomainId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Even partitions cover all cores disjointly with sizes within one.
    #[test]
    fn cpumask_partition_properties(cores in 1u32..128, n in 1usize..16) {
        prop_assume!(cores as usize >= n);
        let parts = CpuMask::partition_evenly(cores, n);
        let mut seen = CpuMask::EMPTY;
        for p in &parts {
            prop_assert!(!seen.intersects(p), "disjoint");
            seen = seen.union(p);
        }
        prop_assert_eq!(seen.count(), cores);
        let min = parts.iter().map(CpuMask::count).min().expect("non-empty");
        let max = parts.iter().map(CpuMask::count).max().expect("non-empty");
        prop_assert!(max - min <= 1);
    }

    /// Conflict detection is symmetric and matches a brute-force oracle.
    #[test]
    fn conflicts_match_oracle(
        items_a in proptest::collection::vec((0usize..3, 0u64..3, 0usize..50, 1usize..30, any::<bool>()), 1..6),
        items_b in proptest::collection::vec((0usize..3, 0u64..3, 0usize..50, 1usize..30, any::<bool>()), 1..6),
    ) {
        let mk = |v: &[(usize, u64, usize, usize, bool)]| -> Footprint {
            v.iter()
                .map(|(d, b, s, l, w)| FootprintItem::new(DomainId(*d), BufferId(*b), *s..*s + *l, *w))
                .collect()
        };
        let a = mk(&items_a);
        let b = mk(&items_b);
        let oracle = a.iter().any(|x| {
            b.iter().any(|y| {
                x.domain == y.domain
                    && x.buffer == y.buffer
                    && x.range.start.max(y.range.start) < x.range.end.min(y.range.end)
                    && (x.write || y.write)
            })
        });
        prop_assert_eq!(footprints_conflict(&a, &b), oracle);
        prop_assert_eq!(footprints_conflict(&b, &a), oracle, "symmetry");
    }

    /// Symmetry holds for single-item footprints across the whole parameter
    /// space (the oracle test above covers multi-item sets).
    #[test]
    fn conflict_is_symmetric(
        ia in (0usize..4, 0u64..4, 0usize..100, 1usize..50, any::<bool>()),
        ib in (0usize..4, 0u64..4, 0usize..100, 1usize..50, any::<bool>()),
    ) {
        let item = |(d, b, s, l, w): (usize, u64, usize, usize, bool)| {
            vec![FootprintItem::new(DomainId(d), BufferId(b), s..s + l, w)]
        };
        let (a, b) = (item(ia), item(ib));
        prop_assert_eq!(footprints_conflict(&a, &b), footprints_conflict(&b, &a));
    }

    /// Read-read overlap never conflicts, no matter how the ranges land —
    /// this is what lets one broadcast tile feed many concurrent readers.
    #[test]
    fn read_read_never_conflicts(
        domain in 0usize..4,
        buffer in 0u64..4,
        ra in (0usize..100, 1usize..50),
        rb in (0usize..100, 1usize..50),
    ) {
        let item = |(s, l): (usize, usize)| {
            vec![FootprintItem::new(DomainId(domain), BufferId(buffer), s..s + l, false)]
        };
        prop_assert!(!footprints_conflict(&item(ra), &item(rb)));
    }

    /// Adjacent-but-disjoint ranges (like 0..8 vs 8..16) never conflict:
    /// byte ranges are half-open, so sharing an endpoint shares no bytes.
    #[test]
    fn adjacent_disjoint_ranges_never_conflict(
        domain in 0usize..4,
        buffer in 0u64..4,
        start in 0usize..100,
        len_lo in 1usize..50,
        len_hi in 1usize..50,
        wa in any::<bool>(),
        wb in any::<bool>(),
    ) {
        let cut = start + len_lo;
        let a = vec![FootprintItem::new(DomainId(domain), BufferId(buffer), start..cut, wa)];
        let b = vec![FootprintItem::new(DomainId(domain), BufferId(buffer), cut..cut + len_hi, wb)];
        prop_assert!(!footprints_conflict(&a, &b), "touching at {} is not overlap", cut);
        prop_assert!(!footprints_conflict(&b, &a));
    }

    /// Accesses in different domains never conflict: each domain holds its
    /// own instantiation of the buffer, so there is no shared memory.
    #[test]
    fn cross_domain_never_conflicts(
        da in 0usize..8,
        db in 0usize..8,
        buffer in 0u64..4,
        ra in (0usize..100, 1usize..50),
        rb in (0usize..100, 1usize..50),
        wa in any::<bool>(),
        wb in any::<bool>(),
    ) {
        prop_assume!(da != db);
        let a = vec![FootprintItem::new(DomainId(da), BufferId(buffer), ra.0..ra.0 + ra.1, wa)];
        let b = vec![FootprintItem::new(DomainId(db), BufferId(buffer), rb.0..rb.0 + rb.1, wb)];
        prop_assert!(!footprints_conflict(&a, &b));
        prop_assert!(!footprints_conflict(&b, &a));
    }
}
