//! The dependence engine.
//!
//! Within a stream, "actual dependences among actions ... are implicitly
//! specified by their FIFO order and their memory operands, and they are
//! faithfully enforced". An action's *footprint* is the set of
//! (domain, buffer, byte-range, write?) items it touches:
//!
//! * a compute task contributes one item per operand, in the stream's sink
//!   domain;
//! * a transfer contributes a read item in the source domain and a write
//!   item in the destination domain.
//!
//! Two footprints conflict iff some pair of items shares (domain, buffer),
//! the ranges overlap, and at least one side writes (RAW, WAR or WAW).
//! Read-read overlap does **not** conflict — this is what lets one broadcast
//! tile feed many concurrent consumers.

use crate::types::{BufferId, DomainId};
use hs_coi::small::SmallVec;
use std::ops::Range;

/// One touched location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FootprintItem {
    pub domain: DomainId,
    pub buffer: BufferId,
    pub range: Range<usize>,
    pub write: bool,
}

impl FootprintItem {
    pub fn new(domain: DomainId, buffer: BufferId, range: Range<usize>, write: bool) -> Self {
        FootprintItem {
            domain,
            buffer,
            range,
            write,
        }
    }
}

/// `Default` exists only so inline footprints can fill their unused slots.
impl Default for FootprintItem {
    fn default() -> Self {
        FootprintItem::new(DomainId::HOST, BufferId(0), 0..0, false)
    }
}

/// The set of locations an action touches: inline for the usual few (a
/// transfer has two items, a compute one per operand), as an action's
/// operand windows are ([`crate::exec::BufList`]).
pub type Footprint = SmallVec<FootprintItem, 4>;

fn items_conflict(a: &FootprintItem, b: &FootprintItem) -> bool {
    a.domain == b.domain
        && a.buffer == b.buffer
        && a.range.start < b.range.end
        && b.range.start < a.range.end
        && (a.write || b.write)
}

/// Do two footprints carry a data dependence?
pub fn footprints_conflict(a: &[FootprintItem], b: &[FootprintItem]) -> bool {
    a.iter().any(|x| b.iter().any(|y| items_conflict(x, y)))
}

/// Does `outer` fully contain `inner`? Used by the stream window's
/// dominated-entry pruning: a *write* whose range covers an older pending
/// item subsumes it for all future dependence queries (any future action
/// that would conflict with the covered item also overlaps — and therefore
/// conflicts with — the covering write, which itself depends on the covered
/// item; transitivity carries the edge).
pub fn covers(outer: &Range<usize>, inner: &Range<usize>) -> bool {
    outer.start <= inner.start && inner.end <= outer.end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(dom: usize, buf: u64, range: Range<usize>, write: bool) -> FootprintItem {
        FootprintItem::new(DomainId(dom), BufferId(buf), range, write)
    }

    #[test]
    fn raw_war_waw_conflict() {
        let w = vec![item(1, 0, 0..10, true)];
        let r = vec![item(1, 0, 5..15, false)];
        let w2 = vec![item(1, 0, 9..12, true)];
        assert!(footprints_conflict(&w, &r), "RAW");
        assert!(footprints_conflict(&r, &w), "WAR");
        assert!(footprints_conflict(&w, &w2), "WAW");
    }

    #[test]
    fn read_read_does_not_conflict() {
        let a = vec![item(1, 0, 0..10, false)];
        let b = vec![item(1, 0, 0..10, false)];
        assert!(!footprints_conflict(&a, &b));
    }

    #[test]
    fn disjoint_ranges_do_not_conflict() {
        let a = vec![item(1, 0, 0..10, true)];
        let b = vec![item(1, 0, 10..20, true)];
        assert!(!footprints_conflict(&a, &b), "touching but disjoint");
    }

    #[test]
    fn different_buffers_do_not_conflict() {
        let a = vec![item(1, 0, 0..10, true)];
        let b = vec![item(1, 1, 0..10, true)];
        assert!(!footprints_conflict(&a, &b));
    }

    #[test]
    fn different_domains_do_not_conflict() {
        // A tile's host copy and card copy are separate locations: computing
        // on the card copy does not conflict with reading the host copy.
        let a = vec![item(0, 0, 0..10, true)];
        let b = vec![item(1, 0, 0..10, true)];
        assert!(!footprints_conflict(&a, &b));
    }

    #[test]
    fn transfer_vs_compute_raw() {
        // Transfer h2d of buffer 0 writes the card copy; compute on the card
        // reading buffer 0 must depend on it.
        let xfer = vec![item(0, 0, 0..80, false), item(1, 0, 0..80, true)];
        let comp = vec![item(1, 0, 0..80, false), item(1, 1, 0..80, true)];
        assert!(footprints_conflict(&xfer, &comp));
    }

    #[test]
    fn independent_transfer_overtakes_compute() {
        // Paper §II: "if compute task A is enqueued, followed by a transfer
        // of data for independent task B, then B's data transfer may proceed
        // out of order" — i.e. no conflict.
        let comp_a = vec![item(1, 0, 0..80, false), item(1, 1, 0..80, true)];
        let xfer_b = vec![item(0, 2, 0..80, false), item(1, 2, 0..80, true)];
        assert!(!footprints_conflict(&comp_a, &xfer_b));
    }

    #[test]
    fn empty_footprints_never_conflict() {
        let e = Footprint::new();
        let a = vec![item(1, 0, 0..10, true)];
        assert!(!footprints_conflict(&e, &a));
        assert!(!footprints_conflict(&e, &e));
    }

    #[test]
    fn multi_item_footprints_conflict_on_any_pair() {
        let a = vec![item(1, 0, 0..10, false), item(1, 1, 0..10, true)];
        let b = vec![item(1, 2, 0..10, true), item(1, 1, 5..6, false)];
        assert!(footprints_conflict(&a, &b), "conflict via buffer 1");
    }

    #[test]
    fn covers_is_containment_not_overlap() {
        assert!(covers(&(0..10), &(0..10)), "equal ranges cover");
        assert!(covers(&(0..10), &(3..7)));
        assert!(covers(&(0..10), &(5..5)), "empty inner is covered");
        assert!(!covers(&(0..10), &(5..15)), "overlap is not containment");
        assert!(!covers(&(3..7), &(0..10)), "not symmetric");
        assert!(!covers(&(0..10), &(10..12)), "disjoint");
    }
}
