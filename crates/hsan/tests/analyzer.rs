//! Analyzer semantics over hand-built traces: each check has a positive
//! (finding produced) and a negative (clean) case, mirroring the runtime's
//! ordering rules exactly.

use hsan::hb::HbGraph;
use hsan::{check, ActionTrace, Finding};
use hstreams_core::deps::FootprintItem;
use hstreams_core::record::ActionRecord;
use hstreams_core::types::{BufferId, DomainId, OrderingMode};
use hstreams_core::ActionKind;

struct TraceBuilder {
    trace: ActionTrace,
    next_event: u64,
}

impl TraceBuilder {
    fn new(ordering: OrderingMode, streams: u32) -> TraceBuilder {
        TraceBuilder {
            trace: ActionTrace {
                ordering,
                streams,
                actions: Vec::new(),
                completions: Vec::new(),
            },
            next_event: 0,
        }
    }

    fn ooo(streams: u32) -> TraceBuilder {
        TraceBuilder::new(OrderingMode::OutOfOrder, streams)
    }

    fn action(
        &mut self,
        stream: u32,
        kind: ActionKind,
        label: &str,
        footprint: Vec<FootprintItem>,
        waits: Vec<u64>,
    ) -> u64 {
        let event = self.next_event;
        self.next_event += 1;
        self.trace.actions.push(ActionRecord {
            event,
            stream,
            kind,
            label: label.to_string(),
            footprint,
            waits,
        });
        event
    }

    fn normal(&mut self, stream: u32, label: &str, fp: Vec<FootprintItem>) -> u64 {
        self.action(stream, ActionKind::Normal, label, fp, Vec::new())
    }

    fn complete(&mut self, event: u64, key: u64) -> &mut Self {
        self.trace.completions.push((event, key));
        self
    }
}

fn item(domain: usize, buffer: u64, range: std::ops::Range<usize>, write: bool) -> FootprintItem {
    FootprintItem::new(DomainId(domain), BufferId(buffer), range, write)
}

// ------------------------------------------------------------------- races

#[test]
fn unsynced_cross_stream_conflict_is_a_race() {
    let mut b = TraceBuilder::ooo(2);
    b.normal(0, "h2d", vec![item(1, 0, 0..64, true)]);
    b.normal(1, "gemm", vec![item(1, 0, 0..64, false)]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("race"), 1, "{report}");
    let Finding::Race {
        first,
        second,
        domain,
        buffer,
        overlap,
        ..
    } = &report.findings[0]
    else {
        panic!("expected a race, got {report}");
    };
    assert_eq!((first.stream, second.stream), (0, 1));
    assert_eq!((*domain, *buffer), (1, 0));
    assert_eq!(overlap.clone(), 0..64);
    let msg = report.findings[0].to_string();
    assert!(msg.contains("`h2d` (stream 0, event 0)"), "{msg}");
    assert!(msg.contains("`gemm` (stream 1, event 1)"), "{msg}");
    assert!(msg.contains("0..64"), "{msg}");
}

#[test]
fn event_wait_breaks_the_race() {
    let mut b = TraceBuilder::ooo(2);
    let h2d = b.normal(0, "h2d", vec![item(1, 0, 0..64, true)]);
    b.action(1, ActionKind::EventWait, "sync", vec![], vec![h2d]);
    b.normal(1, "gemm", vec![item(1, 0, 0..64, false)]);
    let report = check(&b.trace);
    assert!(report.is_clean(), "{report}");
    assert!(report.pairs_checked > 0, "the pair was actually examined");
}

#[test]
fn read_read_and_disjoint_overlaps_are_not_races() {
    let mut b = TraceBuilder::ooo(2);
    // Read/read overlap on buffer 0.
    b.normal(0, "r1", vec![item(1, 0, 0..64, false)]);
    b.normal(1, "r2", vec![item(1, 0, 0..64, false)]);
    // Adjacent-but-disjoint writes on buffer 1.
    b.normal(0, "wlo", vec![item(1, 1, 0..32, true)]);
    b.normal(1, "whi", vec![item(1, 1, 32..64, true)]);
    // Same buffer in different domains: separate copies, no race.
    b.normal(0, "host", vec![item(0, 0, 0..64, true)]);
    let report = check(&b.trace);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn same_stream_conflicts_are_ordered_not_racy() {
    let mut b = TraceBuilder::ooo(1);
    b.normal(0, "w1", vec![item(1, 0, 0..64, true)]);
    b.normal(0, "w2", vec![item(1, 0, 0..64, true)]);
    assert!(check(&b.trace).is_clean());
}

#[test]
fn transitive_sync_through_third_stream_is_enough() {
    // s0 writes, s1 waits on s0 and signals, s2 waits on s1 then reads:
    // the happens-before path is indirect but real.
    let mut b = TraceBuilder::ooo(3);
    let w = b.normal(0, "w", vec![item(1, 0, 0..64, true)]);
    let relay = b.action(1, ActionKind::EventWait, "relay", vec![], vec![w]);
    b.action(2, ActionKind::EventWait, "sync", vec![], vec![relay]);
    b.normal(2, "r", vec![item(1, 0, 0..64, false)]);
    assert!(check(&b.trace).is_clean());
}

#[test]
fn event_wait_does_not_order_prior_actions_of_its_stream() {
    // The non-serializing subtlety: an event-wait gates LATER actions of
    // its stream only. An action enqueued before the wait is unordered
    // with the other stream's conflicting action.
    let mut b = TraceBuilder::ooo(2);
    let w0 = b.normal(0, "early-write", vec![item(1, 0, 0..64, true)]);
    let other = b.normal(1, "other-write", vec![item(1, 0, 0..64, true)]);
    // Stream 0 then waits on the other stream — too late for `early-write`.
    b.action(0, ActionKind::EventWait, "late-sync", vec![], vec![other]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("race"), 1, "{report}");
    // Sanity: the graph agrees on the direction of every edge.
    let g = HbGraph::build(&b.trace);
    let (i, j) = (g.by_event[&w0], g.by_event[&other]);
    assert!(g.concurrent(i, j));
}

#[test]
fn marker_orders_everything_across_a_wait_chain() {
    // s0: w1, w2, marker; s1 waits on the marker then writes: the marker
    // must dominate both earlier writes.
    let mut b = TraceBuilder::ooo(2);
    b.normal(0, "w1", vec![item(1, 0, 0..32, true)]);
    b.normal(0, "w2", vec![item(1, 0, 32..64, true)]);
    let m = b.action(0, ActionKind::Marker, "marker", vec![], vec![]);
    b.action(1, ActionKind::EventWait, "sync", vec![], vec![m]);
    b.normal(1, "w3", vec![item(1, 0, 0..64, true)]);
    assert!(check(&b.trace).is_clean());
}

#[test]
fn strict_fifo_orders_whole_streams_through_one_wait() {
    // Under StrictFifo every action chains on its predecessor, so one wait
    // anywhere in the consumer stream covers all earlier producer actions.
    let mut b = TraceBuilder::new(OrderingMode::StrictFifo, 2);
    let w0 = b.normal(0, "w0", vec![item(1, 0, 0..64, true)]);
    b.normal(0, "w1", vec![item(1, 1, 0..64, true)]);
    b.action(1, ActionKind::EventWait, "sync", vec![], vec![w0 + 1]);
    b.normal(1, "r0", vec![item(1, 0, 0..64, false)]);
    b.normal(1, "r1", vec![item(1, 1, 0..64, false)]);
    assert!(check(&b.trace).is_clean());
}

#[test]
fn out_of_order_needs_both_waits_where_fifo_needs_one() {
    // The same shape as above under OutOfOrder: waiting on w1 alone leaves
    // w0 unordered with r0 (no operand overlap between w0 and w1).
    let mut b = TraceBuilder::ooo(2);
    b.normal(0, "w0", vec![item(1, 0, 0..64, true)]);
    let w1 = b.normal(0, "w1", vec![item(1, 1, 0..64, true)]);
    b.action(1, ActionKind::EventWait, "sync", vec![], vec![w1]);
    b.normal(1, "r0", vec![item(1, 0, 0..64, false)]);
    b.normal(1, "r1", vec![item(1, 1, 0..64, false)]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("race"), 1, "{report}");
}

#[test]
fn dangling_wait_is_reported() {
    // An unknown event.
    let mut b = TraceBuilder::ooo(1);
    b.action(0, ActionKind::EventWait, "wait", vec![], vec![99]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("dangling-wait"), 1, "{report}");

    // A later event, and the action's own: the runtime refuses a wait on an
    // id it has not reserved, so only a hand-built trace can name one. Of
    // the two waits that would form a cycle, the forward one dangles; the
    // backward one still orders the write before the read.
    let mut b = TraceBuilder::ooo(3);
    let w = b.normal(2, "w", vec![item(1, 0, 0..64, true)]);
    b.action(0, ActionKind::EventWait, "wait-a", vec![], vec![w + 2]);
    b.action(1, ActionKind::EventWait, "wait-b", vec![], vec![w + 1, w]);
    b.action(1, ActionKind::EventWait, "self", vec![], vec![w + 3]);
    b.normal(1, "r", vec![item(1, 0, 0..64, false)]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("dangling-wait"), 2, "{report}");
    assert_eq!(
        report.findings.len(),
        2,
        "no race on the synced read: {report}"
    );
    let msg = report.findings[0].to_string();
    assert!(msg.contains("`wait-a`") && msg.contains("event 2"), "{msg}");
    let msg = report.findings[1].to_string();
    assert!(msg.contains("`self`") && msg.contains("event 3"), "{msg}");
}

// ------------------------------------------------------------- wait cycles

#[test]
fn wait_cycle_is_a_deadlock() {
    // Only expressible in a hand-built trace: two event-waits waiting on
    // each other. Every cycle has a wait on a later event, and that wait
    // dangles; the backward one is a well-formed edge.
    let mut b = TraceBuilder::ooo(2);
    b.action(0, ActionKind::EventWait, "wait-a", vec![], vec![1]);
    b.action(1, ActionKind::EventWait, "wait-b", vec![], vec![0]);
    let report = check(&b.trace);
    assert_eq!(report.count_of("dangling-wait"), 1, "{report}");
    assert_eq!(report.findings.len(), 1, "{report}");
    let Finding::DanglingWait { action, missing } = &report.findings[0] else {
        panic!("expected a dangling wait: {report}");
    };
    assert_eq!((action.label.as_str(), *missing), ("wait-a", 1));
}

#[test]
fn three_way_cycle_is_found_among_healthy_actions() {
    let mut b = TraceBuilder::ooo(4);
    b.normal(3, "innocent", vec![item(0, 0, 0..8, true)]);
    b.action(0, ActionKind::EventWait, "a", vec![], vec![3]);
    b.action(1, ActionKind::EventWait, "b", vec![], vec![1]);
    b.action(2, ActionKind::EventWait, "c", vec![], vec![2]);
    let report = check(&b.trace);
    assert_eq!(report.findings.len(), 1, "{report}");
    let Finding::DanglingWait { action, missing } = &report.findings[0] else {
        panic!("expected a dangling wait: {report}");
    };
    assert_eq!(
        (action.label.as_str(), *missing),
        ("a", 3),
        "only the forward wait of the cycle dangles; the innocent action stays out"
    );
}

// ------------------------------------------------------- fifo equivalence

#[test]
fn completion_order_violating_dependences_is_flagged() {
    let mut b = TraceBuilder::ooo(2);
    let w = b.normal(0, "w", vec![item(1, 0, 0..64, true)]);
    let s = b.action(1, ActionKind::EventWait, "sync", vec![], vec![w]);
    let r = b.normal(1, "r", vec![item(1, 0, 0..64, false)]);
    // The reader "completed" before the writer it depends on: impossible
    // under a correct executor.
    b.complete(w, 30).complete(s, 31).complete(r, 10);
    let report = check(&b.trace);
    assert_eq!(report.count_of("fifo-violation"), 1, "{report}");
    let msg = report
        .findings
        .iter()
        .find(|f| f.tag() == "fifo-violation")
        .expect("present")
        .to_string();
    // The tightest violating pair is reported: the sync completed at 31,
    // the dependent read at 10 (the w->r inversion is implied by it).
    assert!(msg.contains("`sync`") && msg.contains("`r`"), "{msg}");
}

#[test]
fn unordered_actions_may_complete_in_any_order() {
    let mut b = TraceBuilder::ooo(2);
    let a = b.normal(0, "a", vec![item(1, 0, 0..64, true)]);
    let c = b.normal(1, "c", vec![item(1, 1, 0..64, true)]);
    // Enqueued a-then-c, completed c-then-a: fine, they are independent.
    b.complete(a, 20).complete(c, 10);
    assert!(check(&b.trace).is_clean());
}

#[test]
fn equal_completion_keys_are_not_violations() {
    // Sim mode: dependent actions can fire at the same virtual instant.
    let mut b = TraceBuilder::ooo(1);
    let a = b.normal(0, "a", vec![item(0, 0, 0..8, true)]);
    let c = b.normal(0, "c", vec![item(0, 0, 0..8, true)]);
    b.complete(a, 5).complete(c, 5);
    assert!(check(&b.trace).is_clean());
}
