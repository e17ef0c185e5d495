//! # hsan — the hStreams stream-semantics sanitizer
//!
//! A happens-before analyzer over recorded action traces
//! ([`hstreams_core::record::ActionTrace`]). The paper's correctness
//! contract is: within a stream, dependences are implied by FIFO order plus
//! memory-operand overlap; **across streams nothing is implied** — only
//! explicit event waits order actions. `hsan` checks a program (well, one
//! recorded run of it) against that contract:
//!
//! * **Cross-stream races** — two actions in different streams whose
//!   footprints conflict (same domain + buffer, overlapping bytes, at least
//!   one write) with no happens-before path between them.
//! * **Deadlocks** — cycles in the event-wait graph (only constructible in
//!   hand-written traces; the live runtime validates waits at enqueue).
//! * **Buffer lifetime hazards** — touching a buffer after it was
//!   destroyed, beyond its length, or in a domain where it was never
//!   instantiated.
//! * **FIFO-equivalence** — the executor's observed completion order must
//!   be a linearization of the happens-before order: if `a` must precede
//!   `b`, `a` must have completed no later than `b`.
//!
//! Use [`check`] from tests, or the `hsan` binary on a JSON trace
//! (`cargo run -p hsan -- trace.json`; see [`json`] for the format).
//! A live run is traced by its lifecycle records: `hs.obs_enable(true)`,
//! run, then [`ActionTrace::from_records`] over `hs.take_obs_records()` —
//! the slice the Chrome export reads too. Live traces carry no buffer
//! operations (the runtime refuses every lifetime hazard at enqueue), so
//! the lifetime checks speak to hand-written and JSON traces.

pub mod hb;
pub mod json;
pub mod lockorder;

use hstreams_core::record::{ActionRecord, TraceOp};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

pub use hstreams_core::record::ActionTrace;

/// How a finding names an action: enough to locate it in the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionRef {
    pub event: u64,
    pub stream: u32,
    pub label: String,
}

impl ActionRef {
    fn new(a: &ActionRecord) -> ActionRef {
        ActionRef {
            event: a.event,
            stream: a.stream,
            label: if a.label.is_empty() {
                String::from("<unlabeled>")
            } else {
                a.label.clone()
            },
        }
    }
}

impl fmt::Display for ActionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` (stream {}, event {})",
            self.label, self.stream, self.event
        )
    }
}

/// One diagnostic produced by [`check`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// Conflicting cross-stream accesses with no happens-before path.
    Race {
        first: ActionRef,
        second: ActionRef,
        domain: usize,
        buffer: u64,
        /// The overlapping byte range of the two accesses.
        overlap: Range<usize>,
        /// Access kinds, `(first writes?, second writes?)`.
        writes: (bool, bool),
    },
    /// A cycle in the dependence/event-wait graph: none of these actions
    /// can ever dispatch.
    Deadlock { cycle: Vec<ActionRef> },
    /// A wait names an event no recorded action produced.
    DanglingWait { action: ActionRef, missing: u64 },
    /// The buffer was destroyed earlier in the trace.
    UseAfterFree { action: ActionRef, buffer: u64 },
    /// The footprint touches the buffer in a domain it was never
    /// instantiated in.
    NeverInstantiated {
        action: ActionRef,
        buffer: u64,
        domain: usize,
    },
    /// The footprint's range exceeds the buffer's length.
    OutOfBounds {
        action: ActionRef,
        buffer: u64,
        len: usize,
        range: Range<usize>,
    },
    /// `first` happens-before `second`, yet the executor reported `second`
    /// complete strictly earlier — the run was not linearizable to the
    /// FIFO semantics.
    FifoViolation {
        first: ActionRef,
        second: ActionRef,
        first_key: u64,
        second_key: u64,
    },
}

impl Finding {
    /// Short machine-greppable tag for the finding kind.
    pub fn tag(&self) -> &'static str {
        match self {
            Finding::Race { .. } => "race",
            Finding::Deadlock { .. } => "deadlock",
            Finding::DanglingWait { .. } => "dangling-wait",
            Finding::UseAfterFree { .. } => "use-after-free",
            Finding::NeverInstantiated { .. } => "never-instantiated",
            Finding::OutOfBounds { .. } => "out-of-bounds",
            Finding::FifoViolation { .. } => "fifo-violation",
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Race {
                first,
                second,
                domain,
                buffer,
                overlap,
                writes,
            } => {
                let kind = match writes {
                    (true, true) => "write/write",
                    (true, false) => "write/read",
                    (false, true) => "read/write",
                    (false, false) => "read/read",
                };
                write!(
                    f,
                    "RACE: {first} and {second} touch buffer {buffer} bytes \
                     {}..{} in domain {domain} ({kind}) with no \
                     happens-before path — add an event wait between the \
                     streams",
                    overlap.start, overlap.end
                )
            }
            Finding::Deadlock { cycle } => {
                write!(
                    f,
                    "DEADLOCK: dependence cycle among {} actions: ",
                    cycle.len()
                )?;
                for (i, a) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " -> (back to start); none can ever dispatch")
            }
            Finding::DanglingWait { action, missing } => write!(
                f,
                "DANGLING WAIT: {action} waits on event {missing}, which no \
                 recorded action produced"
            ),
            Finding::UseAfterFree { action, buffer } => write!(
                f,
                "USE AFTER FREE: {action} touches buffer {buffer} after it \
                 was destroyed"
            ),
            Finding::NeverInstantiated {
                action,
                buffer,
                domain,
            } => write!(
                f,
                "NOT INSTANTIATED: {action} touches buffer {buffer} in \
                 domain {domain}, where it was never instantiated"
            ),
            Finding::OutOfBounds {
                action,
                buffer,
                len,
                range,
            } => write!(
                f,
                "OUT OF BOUNDS: {action} touches bytes {}..{} of buffer \
                 {buffer}, which is only {len} bytes long",
                range.start, range.end
            ),
            Finding::FifoViolation {
                first,
                second,
                first_key,
                second_key,
            } => write!(
                f,
                "FIFO VIOLATION: {first} must happen before {second}, but \
                 the executor completed them in the opposite order \
                 (keys {second_key} < {first_key})"
            ),
        }
    }
}

/// The result of analyzing one trace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Enqueued actions analyzed.
    pub actions: usize,
    /// Streams in the trace.
    pub streams: u32,
    /// Conflicting cross-stream pairs examined for ordering.
    pub pairs_checked: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one kind (by [`Finding::tag`]).
    pub fn count_of(&self, tag: &str) -> usize {
        self.findings.iter().filter(|f| f.tag() == tag).count()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "hsan: {} action(s), {} stream(s), {} conflicting pair(s) \
             checked: {}",
            self.actions,
            self.streams,
            self.pairs_checked,
            if self.findings.is_empty() {
                String::from("no findings")
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        )
    }
}

/// Analyze a recorded trace. Findings are ordered: deadlocks and dangling
/// waits first, then races, lifetime hazards, and FIFO violations.
pub fn check(trace: &ActionTrace) -> Report {
    let g = hb::HbGraph::build(trace);
    let mut report = Report {
        findings: Vec::new(),
        actions: g.actions.len(),
        streams: trace.streams,
        pairs_checked: 0,
    };

    if let Some(cycle) = &g.cycle {
        report.findings.push(Finding::Deadlock {
            cycle: cycle
                .iter()
                .map(|&i| ActionRef::new(g.actions[i]))
                .collect(),
        });
    }
    for &(i, missing) in &g.dangling {
        report.findings.push(Finding::DanglingWait {
            action: ActionRef::new(g.actions[i]),
            missing,
        });
    }
    if g.cycle.is_none() {
        check_races(&g, &mut report);
    }
    check_lifetimes(trace, &mut report);
    if g.cycle.is_none() {
        check_fifo(trace, &g, &mut report);
    }
    report
}

/// Cross-stream conflicting pairs with no happens-before path. Candidate
/// pairs come from a (domain, buffer) index, so cost scales with contention
/// per location rather than with the square of the trace length.
fn check_races(g: &hb::HbGraph<'_>, report: &mut Report) {
    // (domain, buffer) -> [(action index, footprint item index)]
    let mut by_loc: HashMap<(usize, u64), Vec<(usize, usize)>> = HashMap::new();
    for (i, a) in g.actions.iter().enumerate() {
        for (k, item) in a.footprint.iter().enumerate() {
            by_loc
                .entry((item.domain.0, item.buffer.0))
                .or_default()
                .push((i, k));
        }
    }
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    let mut locs: Vec<_> = by_loc.into_iter().collect();
    locs.sort_unstable_by_key(|(loc, _)| *loc);
    for ((domain, buffer), touches) in locs {
        for (n, &(i, ki)) in touches.iter().enumerate() {
            for &(j, kj) in &touches[n + 1..] {
                let (a, b) = (g.actions[i], g.actions[j]);
                if a.stream == b.stream || reported.contains(&(i.min(j), i.max(j))) {
                    continue;
                }
                let (x, y) = (&a.footprint[ki], &b.footprint[kj]);
                let overlap = x.range.start.max(y.range.start)..x.range.end.min(y.range.end);
                if overlap.start >= overlap.end || !(x.write || y.write) {
                    continue;
                }
                report.pairs_checked += 1;
                if g.concurrent(i, j) {
                    reported.insert((i.min(j), i.max(j)));
                    report.findings.push(Finding::Race {
                        first: ActionRef::new(a),
                        second: ActionRef::new(b),
                        domain,
                        buffer,
                        overlap,
                        writes: (x.write, y.write),
                    });
                }
            }
        }
    }
}

/// Walk the trace in program order tracking each buffer's lifecycle.
/// Buffers with no `BufferCreate` in the trace (every buffer of a live
/// trace) have unknown provenance and are skipped.
fn check_lifetimes(trace: &ActionTrace, report: &mut Report) {
    struct BufState {
        len: usize,
        domains: HashSet<usize>,
        destroyed: bool,
    }
    let mut bufs: HashMap<u64, BufState> = HashMap::new();
    for op in &trace.ops {
        match op {
            TraceOp::BufferCreate { buffer, len } => {
                bufs.insert(
                    *buffer,
                    BufState {
                        len: *len,
                        domains: HashSet::new(),
                        destroyed: false,
                    },
                );
            }
            TraceOp::BufferInstantiate { buffer, domain } => {
                if let Some(b) = bufs.get_mut(buffer) {
                    b.domains.insert(*domain);
                }
            }
            TraceOp::BufferDestroy { buffer } => {
                if let Some(b) = bufs.get_mut(buffer) {
                    b.destroyed = true;
                }
            }
            TraceOp::Enqueue(a) => {
                // One finding per (action, buffer, kind) even when several
                // footprint items hit the same buffer.
                let mut seen: HashSet<(u64, &'static str)> = HashSet::new();
                for item in &a.footprint {
                    let Some(b) = bufs.get(&item.buffer.0) else {
                        continue;
                    };
                    if b.destroyed {
                        if seen.insert((item.buffer.0, "uaf")) {
                            report.findings.push(Finding::UseAfterFree {
                                action: ActionRef::new(a),
                                buffer: item.buffer.0,
                            });
                        }
                        continue;
                    }
                    if item.range.end > b.len && seen.insert((item.buffer.0, "oob")) {
                        report.findings.push(Finding::OutOfBounds {
                            action: ActionRef::new(a),
                            buffer: item.buffer.0,
                            len: b.len,
                            range: item.range.clone(),
                        });
                    }
                    if !b.domains.contains(&item.domain.0) && seen.insert((item.buffer.0, "inst")) {
                        report.findings.push(Finding::NeverInstantiated {
                            action: ActionRef::new(a),
                            buffer: item.buffer.0,
                            domain: item.domain.0,
                        });
                    }
                }
            }
        }
    }
}

/// The observed completion order must linearize happens-before: whenever
/// `a` happens-before `b` and both completions were observed, `a`'s key
/// must not exceed `b`'s. (Keys are completion timestamps: wall ns in
/// thread mode, virtual fire times in sim mode; ties are fine.)
fn check_fifo(trace: &ActionTrace, g: &hb::HbGraph<'_>, report: &mut Report) {
    let keys: HashMap<u64, u64> = trace.completions.iter().copied().collect();
    let completed: Vec<(usize, u64)> = g
        .actions
        .iter()
        .enumerate()
        .filter_map(|(i, a)| keys.get(&a.event).map(|&k| (i, k)))
        .collect();
    let mut violations: Vec<(usize, usize, u64, u64)> = Vec::new();
    for (n, &(i, ki)) in completed.iter().enumerate() {
        for &(j, kj) in &completed[n + 1..] {
            if g.ordered(i, j) && ki > kj {
                violations.push((i, j, ki, kj));
            } else if g.ordered(j, i) && kj > ki {
                violations.push((j, i, kj, ki));
            }
        }
    }
    // A violating pair with a completed action strictly between the two is
    // implied by a tighter violation along the path; report only the
    // tightest pairs so one inversion yields one finding.
    for &(i, j, ki, kj) in &violations {
        let covered = completed
            .iter()
            .any(|&(k, _)| k != i && k != j && g.ordered(i, k) && g.ordered(k, j));
        if !covered {
            report.findings.push(Finding::FifoViolation {
                first: ActionRef::new(g.actions[i]),
                second: ActionRef::new(g.actions[j]),
                first_key: ki,
                second_key: kj,
            });
        }
    }
}
