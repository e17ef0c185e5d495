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
//! * **Dangling waits** — a wait naming no earlier action of the trace.
//! * **FIFO-equivalence** — the executor's observed completion order must
//!   be a linearization of the happens-before order: if `a` must precede
//!   `b`, `a` must have completed no later than `b`.
//!
//! A run is traced by its lifecycle records: `hs.obs_enable(true)`, run,
//! then [`ActionTrace::from_records`] over `hs.take_obs_records()` — the
//! slice the Chrome export reads too — and [`check`] it. Buffer lifetime
//! hazards are not checked here: the runtime refuses them at enqueue. It
//! refuses a wait on an event it has not reserved too, so a recorded trace
//! has no dangling wait and no cycle; the dangling-wait check keeps
//! [`check`] total for traces built by hand.
//!
//! The runtime's lock order is checked where the locks live, by
//! `hstreams_core::lockorder::inversions`.

pub mod hb;

use hstreams_core::record::ActionRecord;
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
    /// A wait names an event no earlier recorded action produced.
    DanglingWait { action: ActionRef, missing: u64 },
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
            Finding::DanglingWait { .. } => "dangling-wait",
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
            Finding::DanglingWait { action, missing } => write!(
                f,
                "DANGLING WAIT: {action} waits on event {missing}, which no \
                 earlier recorded action produced"
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

/// Analyze a recorded trace. Findings are ordered: dangling waits first,
/// then races, then FIFO violations.
pub fn check(trace: &ActionTrace) -> Report {
    let g = hb::HbGraph::build(trace);
    let mut report = Report {
        findings: Vec::new(),
        actions: g.actions.len(),
        streams: trace.streams,
        pairs_checked: 0,
    };
    for &(i, missing) in &g.dangling {
        report.findings.push(Finding::DanglingWait {
            action: ActionRef::new(&g.actions[i]),
            missing,
        });
    }
    check_races(&g, &mut report);
    check_fifo(trace, &g, &mut report);
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
                let (a, b) = (&g.actions[i], &g.actions[j]);
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
                first: ActionRef::new(&g.actions[i]),
                second: ActionRef::new(&g.actions[j]),
                first_key: ki,
                second_key: kj,
            });
        }
    }
}
