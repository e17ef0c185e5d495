//! Static lock-order analysis over a recorded acquisition-edge graph.
//!
//! The runtime's deadlock-freedom argument is a total order on its lock
//! classes (DESIGN.md §13): every thread acquires locks in ascending
//! [`LockClass::rank`] order. After `lockorder::enable()`, every
//! acquisition of a classed lock records a *(held-class → acquired-class)*
//! edge;
//! `lockorder::edges_json()` serializes the multiset, and this module checks
//! it:
//!
//! * **Rank inversions** — an edge whose destination does not outrank its
//!   source: some thread held a class and then acquired one at an equal or
//!   lower rank, breaking the total order. (An equal-rank edge is a
//!   same-class nesting — e.g. two per-stream mutexes — which the order
//!   also forbids.)
//! * **Cycles** — a directed cycle in the edge graph. Two threads each
//!   holding one lock of the cycle while acquiring the next can deadlock.
//!   Every cycle implies at least one rank inversion, but the cycle names
//!   the actual deadlock shape, so both are reported.
//! * **Unknown classes** — an edge naming a class the runtime does not
//!   define; the trace and the checker have drifted apart.
//!
//! The class list and ranks are imported from
//! [`hstreams_core::lockorder`] — the checker can never drift from the
//! runtime it checks.
//!
//! Input format (what `edges_json` emits):
//!
//! ```json
//! {
//!   "edges": [
//!     {"from": "world", "to": "stream", "count": 12},
//!     {"from": "stream", "to": "event_slot", "count": 12}
//!   ]
//! }
//! ```

use hs_obs::json::Value;
use hstreams_core::lockorder::LockClass;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// One acquisition edge: `from` was held while `to` was acquired, `count`
/// times across the recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    pub from: LockClass,
    pub to: LockClass,
    pub count: u64,
}

/// One diagnostic produced by [`check_edges`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOrderFinding {
    /// `held` was held while `acquired` was taken, but `acquired` does not
    /// outrank it — the documented total order was violated.
    RankInversion {
        held: LockClass,
        acquired: LockClass,
        count: u64,
    },
    /// A directed cycle in the acquisition graph: a real deadlock shape.
    /// The path lists the classes in order; the last edge returns to the
    /// first element.
    Cycle { path: Vec<LockClass> },
    /// An edge named a lock class the runtime does not define.
    UnknownClass { name: String },
}

impl fmt::Display for LockOrderFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockOrderFinding::RankInversion {
                held,
                acquired,
                count,
            } => write!(
                f,
                "rank inversion: `{}` (rank {}) acquired while `{}` (rank {}) \
                 held, {} time(s) — the documented order requires `{}` \
                 before `{}`",
                acquired.name(),
                acquired.rank(),
                held.name(),
                held.rank(),
                count,
                acquired.name(),
                held.name(),
            ),
            LockOrderFinding::Cycle { path } => {
                write!(f, "lock cycle: ")?;
                for c in path {
                    write!(f, "`{}` -> ", c.name())?;
                }
                write!(
                    f,
                    "`{}` — two threads interleaving these acquisitions can deadlock",
                    path[0].name()
                )
            }
            LockOrderFinding::UnknownClass { name } => write!(
                f,
                "unknown lock class `{name}` — the trace does not match this \
                 checker's class list (runtime/checker version skew?)"
            ),
        }
    }
}

/// The outcome of a lock-order analysis.
#[derive(Clone, Debug)]
pub struct LockOrderReport {
    pub findings: Vec<LockOrderFinding>,
    /// The parsed, well-formed edges (unknown-class rows excluded).
    pub edges: Vec<Edge>,
}

impl LockOrderReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable report, mirroring the human [`fmt::Display`] form.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [\n");
        for (i, finding) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let row = match finding {
                LockOrderFinding::RankInversion {
                    held,
                    acquired,
                    count,
                } => format!(
                    "{{\"kind\": \"rank_inversion\", \"held\": \"{}\", \
                     \"acquired\": \"{}\", \"count\": {count}}}",
                    held.name(),
                    acquired.name()
                ),
                LockOrderFinding::Cycle { path } => {
                    let names: Vec<String> =
                        path.iter().map(|c| format!("\"{}\"", c.name())).collect();
                    format!("{{\"kind\": \"cycle\", \"path\": [{}]}}", names.join(", "))
                }
                LockOrderFinding::UnknownClass { name } => {
                    format!("{{\"kind\": \"unknown_class\", \"name\": \"{name}\"}}")
                }
            };
            let _ = writeln!(s, "    {row}{comma}");
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"edges\": {},", self.edges.len());
        let _ = writeln!(s, "  \"clean\": {}", self.is_clean());
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for LockOrderReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "hsan lock-order: {} edge(s) over {} class(es) checked: {}",
            self.edges.len(),
            LockClass::ALL.len(),
            if self.findings.is_empty() {
                String::from("no findings")
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        )
    }
}

/// Parse the `edges_json` format and [`check_edges`] it.
pub fn check_json(text: &str) -> Result<LockOrderReport, String> {
    let value = hs_obs::json::parse(text)?;
    let obj = as_obj(&value, "edges document")?;
    check_keys(obj, &["edges"])?;
    let rows = as_arr(get(obj, "edges")?, "edges")?;
    let mut unknown: Vec<String> = Vec::new();
    let mut edges = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let row = as_obj(row, "edge")?;
        check_keys(row, &["from", "to", "count"]).map_err(|e| format!("edges[{i}]: {e}"))?;
        let from = get_str(row, "from").map_err(|e| format!("edges[{i}]: {e}"))?;
        let to = get_str(row, "to").map_err(|e| format!("edges[{i}]: {e}"))?;
        let count = get_u64(row, "count").map_err(|e| format!("edges[{i}]: {e}"))?;
        match (LockClass::from_name(from), LockClass::from_name(to)) {
            (Some(from), Some(to)) => edges.push(Edge { from, to, count }),
            (f, t) => {
                if f.is_none() {
                    unknown.push(from.to_string());
                }
                if t.is_none() {
                    unknown.push(to.to_string());
                }
            }
        }
    }
    let mut report = check_edges(&edges);
    unknown.sort();
    unknown.dedup();
    for name in unknown {
        report
            .findings
            .push(LockOrderFinding::UnknownClass { name });
    }
    Ok(report)
}

fn check_keys(obj: &BTreeMap<String, Value>, allowed: &[&str]) -> Result<(), String> {
    for k in obj.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown key '{k}' (allowed: {allowed:?})"));
        }
    }
    Ok(())
}

fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn as_obj<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object"))
}

fn as_arr<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))
}

fn get_str<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("{key} must be a string"))
}

fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    match get(obj, key)? {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => Err(format!("{key} must be a non-negative integer")),
    }
}

/// Check an edge multiset against the documented total order: report every
/// rank inversion and every elementary cycle reachable from one.
pub fn check_edges(edges: &[Edge]) -> LockOrderReport {
    let mut findings = Vec::new();
    for e in edges {
        if e.to.rank() <= e.from.rank() {
            findings.push(LockOrderFinding::RankInversion {
                held: e.from,
                acquired: e.to,
                count: e.count,
            });
        }
    }
    for path in cycles(edges) {
        findings.push(LockOrderFinding::Cycle { path });
    }
    LockOrderReport {
        findings,
        edges: edges.to_vec(),
    }
}

/// Elementary cycles in the edge graph, each reported once, rooted at its
/// lowest-rank class. DFS from each class with an on-stack path; the class
/// count is tiny (== `LockClass::ALL.len()`) so no fancier algorithm is
/// warranted.
fn cycles(edges: &[Edge]) -> Vec<Vec<LockClass>> {
    let mut succ: BTreeMap<LockClass, Vec<LockClass>> = BTreeMap::new();
    for e in edges {
        let s = succ.entry(e.from).or_default();
        if !s.contains(&e.to) {
            s.push(e.to);
        }
    }
    let mut found: Vec<Vec<LockClass>> = Vec::new();
    for &root in LockClass::ALL.iter() {
        let mut path = vec![root];
        dfs(root, root, &succ, &mut path, &mut found);
    }
    found
}

fn dfs(
    root: LockClass,
    at: LockClass,
    succ: &BTreeMap<LockClass, Vec<LockClass>>,
    path: &mut Vec<LockClass>,
    found: &mut Vec<Vec<LockClass>>,
) {
    let Some(nexts) = succ.get(&at) else { return };
    for &next in nexts {
        if next == root {
            // Root the cycle at its minimum-rank class so each elementary
            // cycle is collected exactly once (from that one root).
            if path.iter().all(|&c| c.rank() >= root.rank()) && !found.contains(path) {
                found.push(path.clone());
            }
        } else if next.rank() > root.rank() && !path.contains(&next) {
            path.push(next);
            dfs(root, next, succ, path, found);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(from: LockClass, to: LockClass, count: u64) -> Edge {
        Edge { from, to, count }
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let report = check_edges(&[
            e(LockClass::World, LockClass::Stream, 10),
            e(LockClass::Stream, LockClass::EventSlot, 10),
            e(LockClass::World, LockClass::Buffers, 3),
        ]);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.edges.len(), 3);
    }

    #[test]
    fn inversion_and_two_cycle_both_reported() {
        let report = check_edges(&[
            e(LockClass::World, LockClass::Stream, 5),
            e(LockClass::Stream, LockClass::World, 1),
        ]);
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| matches!(
            f,
            LockOrderFinding::RankInversion {
                held: LockClass::Stream,
                acquired: LockClass::World,
                count: 1,
            }
        )));
        assert!(report.findings.iter().any(
            |f| matches!(f, LockOrderFinding::Cycle { path } if path.len() == 2
                && path[0] == LockClass::World)
        ));
    }

    #[test]
    fn same_class_nesting_is_an_inversion() {
        let report = check_edges(&[e(LockClass::Stream, LockClass::Stream, 2)]);
        assert_eq!(report.findings.len(), 2, "{report}"); // inversion + self-cycle
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LockOrderFinding::Cycle { path } if path.len() == 1)));
    }

    #[test]
    fn three_cycle_without_direct_back_edge() {
        // Each hop except the last ascends; only stream -> world inverts,
        // but the cycle traverses three classes.
        let report = check_edges(&[
            e(LockClass::World, LockClass::Streams, 1),
            e(LockClass::Streams, LockClass::Stream, 1),
            e(LockClass::Stream, LockClass::World, 1),
        ]);
        let cycles: Vec<_> = report
            .findings
            .iter()
            .filter(|f| matches!(f, LockOrderFinding::Cycle { .. }))
            .collect();
        assert_eq!(cycles.len(), 1, "{report}");
        assert!(matches!(
            cycles[0],
            LockOrderFinding::Cycle { path } if path.as_slice()
                == [LockClass::World, LockClass::Streams, LockClass::Stream]
        ));
    }

    #[test]
    fn json_round_trip_and_unknown_class() {
        let report = check_json(
            r#"{"edges": [
                {"from": "world", "to": "stream", "count": 4},
                {"from": "gpu_fence", "to": "world", "count": 1}
            ]}"#,
        )
        .expect("parses");
        assert_eq!(report.edges.len(), 1);
        assert_eq!(
            report.findings,
            vec![LockOrderFinding::UnknownClass {
                name: String::from("gpu_fence")
            }]
        );
        let json = report.to_json();
        assert!(json.contains("\"unknown_class\""), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(check_json("{\"edges\": 3}").is_err());
        assert!(check_json("{\"edgez\": []}").is_err());
        assert!(check_json("{\"edges\": [{\"from\": \"world\"}]}").is_err());
    }
}
