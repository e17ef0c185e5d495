//! The traced pass's span store and its Chrome-trace writer.
//!
//! One span per call the benchmark makes into a layer, kept in memory and
//! written once at the end. Spans nest by a stack: the span open when
//! another opens is its parent. A span's self time is its duration minus
//! the part of it its children cover. Beside the benchmark's own spans the
//! file carries, per action, the lifecycle phases the runtime's existing
//! `hs-obs` stamps recorded (no stamp is added inside the program).

use crate::json::{num, quote};
use hs_obs::{ObsKind, ObsPhase, ObsRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
}

/// Spans of one thread of control, on the clock of `origin`.
pub struct Spans {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(origin: Instant, rep: u32) -> Spans {
        Spans {
            origin,
            rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let Some(id) = self.open.pop() else {
            return 0.0;
        };
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 / 1e9
    }

    /// Record an already finished span under the innermost open one.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    /// Run `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Append another store's spans (same origin), keeping their nesting.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, seconds: duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, k)| {
                k.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(a, b) in k.iter() {
                    let (a, b) = (a.max(edge), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e9
            })
            .collect()
    }
}

/// One action's lifecycle as read back from `take_obs_records()`.
#[derive(Clone, Debug)]
pub struct Lifecycle {
    pub kind: ObsKind,
    pub stream: u32,
    /// `Some` for a transfer that used a DMA channel, `None` for an elided
    /// one (host alias) and for non-transfers.
    pub card: Option<u32>,
    pub label: String,
    pub enqueued: u64,
    pub deps_resolved: Option<u64>,
    pub dispatched: Option<u64>,
    pub sink_start: Option<u64>,
    pub completed: Option<u64>,
    pub failed: bool,
}

/// Fold a record stream into per-action lifecycles, in action order.
pub fn lifecycles(records: &[ObsRecord]) -> Vec<Lifecycle> {
    let mut by_id: BTreeMap<u64, Lifecycle> = BTreeMap::new();
    for r in records {
        match r {
            ObsRecord::Enqueued { action, t_ns, meta } => {
                by_id.insert(
                    *action,
                    Lifecycle {
                        kind: meta.kind,
                        stream: meta.stream,
                        card: meta.card,
                        label: meta.label.clone(),
                        enqueued: *t_ns,
                        deps_resolved: None,
                        dispatched: None,
                        sink_start: None,
                        completed: None,
                        failed: false,
                    },
                );
            }
            ObsRecord::Phase {
                action,
                phase,
                t_ns,
            } => {
                let Some(l) = by_id.get_mut(action) else {
                    continue;
                };
                match phase {
                    ObsPhase::DepsResolved => l.deps_resolved = Some(*t_ns),
                    ObsPhase::Dispatched => l.dispatched = Some(*t_ns),
                    // A retried action starts more than once; the ledger
                    // wants the first start.
                    ObsPhase::SinkStart => l.sink_start = l.sink_start.or(Some(*t_ns)),
                    ObsPhase::Completed => l.completed = Some(*t_ns),
                    ObsPhase::Failed => {
                        l.completed = Some(*t_ns);
                        l.failed = true;
                    }
                    ObsPhase::RetryScheduled => {}
                }
            }
            ObsRecord::Retry { .. } | ObsRecord::Failure { .. } | ObsRecord::Degraded { .. } => {}
        }
    }
    by_id.into_values().collect()
}

/// The actions of one traced repetition, with the offset that puts the
/// runtime's clock (zero at `obs_enable`) onto the benchmark's.
pub struct RepActions {
    pub rep: u32,
    pub clock_offset_ns: u64,
    pub actions: Vec<Lifecycle>,
}

/// Write spans and actions as a Chrome trace (`chrome://tracing`,
/// Perfetto). Process 1 holds the benchmark's spans, one row per nesting
/// depth; process 2 holds the runtime's actions, one row per stream, each
/// drawn from sink start to completion with the earlier stamps in `args`.
pub fn chrome_trace(workload: &str, spans: &Spans, reps: &[RepActions]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = writeln!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"hs-e2e {workload}\"}}}},"
    );
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{{\"name\":\"runtime actions\"}}}}"
    );
    let us = |ns: u64| num(ns as f64 / 1e3);
    let selfs = spans.self_times();
    let mut depth = vec![0u32; spans.spans.len()];
    for (i, s) in spans.spans.iter().enumerate() {
        // A parent always precedes its children in the store.
        depth[i] = s.parent.map_or(0, |p| depth[p as usize] + 1);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{},\"workload\":{},\"rep\":{}}}}}",
            depth[i],
            quote(s.name),
            us(s.start_ns),
            us(s.end_ns - s.start_ns),
            num(selfs[i] * 1e6),
            quote(workload),
            s.rep,
        );
    }
    for r in reps {
        for a in &r.actions {
            let (Some(start), Some(end)) = (a.sink_start.or(a.dispatched), a.completed) else {
                continue;
            };
            let rel = |t: Option<u64>| t.map_or("null".to_string(), |t| us(t - a.enqueued.min(t)));
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"kind\":{},\"rep\":{},\"ok\":{},\"deps_resolved_us\":{},\
                 \"dispatched_us\":{},\"sink_start_us\":{}}}}}",
                a.stream,
                quote(&a.label),
                us(start + r.clock_offset_ns),
                us(end.saturating_sub(start)),
                quote(a.kind.as_str()),
                r.rep,
                !a.failed,
                rel(a.deps_resolved),
                rel(a.dispatched),
                rel(a.sink_start),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(Instant::now(), 0);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        };
        s.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union is 10..60
            span("a.x", 10, 20, Some(1)),
        ];
        let st = s.self_times();
        assert_eq!(st[0], 50e-9);
        assert_eq!(st[1], 20e-9);
        assert_eq!(st[2], 30e-9);
        assert_eq!(st[3], 10e-9);
    }

    #[test]
    fn trace_file_is_json_with_parent_links() {
        let mut s = Spans::new(Instant::now(), 3);
        s.within("outer", |s| s.within("inner", |_| ()));
        let text = chrome_trace("w", &s, &[]);
        let v = crate::json::parse(&text).expect("valid JSON");
        let ev = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        let inner = ev
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("inner"))
            .expect("inner span");
        let args = inner.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("rep").and_then(|p| p.as_f64()), Some(3.0));
    }
}
