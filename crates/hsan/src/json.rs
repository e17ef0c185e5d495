//! JSON serialization of [`ActionTrace`] for the `hsan` CLI.
//!
//! The build environment has no `serde_json`, so this is a small hand-rolled
//! writer, and a reader over [`hs_obs::json`], for exactly one schema:
//!
//! ```json
//! {
//!   "ordering": "out_of_order",
//!   "streams": 2,
//!   "domains": 2,
//!   "ops": [
//!     {"op": "buffer_create", "buffer": 0, "len": 64},
//!     {"op": "buffer_instantiate", "buffer": 0, "domain": 1},
//!     {"op": "enqueue", "event": 0, "stream": 0, "kind": "normal",
//!      "label": "xfer:A:d0->d1", "waits": [],
//!      "footprint": [{"domain": 1, "buffer": 0, "start": 0, "end": 64,
//!                     "write": true}]},
//!     {"op": "buffer_destroy", "buffer": 0}
//!   ],
//!   "completions": [[0, 17]]
//! }
//! ```
//!
//! `ordering` is `"out_of_order"` or `"strict_fifo"`; `kind` is `"normal"`,
//! `"event_wait"` or `"marker"`. Unknown object keys are rejected, which
//! catches typos in hand-written traces.

use hs_obs::json::{self, Value};
use hstreams_core::deps::FootprintItem;
use hstreams_core::record::{ActionRecord, ActionTrace, TraceOp};
use hstreams_core::types::{BufferId, DomainId, OrderingMode};
use hstreams_core::ActionKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ------------------------------------------------------------------ writing

/// Serialize a trace (pretty-printed, one op per line).
pub fn to_json(trace: &ActionTrace) -> String {
    let mut s = String::new();
    let ordering = match trace.ordering {
        OrderingMode::OutOfOrder => "out_of_order",
        OrderingMode::StrictFifo => "strict_fifo",
    };
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"ordering\": \"{ordering}\",");
    let _ = writeln!(s, "  \"streams\": {},", trace.streams);
    let _ = writeln!(s, "  \"domains\": {},", trace.domains);
    let _ = writeln!(s, "  \"ops\": [");
    for (i, op) in trace.ops.iter().enumerate() {
        let comma = if i + 1 < trace.ops.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{comma}", op_to_json(op));
    }
    let _ = writeln!(s, "  ],");
    let _ = write!(s, "  \"completions\": [");
    for (i, (ev, key)) in trace.completions.iter().enumerate() {
        let comma = if i + 1 < trace.completions.len() {
            ", "
        } else {
            ""
        };
        let _ = write!(s, "[{ev}, {key}]{comma}");
    }
    let _ = writeln!(s, "]");
    let _ = writeln!(s, "}}");
    s
}

fn op_to_json(op: &TraceOp) -> String {
    match op {
        TraceOp::BufferCreate { buffer, len } => {
            format!("{{\"op\": \"buffer_create\", \"buffer\": {buffer}, \"len\": {len}}}")
        }
        TraceOp::BufferInstantiate { buffer, domain } => format!(
            "{{\"op\": \"buffer_instantiate\", \"buffer\": {buffer}, \"domain\": {domain}}}"
        ),
        TraceOp::BufferDestroy { buffer } => {
            format!("{{\"op\": \"buffer_destroy\", \"buffer\": {buffer}}}")
        }
        TraceOp::Enqueue(a) => {
            let kind = match a.kind {
                ActionKind::Normal => "normal",
                ActionKind::EventWait => "event_wait",
                ActionKind::Marker => "marker",
            };
            let waits: Vec<String> = a.waits.iter().map(u64::to_string).collect();
            let fp: Vec<String> = a
                .footprint
                .iter()
                .map(|it| {
                    format!(
                        "{{\"domain\": {}, \"buffer\": {}, \"start\": {}, \
                         \"end\": {}, \"write\": {}}}",
                        it.domain.0, it.buffer.0, it.range.start, it.range.end, it.write
                    )
                })
                .collect();
            format!(
                "{{\"op\": \"enqueue\", \"event\": {}, \"stream\": {}, \
                 \"kind\": \"{kind}\", \"label\": {}, \"waits\": [{}], \
                 \"footprint\": [{}]}}",
                a.event,
                a.stream,
                quote(&a.label),
                waits.join(", "),
                fp.join(", ")
            )
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------------ parsing

/// Parse a JSON trace. Errors carry a byte offset and a message.
pub fn from_json(text: &str) -> Result<ActionTrace, String> {
    trace_from_value(&json::parse(text)?)
}

// ------------------------------------------------- value -> trace mapping

fn trace_from_value(v: &Value) -> Result<ActionTrace, String> {
    let obj = as_obj(v, "trace")?;
    check_keys(
        obj,
        &["ordering", "streams", "domains", "ops", "completions"],
    )?;
    let ordering = match get_str(obj, "ordering")? {
        "out_of_order" => OrderingMode::OutOfOrder,
        "strict_fifo" => OrderingMode::StrictFifo,
        other => return Err(format!("unknown ordering '{other}'")),
    };
    let streams = get_u64(obj, "streams")? as u32;
    let domains = get_u64(obj, "domains")? as usize;
    let ops_v = as_arr(get(obj, "ops")?, "ops")?;
    let mut ops = Vec::with_capacity(ops_v.len());
    for (i, op) in ops_v.iter().enumerate() {
        ops.push(op_from_value(op).map_err(|e| format!("ops[{i}]: {e}"))?);
    }
    let mut completions = Vec::new();
    if let Some(c) = obj.get("completions") {
        for (i, pair) in as_arr(c, "completions")?.iter().enumerate() {
            let pair = as_arr(pair, "completion")?;
            if pair.len() != 2 {
                return Err(format!("completions[{i}]: expected [event, key]"));
            }
            completions.push((num_u64(&pair[0], "event")?, num_u64(&pair[1], "key")?));
        }
    }
    Ok(ActionTrace {
        ordering,
        streams,
        domains,
        ops,
        completions,
    })
}

fn op_from_value(v: &Value) -> Result<TraceOp, String> {
    let obj = as_obj(v, "op")?;
    match get_str(obj, "op")? {
        "buffer_create" => {
            check_keys(obj, &["op", "buffer", "len"])?;
            Ok(TraceOp::BufferCreate {
                buffer: get_u64(obj, "buffer")?,
                len: get_u64(obj, "len")? as usize,
            })
        }
        "buffer_instantiate" => {
            check_keys(obj, &["op", "buffer", "domain"])?;
            Ok(TraceOp::BufferInstantiate {
                buffer: get_u64(obj, "buffer")?,
                domain: get_u64(obj, "domain")? as usize,
            })
        }
        "buffer_destroy" => {
            check_keys(obj, &["op", "buffer"])?;
            Ok(TraceOp::BufferDestroy {
                buffer: get_u64(obj, "buffer")?,
            })
        }
        "enqueue" => {
            check_keys(
                obj,
                &[
                    "op",
                    "event",
                    "stream",
                    "kind",
                    "label",
                    "waits",
                    "footprint",
                ],
            )?;
            let kind = match obj.get("kind") {
                None => ActionKind::Normal,
                Some(k) => match as_str(k, "kind")? {
                    "normal" => ActionKind::Normal,
                    "event_wait" => ActionKind::EventWait,
                    "marker" => ActionKind::Marker,
                    other => return Err(format!("unknown kind '{other}'")),
                },
            };
            let label = match obj.get("label") {
                None => String::new(),
                Some(l) => as_str(l, "label")?.to_string(),
            };
            let mut waits = Vec::new();
            if let Some(w) = obj.get("waits") {
                for x in as_arr(w, "waits")? {
                    waits.push(num_u64(x, "wait")?);
                }
            }
            let mut footprint = Vec::new();
            if let Some(fp) = obj.get("footprint") {
                for (i, item) in as_arr(fp, "footprint")?.iter().enumerate() {
                    let it = as_obj(item, "footprint item")?;
                    check_keys(it, &["domain", "buffer", "start", "end", "write"])
                        .map_err(|e| format!("footprint[{i}]: {e}"))?;
                    let start = get_u64(it, "start")? as usize;
                    let end = get_u64(it, "end")? as usize;
                    let write = get(it, "write")?
                        .as_bool()
                        .ok_or_else(|| format!("footprint[{i}]: 'write' must be a bool"))?;
                    footprint.push(FootprintItem::new(
                        DomainId(get_u64(it, "domain")? as usize),
                        BufferId(get_u64(it, "buffer")?),
                        start..end,
                        write,
                    ));
                }
            }
            Ok(TraceOp::Enqueue(ActionRecord {
                event: get_u64(obj, "event")?,
                stream: get_u64(obj, "stream")? as u32,
                kind,
                label,
                footprint,
                waits,
            }))
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

pub(crate) fn check_keys(obj: &BTreeMap<String, Value>, allowed: &[&str]) -> Result<(), String> {
    for k in obj.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown key '{k}' (allowed: {allowed:?})"));
        }
    }
    Ok(())
}

pub(crate) fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

pub(crate) fn as_obj<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object"))
}

pub(crate) fn as_arr<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))
}

pub(crate) fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, String> {
    v.as_str().ok_or_else(|| format!("{what} must be a string"))
}

pub(crate) fn get_str<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v str, String> {
    as_str(get(obj, key)?, key)
}

fn num_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

pub(crate) fn get_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    num_u64(get(obj, key)?, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ActionTrace {
        ActionTrace {
            ordering: OrderingMode::OutOfOrder,
            streams: 2,
            domains: 2,
            ops: vec![
                TraceOp::BufferCreate { buffer: 0, len: 64 },
                TraceOp::BufferInstantiate {
                    buffer: 0,
                    domain: 0,
                },
                TraceOp::BufferInstantiate {
                    buffer: 0,
                    domain: 1,
                },
                TraceOp::Enqueue(ActionRecord {
                    event: 0,
                    stream: 0,
                    kind: ActionKind::Normal,
                    label: String::from("xfer:\"A\":d0->d1"),
                    footprint: vec![
                        FootprintItem::new(DomainId(0), BufferId(0), 0..64, false),
                        FootprintItem::new(DomainId(1), BufferId(0), 0..64, true),
                    ],
                    waits: vec![],
                }),
                TraceOp::Enqueue(ActionRecord {
                    event: 1,
                    stream: 1,
                    kind: ActionKind::EventWait,
                    label: String::from("sync"),
                    footprint: vec![],
                    waits: vec![0],
                }),
                TraceOp::BufferDestroy { buffer: 0 },
            ],
            completions: vec![(0, 10), (1, 20)],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let parsed = from_json(&to_json(&t)).expect("round trip parses");
        assert_eq!(format!("{:?}", parsed.ops), format!("{:?}", t.ops));
        assert_eq!(parsed.completions, t.completions);
        assert_eq!(parsed.streams, t.streams);
        assert_eq!(parsed.domains, t.domains);
        assert_eq!(parsed.ordering, t.ordering);
    }

    #[test]
    fn rejects_unknown_keys() {
        let bad = r#"{"ordering": "out_of_order", "streams": 1, "domains": 1,
                      "ops": [], "completions": [], "oops": 1}"#;
        let err = from_json(bad).expect_err("unknown key rejected");
        assert!(err.contains("oops"), "{err}");
    }

    #[test]
    fn rejects_bad_kind() {
        let bad = r#"{"ordering": "out_of_order", "streams": 1, "domains": 1,
                      "ops": [{"op": "enqueue", "event": 0, "stream": 0,
                               "kind": "sideways", "label": "x", "waits": [],
                               "footprint": []}],
                      "completions": []}"#;
        let err = from_json(bad).expect_err("bad kind rejected");
        assert!(err.contains("sideways"), "{err}");
    }

    #[test]
    fn reports_offsets_on_garbage() {
        let err = from_json("{\"ordering\": zzz}").expect_err("garbage rejected");
        assert!(err.contains("byte 13"), "{err}");
    }
}
