//! Chrome `chrome://tracing` export of lifecycle records, plus a schema
//! validator for CI.
//!
//! Layout: one row (`tid`) per stream under the `streams` process and one
//! row per DMA channel (`card N h2d`/`d2h`) under the `dma` process — the
//! Fig. 6-style overlap picture. One complete (`"ph": "X"`) event is
//! emitted per *executed* action: every compute and every non-elided
//! transfer (elided host-alias transfers and sync actions never occupy a
//! sink, so they get no span — this keeps span count equal to the number
//! of actions that actually ran, the property `validate` checks in CI).
//!
//! The span is `sink_start .. completed` (the time the action occupied its
//! sink); queueing is visible as `queue_us` in the args. Timestamps are
//! microseconds, as the trace viewer expects.

use crate::{json, spans, ObsRecord, Row};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

const PID_STREAMS: u32 = 1;
const PID_DMA: u32 = 2;

/// A row's (pid, tid): streams by index, then each card's h2d and d2h.
fn pid_tid(row: Row) -> (u32, u32) {
    match row {
        Row::Stream(s) => (PID_STREAMS, s),
        Row::Dma { card, h2d } => (PID_DMA, card * 2 + u32::from(!h2d)),
    }
}

/// Serialize lifecycle records to Chrome trace JSON (object format with a
/// `traceEvents` array): one `"X"` event per span of [`crate::spans`].
pub fn chrome_trace_json(records: &[ObsRecord]) -> String {
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut events: Vec<String> = Vec::new();
    let mut rows: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for span in spans(records) {
        let (pid, tid) = pid_tid(span.row);
        rows.entry((pid, tid))
            .or_insert_with(|| span.row.to_string());
        let meta = span.meta;
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"args\":{{\"kind\":\"{}\",\"stream\":{},\"bytes\":{},\
             \"footprint\":{},\"queue_us\":{:.3},\"ok\":{}}}}}",
            us(span.start_ns),
            us(span.end_ns - span.start_ns),
            esc(&meta.label),
            meta.kind.as_str(),
            meta.stream,
            meta.bytes,
            meta.footprint.len(),
            us(span.start_ns.saturating_sub(span.queue_ns)),
            span.ok,
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (pid, name) in [(PID_STREAMS, "streams"), (PID_DMA, "dma")] {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    for ((pid, tid), name) in &rows {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}},",
            esc(name)
        );
    }
    for (i, ev) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        let _ = writeln!(out, "{ev}{comma}");
    }
    out.push_str("]}\n");
    out
}

// ------------------------------------------------------------- validation

/// Summary of a validated trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCheck {
    /// Number of `"X"` span events.
    pub spans: usize,
    /// Number of distinct (pid, tid) rows carrying spans.
    pub rows: usize,
    /// Rows under the `streams` process.
    pub stream_rows: usize,
}

/// Validate an emitted Chrome trace: parses the JSON, requires a non-empty
/// `traceEvents` array with at least one span, checks every span carries
/// the required fields, and checks spans on each row are well-nested
/// (non-overlapping — every row models a serial resource: a stream sink or
/// a DMA channel). Returns span/row counts for count-based assertions.
pub fn validate(json: &str) -> Result<TraceCheck, String> {
    let value = json::parse(json)?;
    let events = value
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .ok_or("top-level object must carry a traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    let mut per_row: BTreeMap<(i64, i64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue;
        }
        spans += 1;
        let num = |key: &str| {
            ev.get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric {key}"))
        };
        let ts = num("ts")?;
        let dur = num("dur")?;
        let pid = num("pid")? as i64;
        let tid = num("tid")? as i64;
        if ev.get("name").and_then(json::Value::as_str).is_none() {
            return Err(format!("event {i}: span without a name"));
        }
        if dur < 0.0 || ts < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        per_row.entry((pid, tid)).or_default().push((ts, dur));
    }
    if spans == 0 {
        return Err("trace has no span events".to_string());
    }
    // Well-nestedness: rows are serial resources, so spans must not
    // overlap. Allow a small epsilon for the 3-decimal µs rounding.
    const EPS_US: f64 = 0.01;
    for ((pid, tid), row) in per_row.iter_mut() {
        row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for w in row.windows(2) {
            let (ts0, d0) = w[0];
            let (ts1, _) = w[1];
            if ts1 + EPS_US < ts0 + d0 {
                return Err(format!(
                    "row (pid {pid}, tid {tid}): span at {ts1}us overlaps span \
                     [{ts0}, {:.3}]us — serial rows must be well-nested",
                    ts0 + d0
                ));
            }
        }
    }
    let stream_rows = per_row
        .keys()
        .filter(|(pid, _)| *pid == PID_STREAMS as i64)
        .count();
    Ok(TraceCheck {
        spans,
        rows: per_row.len(),
        stream_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_meta as meta, ObsHub, ObsKind, ObsPhase};

    #[test]
    fn export_and_validate_roundtrip() {
        let hub = ObsHub::new();
        hub.enable(true);
        // Two computes on stream 0 (serial) and one real transfer.
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "k0"), 0);
        a.phase(ObsPhase::Dispatched, 1);
        a.phase(ObsPhase::SinkStart, 2);
        a.finish(true, 10);
        let b = hub.action(meta(ObsKind::Compute, 0, None, false, "k1"), 3);
        b.phase(ObsPhase::SinkStart, 10);
        b.finish(true, 20);
        let t = hub.action(meta(ObsKind::Transfer, 1, Some(1), true, "x"), 0);
        t.phase(ObsPhase::SinkStart, 5);
        t.finish(true, 9);
        // Sync + elided transfer: no spans.
        let s = hub.action(meta(ObsKind::Sync, 0, None, false, "sync"), 0);
        s.finish(true, 1);
        let e = hub.action(meta(ObsKind::Transfer, 0, None, true, "alias"), 0);
        e.finish(true, 1);

        let json = chrome_trace_json(&hub.take_records());
        let check = validate(&json).expect("valid trace");
        assert_eq!(check.spans, 3, "computes + real transfer only:\n{json}");
        assert_eq!(check.rows, 2, "one stream row, one dma row");
        assert_eq!(check.stream_rows, 1);
    }

    #[test]
    fn overlapping_spans_on_one_row_are_rejected() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "a"), 0);
        a.phase(ObsPhase::SinkStart, 0);
        a.finish(true, 10_000);
        let b = hub.action(meta(ObsKind::Compute, 0, None, false, "b"), 0);
        b.phase(ObsPhase::SinkStart, 5_000);
        b.finish(true, 15_000);
        let json = chrome_trace_json(&hub.take_records());
        let err = validate(&json).expect_err("overlap on one stream row");
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn failed_actions_still_get_spans() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 2, None, false, "boom"), 0);
        a.phase(ObsPhase::SinkStart, 1);
        a.finish(false, 5);
        let json = chrome_trace_json(&hub.take_records());
        assert!(json.contains("\"ok\":false"));
        assert_eq!(validate(&json).expect("valid").spans, 1);
    }

    #[test]
    fn pending_actions_are_skipped() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "done"), 0);
        a.phase(ObsPhase::SinkStart, 1);
        a.finish(true, 2);
        let _pending = hub.action(meta(ObsKind::Compute, 0, None, false, "stuck"), 3);
        let json = chrome_trace_json(&hub.take_records());
        assert_eq!(validate(&json).expect("valid").spans, 1);
    }

    #[test]
    fn labels_are_escaped() {
        let hub = ObsHub::new();
        hub.enable(true);
        let a = hub.action(meta(ObsKind::Compute, 0, None, false, "a\"b\\c"), 0);
        a.phase(ObsPhase::SinkStart, 1);
        a.finish(true, 2);
        let json = chrome_trace_json(&hub.take_records());
        validate(&json).expect("escaped label parses");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("").is_err());
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\":[]}").is_err());
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate("not json").is_err());
    }
}
