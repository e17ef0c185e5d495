//! Visualize a schedule: print the virtual-time Gantt chart of a pipelined
//! offload, showing transfers (=) riding underneath computes (#) — the
//! out-of-order-under-FIFO-semantics picture at the heart of the paper.
//! The chart and the overlap are read from the run's obs records.
//!
//! Run with: `cargo run --release --example trace_gantt`
//! Exits 1 unless the out-of-order run overlaps more compute with transfer
//! than the strict-FIFO run.

use bytes::Bytes;
use hs_machine::{Device, KernelKind, PlatformCfg};
use hs_obs::{ObsKind, Row, Span};
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, OrderingMode,
};
use std::collections::BTreeMap;

fn build(ordering: OrderingMode) -> HStreams {
    let hs =
        HStreams::init_with_ordering(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim, ordering);
    hs.obs_enable(true);
    let card = DomainId(1);
    let s = hs.stream_create(card, CpuMask::first(30)).expect("stream");
    let bytes = 96 << 20;
    for i in 0..6 {
        let b = hs.buffer_create(bytes, BufProps::labeled(format!("tile{i}")));
        hs.buffer_instantiate(b, card).expect("inst");
        hs.xfer_to_sink(s, b, 0..bytes).expect("h2d");
        hs.enqueue_compute(
            s,
            "work",
            Bytes::new(),
            &[Operand::new(b, 0..bytes, Access::InOut)],
            CostHint::new(KernelKind::Dgemm, 2.2e10, 1500),
        )
        .expect("compute");
    }
    hs.thread_synchronize().expect("drain");
    hs
}

/// A coarse text Gantt chart: one line per row, `width` columns spanning
/// zero to the latest span end.
fn gantt(spans: &[Span<'_>], width: usize) -> String {
    let makespan = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    if makespan == 0 {
        return String::from("(no spans)\n");
    }
    let mut rows: BTreeMap<Row, Vec<u8>> = BTreeMap::new();
    let col = |ns: u64| (ns as f64 / makespan as f64 * width as f64) as usize;
    for s in spans {
        let line = rows.entry(s.row).or_insert_with(|| vec![b'.'; width]);
        let ch = if s.meta.kind == ObsKind::Compute {
            b'#'
        } else {
            b'='
        };
        let lo = col(s.start_ns);
        let hi = col(s.end_ns).max(lo + 1).min(width);
        for c in line.iter_mut().take(hi).skip(lo) {
            *c = ch;
        }
    }
    let mut out = String::new();
    for (row, line) in rows {
        out.push_str(&format!(
            "{:>12} {}\n",
            row.to_string(),
            String::from_utf8_lossy(&line)
        ));
    }
    out
}

/// Print one run's chart; returns its compute/transfer overlap in ns.
fn report(title: &str, hs: &HStreams) -> u64 {
    let records = hs.take_obs_records();
    let spans = hs_obs::spans(&records);
    let overlap = hs_obs::overlap_ns(&spans, ObsKind::Compute, ObsKind::Transfer);
    let makespan = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    println!(
        "{title} — {:.3}s:\n{}makespan = {makespan} ns, compute/transfer overlap = {overlap} ns\n",
        hs.now_secs(),
        gantt(&spans, 100)
    );
    overlap
}

fn main() {
    println!("One stream, six (transfer, compute) pairs. '#' compute, '=' transfer.\n");
    let ooo = build(OrderingMode::OutOfOrder);
    let ooo_overlap = report("hStreams (FIFO semantics, out-of-order execution)", &ooo);
    let strict = build(OrderingMode::StrictFifo);
    let strict_overlap = report("strict FIFO (CUDA-Streams-like)", &strict);
    println!(
        "Same program, same stream: the hStreams run hides {:.0}% of the wall clock\n\
         by letting tile i+1's transfer ride under tile i's compute.",
        (1.0 - ooo.now_secs() / strict.now_secs()) * 100.0
    );
    if ooo_overlap <= strict_overlap {
        eprintln!(
            "FAIL: out-of-order overlap {ooo_overlap} ns is not above strict FIFO's \
             {strict_overlap} ns"
        );
        std::process::exit(1);
    }
}
