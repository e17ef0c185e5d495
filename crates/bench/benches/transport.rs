//! Wire-layer microbench: what one payload byte and one round trip cost on
//! each transport, next to the same numbers from the commit before the
//! wire fast path (protocol v2: one checksum pass and one copy per side,
//! table-sliced CRC, one write call per frame).
//!
//! Rows, each the median of the samples: `crc32`, `frame_encode`,
//! `frame_decode` (MB/s over a 128 KiB payload, in memory), and per
//! transport — `local`, `uds`, `tcp`, the remote two against this crate's
//! own `serve_conn` loop on in-process threads — `ping` (µs), `write` and
//! `read` (MB/s, 128 KiB). Every row carries `host_cores` and the revision
//! measured; the `pre_pr` rows were measured with this same file on the
//! parent commit, on the host that recorded the artifact.
//!
//! Writes `BENCH_transport.json` at the workspace root. `HS_BENCH_SMOKE=1`
//! shrinks the sample counts for CI; `HS_BENCH_CHECK=1` gates the measured
//! `crc32` and `uds/write` rows at twice their `pre_pr` rows (the constants
//! below, which are what the committed artifact's `pre_pr` rows hold).

use hs_bench::{f, git_rev, median_secs, write_bench_json, JsonRecord, Table};
use hs_coi::FnRegistry;
use hs_fabric::proto::{self, Kind};
use hs_fabric::{Endpoint, LocalTransport, RemoteDomain, Transport};
use std::hint::black_box;
use std::sync::Arc;

const XFER_BYTES: usize = 128 << 10;
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");

/// This file's rows on the parent commit (`PRE_PR_REV`, protocol v1:
/// bytewise CRC run four times per H2D byte, a staging `Vec` per side, four
/// writes per frame, no TCP_NODELAY on the client), full-length run on the
/// 2-core host that recorded the artifact.
const PRE_PR_REV: &str = "14846aa";
const PRE_PR_CORES: f64 = 2.0;
const PRE_PR: &[(&str, &str, f64)] = &[
    ("crc32", "MBps", 407.2),
    ("frame_encode", "MBps", 499.7),
    ("frame_decode", "MBps", 507.0),
    ("local/ping", "us", 0.021),
    ("local/write", "MBps", 51461.0),
    ("local/read", "MBps", 51644.0),
    ("uds/ping", "us", 32.7),
    ("uds/write", "MBps", 102.6),
    ("uds/read", "MBps", 179.0),
    ("tcp/ping", "us", 44004.0),
    ("tcp/write", "MBps", 93.7),
    ("tcp/read", "MBps", 2.98),
];

fn mbps(secs: f64) -> f64 {
    XFER_BYTES as f64 / secs / 1e6
}

/// `(name, unit, value)` rows of the in-memory framing costs.
fn framing(n: (usize, usize), rows: &mut Vec<(String, &'static str, f64)>) {
    let payload: Vec<u8> = (0..XFER_BYTES).map(|i| (i * 31) as u8).collect();
    let secs = median_secs(n, || {
        black_box(proto::crc32(black_box(&payload)));
    });
    rows.push(("crc32".into(), "MBps", mbps(secs)));

    let mut wire = Vec::with_capacity(XFER_BYTES + 64);
    let secs = median_secs(n, || {
        wire.clear();
        proto::send_frame(&mut wire, Kind::Write, &payload).expect("encodes");
    });
    rows.push(("frame_encode".into(), "MBps", mbps(secs)));
    let secs = median_secs(n, || {
        let (_, got, _) = proto::recv_frame(&mut wire.as_slice()).expect("decodes");
        assert_eq!(black_box(got).len(), XFER_BYTES);
    });
    rows.push(("frame_decode".into(), "MBps", mbps(secs)));
}

/// `ping`, `write`, `read` of one transport, timed around the calls.
fn transport(n: (usize, usize), t: &dyn Transport, rows: &mut Vec<(String, &'static str, f64)>) {
    const WIN: u64 = 1;
    let kind = t.kind();
    t.alloc(WIN, XFER_BYTES).expect("alloc");
    let data: Vec<u8> = (0..XFER_BYTES).map(|i| (i * 7) as u8).collect();
    let mut back = vec![0u8; XFER_BYTES];
    let secs = median_secs(n, || {
        t.ping().expect("ping");
    });
    rows.push((format!("{kind}/ping"), "us", secs * 1e6));
    let secs = median_secs(n, || {
        t.write(WIN, 0, &data).expect("write");
    });
    rows.push((format!("{kind}/write"), "MBps", mbps(secs)));
    let secs = median_secs(n, || {
        t.read(WIN, 0, &mut back).expect("read");
    });
    rows.push((format!("{kind}/read"), "MBps", mbps(secs)));
    assert_eq!(back, data, "{kind}: read back what was written");
    t.free(WIN).expect("free");
}

fn main() {
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let check = std::env::var("HS_BENCH_CHECK").is_ok();
    let n = if smoke { (5, 30) } else { (20, 200) };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;

    let mut rows = Vec::new();
    framing(n, &mut rows);
    transport(n, &LocalTransport::new(), &mut rows);

    let registry = || Arc::new(FnRegistry::new());
    let sock = std::env::temp_dir().join(format!("hs-bench-transport-{}.sock", std::process::id()));
    let serve_at = sock.clone();
    std::thread::spawn(move || hs_coi::serve_uds(&serve_at, registry()));
    let uds = RemoteDomain::connect(&Endpoint::Uds(sock.clone()), 1, Default::default())
        .expect("connecting to the in-process UDS worker");
    transport(n, &uds, &mut rows);
    drop(uds);
    let _ = std::fs::remove_file(&sock);

    let addr = hs_coi::server::spawn_tcp_server("127.0.0.1:0", registry()).expect("bind");
    let tcp = RemoteDomain::connect(&Endpoint::Tcp(addr.to_string()), 1, Default::default())
        .expect("connecting to the in-process TCP worker");
    transport(n, &tcp, &mut rows);

    let rev = git_rev();
    let mut table = Table::new(vec!["row", "unit", "pre_pr", "now", "now/pre_pr"]);
    let mut records = Vec::new();
    for (name, unit, value) in &rows {
        let before = PRE_PR.iter().find(|(n, _, _)| n == name).map(|r| r.2);
        table.row(vec![
            name.clone(),
            unit.to_string(),
            before.map_or("-".into(), f),
            f(*value),
            before.map_or("-".into(), |b| format!("{:.2}x", value / b)),
        ]);
        records.push(
            JsonRecord::new(name.clone(), XFER_BYTES, 0.0)
                .with_config("v2")
                .with_git_rev(rev.clone())
                .with_metrics(vec![
                    (unit.to_string(), *value),
                    ("host_cores".to_string(), cores),
                ]),
        );
    }
    for (name, unit, value) in PRE_PR {
        records.push(
            JsonRecord::new(*name, XFER_BYTES, 0.0)
                .with_config("pre_pr")
                .with_git_rev(PRE_PR_REV)
                .with_metrics(vec![
                    (unit.to_string(), *value),
                    ("host_cores".to_string(), PRE_PR_CORES),
                ]),
        );
    }
    table.print("transport — wire-layer cost per transport (wall time, this machine)");

    if check {
        for name in ["crc32", "uds/write"] {
            let now = rows.iter().find(|r| r.0 == name).expect("measured").2;
            let before = PRE_PR.iter().find(|r| r.0 == name).expect("recorded").2;
            let floor = 2.0 * before;
            println!("floor gate: {name} {now:.0} MB/s (floor {floor:.0} = 2x the pre_pr row)");
            assert!(
                now >= floor,
                "{name} fell below twice the pre-fast-path rate: {now:.0} < {floor:.0} MB/s"
            );
        }
    }
    write_bench_json(ARTIFACT, &records);
}
