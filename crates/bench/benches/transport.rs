//! Wire-layer microbench: what one payload byte and one round trip cost on
//! each transport (protocol v3: one checksum pass and one copy per side, one
//! write call per frame, a carry-less-multiply CRC), next to the same
//! numbers recorded for protocol v2 (table-sliced CRC) and for v1, the
//! commit before the wire fast path.
//!
//! Rows, each the median of the samples: `crc32` (the CRC the wire uses:
//! carry-less multiply where the CPU has it) and `crc32_sliced` (the
//! slicing-by-16 fallback, called directly), `frame_encode`, `frame_decode`
//! (MB/s over a 128 KiB payload, in memory), and per transport — `local`,
//! `uds`, `tcp`, the remote two against this crate's own `serve_conn` loop
//! on in-process threads — `ping` (µs), `write` and `read` (MB/s, 128 KiB).
//! Every row carries `host_cores` and the revision measured; the `v2` and
//! `pre_pr` rows were measured with this file (minus the rows it did not
//! have yet) on earlier commits, on the host that recorded the artifact.
//!
//! Writes `BENCH_transport.json` at the workspace root. `HS_BENCH_SMOKE=1`
//! shrinks the sample counts for CI; `HS_BENCH_CHECK=1` gates the measured
//! `crc32` and `uds/write` rows at twice their `pre_pr` rows (the constants
//! below, which are what the committed artifact's `pre_pr` rows hold) and,
//! on a CPU with carry-less multiply, `crc32` at three times `crc32_sliced`
//! measured in the same run (a CPU without it prints a notice instead).

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
const PRE_PR: Rows = &[
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

/// This file's rows on protocol v2 (`V2_REV`: one CRC pass per side, but
/// slicing-by-16 tables and one exec connection per card), full-length run
/// on the host that recorded the artifact.
const V2_REV: &str = "14846aa-dirty";
const V2: Rows = &[
    ("crc32", "MBps", 4879.457970),
    ("frame_encode", "MBps", 4622.861778),
    ("frame_decode", "MBps", 4285.359315),
    ("local/ping", "us", 0.025),
    ("local/write", "MBps", 49330.824238),
    ("local/read", "MBps", 48980.568012),
    ("uds/ping", "us", 5.366),
    ("uds/write", "MBps", 1924.953371),
    ("uds/read", "MBps", 1935.613444),
    ("tcp/ping", "us", 6.602),
    ("tcp/write", "MBps", 1288.936965),
    ("tcp/read", "MBps", 1290.701224),
];

type Rows = &'static [(&'static str, &'static str, f64)];

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
    let secs = median_secs(n, || {
        black_box(proto::crc32_sliced(black_box(&payload)));
    });
    rows.push(("crc32_sliced".into(), "MBps", mbps(secs)));

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
    let recorded = |rows: Rows, name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.2);
    let mut table = Table::new(vec!["row", "unit", "pre_pr", "v2", "now", "now/v2"]);
    let mut records = Vec::new();
    for (name, unit, value) in &rows {
        let v2 = recorded(V2, name);
        table.row(vec![
            name.clone(),
            unit.to_string(),
            recorded(PRE_PR, name).map_or("-".into(), f),
            v2.map_or("-".into(), f),
            f(*value),
            v2.map_or("-".into(), |b| format!("{:.2}x", value / b)),
        ]);
        records.push(
            JsonRecord::new(name.clone(), XFER_BYTES, 0.0)
                .with_config("v3")
                .with_git_rev(rev.clone())
                .with_metrics(vec![
                    (unit.to_string(), *value),
                    ("host_cores".to_string(), cores),
                ]),
        );
    }
    for (config, at, rows) in [("v2", V2_REV, V2), ("pre_pr", PRE_PR_REV, PRE_PR)] {
        for (name, unit, value) in rows {
            records.push(
                JsonRecord::new(*name, XFER_BYTES, 0.0)
                    .with_config(config)
                    .with_git_rev(at)
                    .with_metrics(vec![
                        (unit.to_string(), *value),
                        ("host_cores".to_string(), PRE_PR_CORES),
                    ]),
            );
        }
    }
    table.print("transport — wire-layer cost per transport (wall time, this machine)");

    if check {
        let measured = |name: &str| rows.iter().find(|r| r.0 == name).expect("measured").2;
        for name in ["crc32", "uds/write"] {
            let now = measured(name);
            let floor = 2.0 * recorded(PRE_PR, name).expect("recorded");
            println!("floor gate: {name} {now:.0} MB/s (floor {floor:.0} = 2x the pre_pr row)");
            assert!(
                now >= floor,
                "{name} fell below twice the pre-fast-path rate: {now:.0} < {floor:.0} MB/s"
            );
        }
        let (fast, sliced) = (measured("crc32"), measured("crc32_sliced"));
        #[cfg(target_arch = "x86_64")]
        let clmul = std::arch::is_x86_feature_detected!("pclmulqdq");
        #[cfg(not(target_arch = "x86_64"))]
        let clmul = false;
        if clmul {
            println!(
                "relative gate: crc32 {fast:.0} MB/s = {:.2}x crc32_sliced (floor 3x)",
                fast / sliced
            );
            assert!(
                fast >= 3.0 * sliced,
                "the carry-less CRC is not 3x the table fallback: {fast:.0} vs {sliced:.0} MB/s"
            );
        } else {
            println!("NOTICE: no PCLMULQDQ on this CPU; crc32 is the table fallback, gate skipped");
        }
    }
    write_bench_json(ARTIFACT, &records);
}
