//! Crash recovery end to end: a durable run killed `-9`, recovered by a
//! fresh process to the bit-identical result.
//!
//! The orchestrator (the default role) re-execs itself twice:
//!
//! 1. **victim** (`HS_CRASH_ROLE=victim`) — enables durability, enqueues
//!    the workload and waits for it (every wait entry flushes the WAL
//!    appends to the page cache), prints `READY …` and parks. The
//!    orchestrator answers with `SIGKILL`: no drop handlers, no flush
//!    hooks — nothing survives except what already reached the page cache.
//! 2. **recover** (`HS_CRASH_ROLE=recover`) — a fresh process runs the
//!    same deterministic init (durability does *not* log buffer writes;
//!    the restarted process re-applies its inputs), `recover()`s the
//!    crashed run directory, replays the un-retired actions and prints the
//!    result checksum.
//!
//! The orchestrator compares that checksum against a fault-free in-process
//! run — they must be bit-identical. The WAL root (default
//! `WAL_crash_recovery/`) is left behind for inspection; CI uploads it as
//! an artifact.
//!
//! Run: `cargo run --release --example crash_recovery [WAL_ROOT]`

use bytes::Bytes;
use hs_apps::remote::checksum_f64s;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, ExecMode, HStreams, Operand, StreamId,
    TaskCtx,
};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

const N: usize = 256;
const ROUNDS: usize = 8;
const ROLE: &str = "HS_CRASH_ROLE";

/// A runtime with the demo kernel registered: `bump` adds `1 + i mod 7` to
/// element `i` — round count and element order both change the bits.
fn runtime() -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for (i, x) in ctx.buf_f64_mut(0).iter_mut().enumerate() {
                *x += 1.0 + (i % 7) as f64;
            }
        }),
    );
    hs
}

/// The deterministic init every role runs: ids are assigned in creation
/// order, so the victim and the recoverer see the same streams and buffer.
fn init_workload(hs: &HStreams) -> (StreamId, StreamId, BufferId) {
    let card = DomainId(1);
    let s0 = hs.stream_create(card, CpuMask::first(1)).expect("s0");
    let s1 = hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    let input: Vec<f64> = (0..N).map(|i| i as f64).collect();
    hs.buffer_write_f64(buf, 0, &input).expect("write input");
    (s0, s1, buf)
}

/// h2d → bump → d2h per round, alternating streams with a cross-stream
/// event wait, so the replay exercises transfer, compute and sync records.
fn enqueue_rounds(hs: &HStreams, s0: StreamId, s1: StreamId, buf: BufferId) {
    let card = DomainId(1);
    let mut last = None;
    for i in 0..ROUNDS {
        let s = if i % 2 == 0 { s0 } else { s1 };
        if let Some(prev) = last {
            hs.enqueue_event_wait(s, &[prev]).expect("cross wait");
        }
        hs.enqueue_xfer(s, buf, 0..N * 8, DomainId::HOST, card)
            .expect("h2d");
        hs.enqueue_compute(
            s,
            "bump",
            Bytes::new(),
            &[Operand::f64s(buf, 0, N, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("compute");
        last = Some(
            hs.enqueue_xfer(s, buf, 0..N * 8, card, DomainId::HOST)
                .expect("d2h"),
        );
    }
}

fn result_checksum(hs: &HStreams, buf: BufferId) -> u64 {
    let mut out = vec![0.0; N];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read result");
    checksum_f64s(&out)
}

fn victim(root: &Path) -> ! {
    let hs = runtime();
    hs.durability_opts(root, false, 0).expect("durability on");
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf);
    hs.thread_synchronize().expect("sync");
    let stats = hs.wal_stats().expect("wal stats");
    println!(
        "READY records={} segments={} bytes={}",
        stats.records, stats.segments, stats.appended_bytes
    );
    // Park with the runtime live — worker threads up, WAL open, no
    // checkpoint — until the orchestrator's SIGKILL lands.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn recover_role(root: &Path) {
    let hs = runtime();
    let (_s0, _s1, buf) = init_workload(&hs);
    let report = hs.recover(root).expect("recover crashed run");
    hs.thread_synchronize().expect("post-recover sync");
    println!(
        "RECOVERED checksum={:016x} run_id={} records={} replayed={} skipped={} torn={}",
        result_checksum(&hs, buf),
        report.run_id,
        report.records,
        report.replayed,
        report.skipped,
        report.torn.len()
    );
    assert_eq!(report.replayed, report.records, "every record replays");
    assert_eq!(report.skipped, 0, "no record skipped");
}

fn main() {
    let root = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "WAL_crash_recovery".to_string()),
    );
    match std::env::var(ROLE).as_deref() {
        Ok("victim") => victim(&root),
        Ok("recover") => return recover_role(&root),
        _ => {}
    }

    // Fault-free reference, in-process.
    let reference = {
        let hs = runtime();
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf);
        hs.thread_synchronize().expect("reference run");
        result_checksum(&hs, buf)
    };

    let _ = std::fs::remove_dir_all(&root);
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(&exe)
        .arg(&root)
        .env(ROLE, "victim")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn victim");
    let mut lines = std::io::BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let ready = loop {
        match lines.next() {
            Some(Ok(l)) if l.starts_with("READY") => break l,
            Some(Ok(_)) => continue,
            _ => panic!("victim exited before READY"),
        }
    };
    child.kill().expect("SIGKILL victim"); // Child::kill is SIGKILL on unix
    let st = child.wait().expect("reap victim");
    println!("victim: {ready}");
    println!("victim killed -9 ({st})");

    let out = Command::new(&exe)
        .arg(&root)
        .env(ROLE, "recover")
        .output()
        .expect("spawn recoverer");
    print!("{}", String::from_utf8_lossy(&out.stdout));
    assert!(
        out.status.success(),
        "recover process failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let got = stdout
        .lines()
        .find(|l| l.starts_with("RECOVERED"))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|t| t.strip_prefix("checksum="))
        })
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .expect("RECOVERED checksum=… line");
    assert_eq!(
        got, reference,
        "recovered checksum must equal the fault-free run"
    );
    println!(
        "crash_recovery: {ROUNDS} rounds survived SIGKILL, recovered bit-identical \
         checksum {reference:016x}"
    );
    println!(
        "WAL root left at {} (the recoverer's re-logged generation)",
        root.display()
    );
}
