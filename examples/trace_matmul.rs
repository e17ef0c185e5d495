//! Trace a run: record every action's lifecycle (enqueue → deps resolved →
//! dispatch → sink start → complete) during a hetero tiled matmul and export
//! it as Chrome-trace JSON — open the file at `chrome://tracing` or
//! <https://ui.perfetto.dev> to see one row per stream and per DMA channel,
//! with transfers riding underneath computes. The same drained records are
//! folded into an `hsan` trace and checked; any finding exits 1.
//!
//! Then a small hetero Cholesky runs traced on real threads and is checked
//! the same way. Its cross-stream waits are edges of the tasks they guard,
//! so a traced run enqueues no sync action: a non-zero `actions.sync` row
//! exits 1 too.
//!
//! Run with: `cargo run --release --example trace_matmul [out.json]`

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{run, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TRACE_matmul.json".to_string());

    let mut cfg = MatmulConfig::new(4000, 800);
    cfg.host_participates = true;
    cfg.load_balance = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.obs_enable(true); // one flag: lifecycle recording on

    let res = run(&mut hs, &cfg).expect("matmul runs");
    println!(
        "matmul n={} on HSW+2KNC: {:.0} Gflop/s ({:.3}s virtual)",
        cfg.n, res.gflops, res.secs
    );

    let records = hs.take_obs_records();
    let json = hs_obs::chrome::chrome_trace_json(&records);
    std::fs::write(&out, &json).expect("write trace");
    let check = hs_obs::chrome::validate(&json).expect("trace is well-formed");
    println!(
        "wrote {out}: {} spans on {} rows ({} stream rows) — open at chrome://tracing",
        check.spans, check.rows, check.stream_rows
    );
    let report = hsan::check(&hsan::ActionTrace::from_records(&hs, &records));
    println!("{report}");

    println!("\nmetrics snapshot:");
    for (k, v) in hs.metrics().rows() {
        println!("  {k:<28} {v:.3}");
    }
    let mut clean = report.is_clean();

    let mut cfg = CholConfig::new(384, 48, CholVariant::Hetero);
    cfg.verify = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    hs.obs_enable(true);
    let res = cholesky::run(&mut hs, &cfg).expect("cholesky runs");
    let report = hsan::check(&hsan::ActionTrace::from_records(
        &hs,
        &hs.take_obs_records(),
    ));
    let syncs = hs.metrics().extra["actions.sync"];
    println!(
        "\ntraced hetero cholesky n={} tile={}: max err {:.2e}, {syncs} sync actions\n{report}",
        cfg.n,
        cfg.tile,
        res.max_err.expect("verified")
    );
    clean &= report.is_clean() && syncs == 0.0;
    if !clean {
        std::process::exit(1);
    }
}
