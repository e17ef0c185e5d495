//! End-to-end observability check: a traced hetero matmul must export a
//! Chrome trace whose span count equals the enqueued actions (computes +
//! non-elided transfers), with one row per participating stream, and the
//! trace must pass the structural validator (well-nested spans per row).
//! The same drained records are what hsan folds: one drain, two consumers.

use hs_apps::matmul::{run, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hs_obs::{chrome, ObsKind, ObsRecord};
use hstreams_core::{ExecMode, HStreams};

/// Computes plus the transfers not aliased away: the actions that hold a
/// sink, one trace span each.
fn executed_actions(hs: &HStreams) -> u64 {
    let m = hs.metrics().extra;
    (m["actions.compute"] + m["actions.transfer"] - m["actions.transfer_elided"]) as u64
}

/// The accepted actions by kind: compute, transfer, sync.
fn action_counts(hs: &HStreams) -> [f64; 3] {
    let m = hs.metrics().extra;
    ["compute", "transfer", "sync"].map(|kind| m[&format!("actions.{kind}")])
}

/// One `take_obs_records()` feeds the Chrome export (a span per compute and
/// non-elided transfer) and hsan (a clean trace with one action per
/// `Enqueued` record).
fn one_drain_two_consumers(mode: ExecMode, cfg: &MatmulConfig) {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), mode);
    hs.obs_enable(true);
    run(&mut hs, cfg).expect("matmul runs");
    let records = hs.take_obs_records();

    let executed = executed_actions(&hs);
    let check = chrome::validate(&chrome::chrome_trace_json(&records)).expect("trace validates");
    assert_eq!(
        check.spans as u64, executed,
        "{mode:?}: one span per executed action"
    );

    let trace = hsan::ActionTrace::from_records(&hs, &records);
    let report = hsan::check(&trace);
    assert!(report.is_clean(), "{mode:?}: {report}");
    assert!(report.pairs_checked > 0, "{mode:?}: no conflict examined");
    let enqueued = records
        .iter()
        .filter(|r| matches!(r, ObsRecord::Enqueued { .. }))
        .count();
    assert_eq!(trace.actions().count(), enqueued, "{mode:?}");
    assert_eq!(trace.completions.len(), enqueued, "{mode:?}: all completed");
}

#[test]
fn one_drain_feeds_chrome_and_hsan_thread_mode() {
    let mut cfg = MatmulConfig::new(48, 12);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.host_participates = true;
    cfg.verify = true;
    one_drain_two_consumers(ExecMode::Threads, &cfg);
}

#[test]
fn one_drain_feeds_chrome_and_hsan_sim_mode() {
    let mut cfg = MatmulConfig::new(2000, 400);
    cfg.host_participates = true;
    cfg.load_balance = true;
    one_drain_two_consumers(ExecMode::Sim, &cfg);
}

#[test]
fn traced_matmul_span_count_matches_enqueued_actions() {
    let mut cfg = MatmulConfig::new(2000, 400);
    cfg.host_participates = true;
    cfg.load_balance = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
    hs.obs_enable(true);
    run(&mut hs, &cfg).expect("matmul runs");

    let expected = executed_actions(&hs);
    let json = chrome::chrome_trace_json(&hs.take_obs_records());
    let check = chrome::validate(&json).expect("trace validates");
    assert_eq!(
        check.spans as u64, expected,
        "one span per compute + non-elided transfer"
    );
    assert_eq!(
        check.stream_rows as f64,
        hs.metrics().extra["api.stream_create"],
        "one trace row per stream"
    );
    // The first drain took the records: a second export is empty.
    let empty = chrome::validate(&chrome::chrome_trace_json(&hs.take_obs_records()));
    assert!(empty.is_err() || empty.unwrap().spans == 0);
}

#[test]
fn metrics_snapshot_has_action_counters() {
    let mut cfg = MatmulConfig::new(2000, 500);
    cfg.host_participates = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
    hs.obs_enable(true);
    run(&mut hs, &cfg).expect("matmul runs");
    let m = hs.metrics().extra;
    let records = hs.take_obs_records();
    let spans = hs_obs::spans(&records);
    let held = |kind| spans.iter().filter(|s| s.meta.kind == kind).count() as f64;
    assert!(m["actions.compute"] > 0.0);
    assert_eq!(m["actions.compute"], held(ObsKind::Compute));
    assert_eq!(
        m["actions.transfer"] - m["actions.transfer_elided"],
        held(ObsKind::Transfer)
    );
}

#[test]
fn disabled_hub_records_nothing() {
    let mut cfg = MatmulConfig::new(2000, 500);
    cfg.host_participates = true;
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
    run(&mut hs, &cfg).expect("matmul runs");
    assert!(hs.take_obs_records().is_empty(), "no sink, no records");
    // The action counts are the runtime's own, recorded or not: the same
    // run with the hub on counts the same.
    let mut traced = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Sim);
    traced.obs_enable(true);
    run(&mut traced, &cfg).expect("matmul runs");
    assert!(action_counts(&hs)[0] > 0.0);
    assert_eq!(action_counts(&hs), action_counts(&traced));
}
