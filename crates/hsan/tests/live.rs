//! End-to-end: record real runs live and analyze them. The
//! racy fixtures must be detected (positive), the synchronized versions
//! must be clean (negative), in both executor modes.

use hs_machine::{Device, PlatformCfg};
use hsan::Finding;
use hstreams_core::{BufProps, DomainId, ExecMode, HStreams, StreamId};

fn offload(mode: ExecMode) -> HStreams {
    HStreams::init(PlatformCfg::offload(Device::Hsw, 1), mode)
}

/// Two streams on the card; stream 0 refills the tile while stream 1 drains
/// it, with no event between them.
fn racy_run(hs: &mut HStreams) -> (StreamId, StreamId) {
    let card = DomainId(1);
    let streams = hs.app_init(&[(card, 2)]).expect("two card streams");
    let buf = hs.buffer_create(4096, BufProps::labeled("tile"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    hs.enqueue_xfer(streams[0], buf, 0..4096, DomainId::HOST, card)
        .expect("h2d");
    hs.enqueue_xfer(streams[1], buf, 0..4096, card, DomainId::HOST)
        .expect("d2h");
    hs.thread_synchronize().expect("sync");
    (streams[0], streams[1])
}

/// Same shape, but the drain waits on the refill's event.
fn synced_run(hs: &mut HStreams) {
    let card = DomainId(1);
    let streams = hs.app_init(&[(card, 2)]).expect("two card streams");
    let buf = hs.buffer_create(4096, BufProps::labeled("tile"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    let h2d = hs
        .enqueue_xfer(streams[0], buf, 0..4096, DomainId::HOST, card)
        .expect("h2d");
    hs.enqueue_event_wait(streams[1], &[h2d]).expect("wait");
    hs.enqueue_xfer(streams[1], buf, 0..4096, card, DomainId::HOST)
        .expect("d2h");
    hs.thread_synchronize().expect("sync");
}

#[test]
fn live_race_is_detected_in_thread_mode() {
    let mut hs = offload(ExecMode::Threads);
    hs.obs_enable(true);
    let (s0, s1) = racy_run(&mut hs);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let report = hsan::check(&trace);
    assert_eq!(report.count_of("race"), 1, "{report}");
    let Finding::Race {
        first,
        second,
        overlap,
        ..
    } = &report.findings[0]
    else {
        panic!("expected a race");
    };
    assert_eq!(
        (first.stream, second.stream),
        (s0.0, s1.0),
        "the two transfer streams are named"
    );
    assert_eq!(overlap.clone(), 0..4096);
}

#[test]
fn live_race_is_detected_in_sim_mode() {
    let mut hs = offload(ExecMode::Sim);
    hs.obs_enable(true);
    racy_run(&mut hs);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let report = hsan::check(&trace);
    assert_eq!(report.count_of("race"), 1, "{report}");
}

#[test]
fn event_wait_makes_the_run_clean_in_both_modes() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let mut hs = offload(mode);
        hs.obs_enable(true);
        synced_run(&mut hs);
        let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
        let report = hsan::check(&trace);
        assert!(report.is_clean(), "{mode:?}: {report}");
        assert!(report.pairs_checked > 0, "the conflict was examined");
    }
}

#[test]
fn completions_are_recorded_and_fifo_equivalent() {
    // Thread mode: completion keys are wall-clock completion stamps; the synced
    // run must be a linearization (checked inside `check`), and every
    // action must actually have completed after thread_synchronize.
    let mut hs = offload(ExecMode::Threads);
    hs.obs_enable(true);
    synced_run(&mut hs);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    assert_eq!(
        trace.completions.len(),
        trace.actions().count(),
        "all actions completed"
    );
    assert!(hsan::check(&trace).is_clean());
}

#[test]
fn sim_mode_records_virtual_fire_times() {
    let mut hs = offload(ExecMode::Sim);
    hs.obs_enable(true);
    synced_run(&mut hs);
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    assert_eq!(trace.completions.len(), trace.actions().count());
    // The dependent d2h cannot fire before the h2d it waits on.
    let keys: std::collections::HashMap<u64, u64> = trace.completions.iter().copied().collect();
    let events: Vec<u64> = trace.actions().map(|a| a.event).collect();
    assert!(keys[&events[0]] <= keys[&events[2]], "h2d fires before d2h");
    assert!(hsan::check(&trace).is_clean());
}

#[test]
fn recording_can_restart_and_traces_are_independent() {
    let mut hs = offload(ExecMode::Sim);
    hs.obs_enable(true);
    racy_run(&mut hs);
    let racy = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    hs.obs_enable(true);
    synced_run(&mut hs);
    let clean = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    assert_eq!(hsan::check(&racy).count_of("race"), 1);
    // The second trace knows nothing of the first run's actions...
    assert!(clean.actions().count() < racy.actions().count() + 4);
    // ...and those actions alone are clean.
    assert!(hsan::check(&clean).is_clean());
}

#[test]
fn destroyed_buffer_lifecycle_is_clean_when_properly_synced() {
    // buffer_destroy waits for in-flight actions, so a live run can never
    // produce a use-after-free — assert the trace agrees.
    let hs = offload(ExecMode::Threads);
    hs.obs_enable(true);
    let card = DomainId(1);
    let streams = hs.app_init(&[(card, 1)]).expect("stream");
    let buf = hs.buffer_create(1024, BufProps::labeled("short-lived"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    hs.enqueue_xfer(streams[0], buf, 0..1024, DomainId::HOST, card)
        .expect("h2d");
    hs.buffer_destroy(buf).expect("destroy");
    hs.thread_synchronize().expect("sync");
    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let report = hsan::check(&trace);
    assert!(report.is_clean(), "{report}");
}
