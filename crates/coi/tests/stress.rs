//! Stress and concurrency tests of the COI layer: pipelines under load,
//! pool churn from many threads, registry mutation during execution, and
//! panic containment at scale.

use bytes::Bytes;
use hs_coi::{CoiEvent, CoiRuntime, EngineId, RunCtx};
use hs_fabric::Pacer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn thousand_commands_across_pipelines_in_order_per_pipeline() {
    let rt = CoiRuntime::new(2, Pacer::unpaced());
    let logs: Vec<Arc<parking_lot::Mutex<Vec<u32>>>> = (0..4)
        .map(|_| Arc::new(parking_lot::Mutex::new(Vec::new())))
        .collect();
    let pipes: Vec<_> = (0..4)
        .map(|i| rt.pipeline_create(EngineId(1 + (i % 2) as u16), 1))
        .collect();
    // args: the pipeline's log index, then the command's ordinal.
    let seen = logs.clone();
    rt.register(
        "log_ordinal",
        Arc::new(move |ctx: &mut RunCtx| {
            let (p, i) = ctx.args().split_at(1);
            let i = u32::from_le_bytes(i.try_into().expect("4-byte ordinal"));
            seen[p[0] as usize].lock().push(i);
        }),
    );
    let mut events = Vec::new();
    for i in 0..1000u32 {
        let p = (i % 4) as usize;
        let args = [&[p as u8][..], &i.to_le_bytes()].concat();
        events.push(pipes[p].run("log_ordinal", Bytes::from(args), vec![]));
    }
    CoiEvent::wait_all(&events).expect("all complete");
    for (p, log) in logs.iter().enumerate() {
        let vals = log.lock();
        assert_eq!(vals.len(), 250);
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "pipeline {p} preserves arrival order");
        }
    }
}

#[test]
fn pool_churn_from_many_threads_conserves_windows() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    std::thread::scope(|s| {
        for t in 0..8 {
            let rt = &rt;
            s.spawn(move || {
                for i in 0..50 {
                    let len = 1024 * (1 + (t * 7 + i) % 5);
                    let w = rt.buffer_alloc(EngineId(1), len, true);
                    // Touch it to prove the window is live and zeroed.
                    let mem = rt.fabric().window(w.id()).expect("window");
                    {
                        let mut g = mem.lock_range(0..len, true).expect("lock");
                        assert!(
                            g.as_mut_slice().iter().all(|&b| b == 0),
                            "pool must re-zero"
                        );
                        g.as_mut_slice().fill(0xAB);
                    }
                    rt.buffer_free(EngineId(1), w);
                }
            });
        }
    });
    let stats = rt.pool_stats(EngineId(1));
    assert_eq!(stats.hits + stats.misses, 400, "every alloc accounted for");
    assert!(stats.hits > 0, "churn must reuse windows");
}

#[test]
fn run_functions_registered_mid_flight_are_visible() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    let pipe = rt.pipeline_create(EngineId(1), 1);
    let counter = Arc::new(AtomicU64::new(0));
    let c = counter.clone();
    rt.register(
        "first",
        Arc::new(move |_ctx: &mut RunCtx| {
            c.fetch_add(1, Ordering::SeqCst);
        }),
    );
    let e1 = pipe.run("first", Bytes::new(), vec![]);
    e1.wait().expect("first runs");
    // Register a second function after the pipeline already executed work.
    let c2 = counter.clone();
    rt.register(
        "second",
        Arc::new(move |_ctx: &mut RunCtx| {
            c2.fetch_add(100, Ordering::SeqCst);
        }),
    );
    let e2 = pipe.run("second", Bytes::new(), vec![]);
    e2.wait().expect("second runs");
    assert_eq!(counter.load(Ordering::SeqCst), 101);
}

#[test]
fn panic_storm_does_not_poison_other_pipelines() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    rt.register("boom", Arc::new(|_ctx: &mut RunCtx| panic!("storm")));
    rt.register("ok", Arc::new(|_ctx: &mut RunCtx| {}));
    let bad = rt.pipeline_create(EngineId(1), 1);
    let good = rt.pipeline_create(EngineId(1), 1);
    let mut bad_events = Vec::new();
    let mut good_events = Vec::new();
    for _ in 0..50 {
        bad_events.push(bad.run("boom", Bytes::new(), vec![]));
        good_events.push(good.run("ok", Bytes::new(), vec![]));
    }
    for e in &bad_events {
        assert!(e.wait().is_err(), "every boom fails cleanly");
    }
    for e in &good_events {
        assert!(e.wait().is_ok(), "the good pipeline is unaffected");
    }
}

#[test]
fn wide_pipeline_parallel_for_scales_work() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    rt.register(
        "spread",
        Arc::new(move |ctx: &mut RunCtx| {
            let h = h.clone();
            ctx.par_for(10_000, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }),
    );
    let pipe = rt.pipeline_create(EngineId(1), 4);
    pipe.run("spread", Bytes::new(), vec![])
        .wait()
        .expect("runs");
    assert_eq!(hits.load(Ordering::Relaxed), 10_000);
}

#[test]
fn overlapping_reads_run_concurrently_across_pipelines() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    let concurrent = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let (c, p) = (concurrent.clone(), peak.clone());
    rt.register(
        "read_slow",
        Arc::new(move |ctx: &mut RunCtx| {
            let _data = ctx.buf(0);
            let now = c.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(10));
            c.fetch_sub(1, Ordering::SeqCst);
        }),
    );
    let w = rt.buffer_alloc(EngineId(1), 256, true);
    let pipes: Vec<_> = (0..4).map(|_| rt.pipeline_create(EngineId(1), 1)).collect();
    let events: Vec<_> = pipes
        .iter()
        .map(|p| p.run("read_slow", Bytes::new(), vec![(w.id(), 0..256, false)]))
        .collect();
    CoiEvent::wait_all(&events).expect("all run");
    // Pipelines are queues on the runtime's pool: at most one per worker
    // runs at a time, and read-read range locks never hold any of them back.
    let reachable = pipes.len().min(rt.pool().size()) as u64;
    assert_eq!(
        peak.load(Ordering::SeqCst),
        reachable,
        "read-read overlap must be concurrent up to the pool's workers"
    );
}
