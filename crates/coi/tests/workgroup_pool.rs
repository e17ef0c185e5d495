//! Expansion regions on a worker pool: a runtime's workers all exist from
//! its creation and every parallel region of every pipeline runs on them (no
//! thread is spawned on the compute path), width-1 groups stay inline, and a
//! panicking task fails its region without poisoning the pool.

use bytes::Bytes;
use hs_coi::{CoiEvent, CoiRuntime, EngineId, RunCtx, Workgroup};
use hs_fabric::Pacer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn no_thread_is_spawned_after_the_runtime_is_created() {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(rt.pool().size(), host_cores, "one worker per core");
    // Many regions of both flavours, from inside tasks of pipelines wider
    // than the host, on the card and the host engine.
    rt.register(
        "regions",
        Arc::new(|ctx: &mut RunCtx| {
            let wg = ctx.workgroup().clone();
            for round in 0..20 {
                let hits = AtomicUsize::new(0);
                wg.par_for(17 + round % 5, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), 17 + round % 5);
                let mut data = vec![0u32; 40];
                wg.par_chunks_mut(&mut data, 7, |idx, chunk| {
                    for x in chunk.iter_mut() {
                        *x = idx as u32 + 1;
                    }
                });
                assert!(data.iter().all(|&x| x != 0));
            }
        }),
    );
    let pipes: Vec<_> = [EngineId(1), EngineId(1), EngineId::HOST]
        .map(|engine| rt.pipeline_create(engine, 4))
        .into();
    for _ in 0..10 {
        let events: Vec<_> = pipes
            .iter()
            .map(|p| p.run("regions", Bytes::new(), vec![]))
            .collect();
        CoiEvent::wait_all(&events).expect("every region completes");
    }
    for p in &pipes {
        assert!(
            Arc::ptr_eq(p.workgroup().pool(), rt.pool()),
            "a pipeline's regions run on its runtime's pool"
        );
        assert_eq!(p.workgroup().regions(), 10 * 20 * 2);
    }
    assert_eq!(rt.pool().size(), host_cores);
}

#[test]
fn width_one_never_spawns() {
    let wg = Workgroup::new(1, "t-w1", None);
    let hits = AtomicUsize::new(0);
    for _ in 0..50 {
        wg.par_for(13, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 50 * 13);
    assert_eq!(wg.pool().size(), 0, "width 1 runs inline on the caller");
    assert_eq!(
        wg.regions(),
        0,
        "width-1 fast path must not touch the thread pool"
    );
}

#[test]
fn panic_does_not_poison_pool() {
    let wg = Workgroup::new(3, "t-panic", None);
    wg.par_for(8, |_| {}); // warm up
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        wg.par_for(16, |i| {
            if i == 11 {
                panic!("task 11 exploded");
            }
        });
    }));
    assert!(r.is_err(), "the panic must propagate to the submitter");
    // The pool is still usable, with the same workers.
    let hits = AtomicUsize::new(0);
    wg.par_for(32, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 32);
    assert_eq!(wg.regions(), 3);
    assert_eq!(wg.pool().size(), 2, "no respawn after a panic");
}

#[test]
fn pool_reused_across_many_chunked_regions() {
    let wg = Workgroup::new(2, "t-chunks", None);
    let mut data = vec![0.0f64; 1000];
    wg.par_chunks_mut(&mut data, 128, |_, c| c.fill(1.0));
    for round in 1..100u32 {
        wg.par_chunks_mut(&mut data, 64 + (round as usize % 64), |idx, c| {
            for x in c.iter_mut() {
                *x += (idx + 1) as f64;
            }
        });
    }
    assert_eq!(wg.regions(), 100);
    assert_eq!(wg.pool().size(), 1);
    assert!(data.iter().all(|&x| x > 1.0));
}

#[test]
fn affinity_is_recorded() {
    let mask: u128 = 0b1011;
    let wg = Workgroup::new(3, "t-aff", Some(mask));
    assert_eq!(wg.affinity(), Some(mask));
    assert_eq!(wg.width(), 3);
}
