//! The worker pool under the pipelines: blocking queues keep their own
//! threads, a self-feeding queue yields to the rest after the LIFO cap, a
//! push racing a queue's last item is neither lost nor run beside another,
//! and the last runtime handle may go on one of the pool's own workers.

use bytes::Bytes;
use hs_chaos::{ChaosHub, FailureCause};
use hs_coi::pipeline::{BufAccess, PipelineHandle};
use hs_coi::{
    serve_uds, CoiEvent, CoiRuntime, Dependent, EngineId, EventStatus, FnRegistry, RunCtx,
    SerialQueue, SinkTask, WorkerPool, LIFO_CAP,
};
use hs_fabric::{Endpoint, Pacer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll `cond` every millisecond for up to ten seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

const HOST_COMPUTES: usize = 100;

/// Every card stream of a worker served over a Unix socket sits in one long
/// RPC — a kernel that returns only once all of them have arrived and the
/// host has finished its own computes — while the host streams run 100
/// computes. Were a remote stream's sink a pool worker, the parked RPCs
/// would hold every worker and the host computes would never run.
#[test]
fn blocked_card_streams_never_starve_host_compute() {
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let card_streams = host_cores.max(2);
    let (arrived, host_done) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let worker = FnRegistry::new();
    let (seen, done) = (arrived.clone(), host_done.clone());
    worker.register(
        "park",
        Arc::new(move |ctx: &mut RunCtx| {
            seen.fetch_add(1, SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while seen.load(SeqCst) < card_streams || done.load(SeqCst) < HOST_COMPUTES {
                assert!(Instant::now() < deadline, "the host computes never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
            ctx.buf_mut(0).fill(1);
        }),
    );
    let path = std::env::temp_dir().join(format!("hs-coi-pool-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let serving = path.clone();
    std::thread::spawn(move || serve_uds(&serving, Arc::new(worker)));
    wait_until("the worker's socket", || path.exists());

    let rt =
        CoiRuntime::new_with_endpoints(1, ChaosHub::default(), &[(1, Endpoint::Uds(path.clone()))])
            .expect("connect");
    let counted = host_done.clone();
    rt.register(
        "count",
        Arc::new(move |_ctx: &mut RunCtx| {
            counted.fetch_add(1, SeqCst);
        }),
    );
    let card = EngineId(1);
    let card_pipes: Vec<_> = (0..card_streams)
        .map(|_| rt.pipeline_create_stream(card, 30, 60, None))
        .collect();
    let parked: Vec<CoiEvent> = card_pipes
        .iter()
        .map(|p| {
            let w = rt.buffer_alloc(card, 8, false);
            p.run("park", Bytes::new(), vec![(w.id(), 0..8, true)])
        })
        .collect();
    wait_until("every card stream's RPC", || {
        arrived.load(SeqCst) == card_streams
    });

    let host_pipes: Vec<_> = (0..2)
        .map(|_| rt.pipeline_create(EngineId::HOST, 1))
        .collect();
    let computes: Vec<CoiEvent> = (0..HOST_COMPUTES)
        .map(|i| host_pipes[i % 2].run("count", Bytes::new(), vec![]))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, ev) in computes.iter().enumerate() {
        ev.wait_deadline(deadline)
            .unwrap_or_else(|| panic!("host compute {i} starved behind the card RPCs"))
            .expect("host compute runs");
    }
    for (i, ev) in parked.iter().enumerate() {
        ev.wait()
            .unwrap_or_else(|e| panic!("card stream {i}'s task: {e}"));
    }
    let _ = std::fs::remove_file(&path);
}

/// Links a chain runs before it waits for the test to queue another
/// stream's task, so that task is queued with the chain well under way.
const STALL_AT: usize = 100;

/// One link of a chain that feeds its own pipeline: its completion submits
/// the next link.
struct Link {
    left: usize,
    pipe: PipelineHandle,
    done: Arc<AtomicUsize>,
    /// Set once the other stream's task is queued.
    gate: Arc<AtomicBool>,
    end: CoiEvent,
}

impl SinkTask for Link {
    fn call(&self) -> (&str, &[u8], &[BufAccess]) {
        ("nop", &[], &[])
    }

    fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
        if let Err(cause) = result {
            return self.end.fail(cause);
        }
        if self.done.fetch_add(1, SeqCst) + 1 == STALL_AT {
            wait_until("the other stream's task to be queued", || {
                self.gate.load(SeqCst)
            });
        }
        if self.left == 0 {
            return self.end.signal();
        }
        self.pipe.submit(Arc::new(Link {
            left: self.left - 1,
            pipe: self.pipe.clone(),
            done: self.done.clone(),
            gate: self.gate.clone(),
            end: self.end.clone(),
        }));
    }
}

/// A 10 000-link chain on one pipeline, with every other worker of the pool
/// held: another pipeline's ready task waits behind at most the link in
/// flight and [`LIFO_CAP`] more, not behind the rest of the chain.
#[test]
fn a_self_feeding_chain_yields_to_another_stream_after_the_lifo_cap() {
    const LINKS: usize = 10_000;
    let rt = CoiRuntime::new(0, Pacer::unpaced());
    let (held, release) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let (h, r) = (held.clone(), release.clone());
    rt.register("nop", Arc::new(|_ctx: &mut RunCtx| {}));
    rt.register(
        "hold",
        Arc::new(move |_ctx: &mut RunCtx| {
            h.fetch_add(1, SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            while !r.load(SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }),
    );
    let done = Arc::new(AtomicUsize::new(0));
    let started_at = Arc::new(AtomicUsize::new(usize::MAX));
    let (d, s) = (done.clone(), started_at.clone());
    rt.register(
        "note",
        Arc::new(move |_ctx: &mut RunCtx| {
            s.store(d.load(SeqCst), SeqCst);
        }),
    );
    let blockers = rt.pool().size() - 1;
    let hold_pipes: Vec<_> = (0..blockers)
        .map(|_| rt.pipeline_create(EngineId::HOST, 1))
        .collect();
    let holds: Vec<CoiEvent> = hold_pipes
        .iter()
        .map(|p| p.run("hold", Bytes::new(), vec![]))
        .collect();
    wait_until("every other worker to be held", || {
        held.load(SeqCst) == blockers
    });

    let (chain, other) = (
        rt.pipeline_create(EngineId::HOST, 1),
        rt.pipeline_create(EngineId::HOST, 1),
    );
    let (end, gate) = (CoiEvent::new(), Arc::new(AtomicBool::new(false)));
    chain.sender_handle().submit(Arc::new(Link {
        left: LINKS - 1,
        pipe: chain.sender_handle(),
        done: done.clone(),
        gate: gate.clone(),
        end: end.clone(),
    }));
    wait_until("the chain to stall", || done.load(SeqCst) == STALL_AT);
    let noted = other.run("note", Bytes::new(), vec![]);
    let queued_at = done.load(SeqCst);
    gate.store(true, SeqCst);
    noted.wait().expect("the other stream's task runs");
    end.wait().expect("the chain completes");
    release.store(true, SeqCst);
    CoiEvent::wait_all(&holds).expect("the held workers go");

    let started_at = started_at.load(SeqCst);
    assert!(
        started_at < LINKS,
        "the chain ended before the other stream's task ran"
    );
    assert!(
        started_at - queued_at <= LIFO_CAP as usize + 1,
        "{} links ran while the other stream's task was ready",
        started_at - queued_at
    );
    assert_eq!(done.load(SeqCst), LINKS);
}

/// 2 000 rounds of a push racing the end of the queue's last item: the
/// second push follows the first item's last statement by a delay that
/// sweeps the queue's own end-of-item bookkeeping, on a shared pool and on a
/// blocking queue's pool of one. Every item runs, and never two at once.
#[test]
fn a_push_racing_the_last_item_is_never_lost_or_run_beside_another() {
    const ROUNDS: usize = 2_000;
    for pool in [WorkerPool::new(2, "race"), WorkerPool::new(1, "race-own")] {
        let (running, overlaps, ran) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
        );
        let (busy, over, count) = (running.clone(), overlaps.clone(), ran.clone());
        let queue = SerialQueue::new(Arc::new(pool), move |_round: usize| {
            if busy.swap(true, SeqCst) {
                over.fetch_add(1, SeqCst);
            }
            busy.store(false, SeqCst);
            count.fetch_add(1, SeqCst);
        });
        let handle = queue.handle();
        let spin_until = |want: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while ran.load(SeqCst) < want {
                assert!(Instant::now() < deadline, "an item was lost");
                std::hint::spin_loop();
            }
        };
        for round in 0..ROUNDS {
            handle.push(round).expect("open queue");
            spin_until(2 * round + 1);
            for _ in 0..round % 16 * 4 {
                std::hint::spin_loop();
            }
            handle.push(round).expect("open queue");
            spin_until(2 * round + 2);
        }
        assert_eq!(overlaps.load(SeqCst), 0, "two items ran at once");
        drop(queue);
        assert_eq!(handle.push(0), Err(0), "a dropped queue refuses pushes");
    }
}

/// The last handle of a runtime goes on one of that runtime's own workers:
/// a dependent of the task's event drops the test's handle while the
/// pipeline's task holds the other, which goes when the worker finishes
/// with the queue. The pool stops without joining the thread it is dropped
/// on, and nothing hangs.
#[test]
fn the_last_runtime_handle_may_go_on_a_pool_worker() {
    /// Drops the runtime handle it holds when released.
    struct DropOnRelease(Mutex<Option<Arc<CoiRuntime>>>);
    impl Dependent for DropOnRelease {
        fn resolved(self: Arc<Self>, _: &EventStatus) {
            drop(self.0.lock().expect("handle slot").take());
        }
    }
    for _ in 0..20 {
        let rt = CoiRuntime::new(1, Pacer::unpaced());
        rt.register("nop", Arc::new(|_ctx: &mut RunCtx| {}));
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let ev = pipe.run("nop", Bytes::new(), vec![]);
        let gone = Arc::downgrade(&rt);
        ev.add_dependent(Arc::new(DropOnRelease(Mutex::new(Some(rt)))));
        drop(pipe);
        wait_until("the runtime to go", || gone.upgrade().is_none());
        assert_eq!(ev.wait(), Ok(()));
    }
}
