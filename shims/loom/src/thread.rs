//! `loom::thread`: model-aware spawn/join/yield.
//!
//! Inside a model, `spawn` registers a scheduler-controlled thread (it does
//! not run until a schedule decision selects it) and `join` is a blocking
//! schedule point. Outside a model both delegate to `std::thread`.

use crate::sched::{self, current, Scheduler, Wait};
use std::sync::{Arc, Mutex as StdMutex};

enum Repr<T> {
    Os(std::thread::JoinHandle<T>),
    Model {
        tid: sched::Tid,
        sched: Arc<Scheduler>,
        slot: Arc<StdMutex<Option<T>>>,
    },
}

/// Handle to a spawned thread; `join` returns the closure's value.
pub struct JoinHandle<T>(Repr<T>);

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Repr::Os(h) => h.join(),
            Repr::Model { tid, sched, slot } => {
                let Some(ctx) = current() else {
                    // Unwinding out of an aborted run: the target unwinds
                    // too, and `model::Builder::check` waits for it.
                    assert!(
                        std::thread::panicking(),
                        "loom(shim): model JoinHandle joined outside its model"
                    );
                    return Err(Box::new("loom(shim): run aborted"));
                };
                ctx.sched.yield_point(ctx.tid);
                // No yield between the check and the block: we hold the
                // active token, so the target can't finish in between.
                if !sched.is_finished(tid) {
                    sched.block_on(ctx.tid, Wait::Join(tid));
                }
                match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    Some(v) => Ok(v),
                    None => Err(Box::new("loom(shim): model thread panicked")),
                }
            }
        }
    }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        None => JoinHandle(Repr::Os(std::thread::spawn(f))),
        Some(ctx) => {
            // Spawn is itself a visible operation.
            ctx.sched.yield_point(ctx.tid);
            let tid = ctx.sched.register();
            let slot = Arc::new(StdMutex::new(None));
            let slot2 = slot.clone();
            sched::spawn_model(&ctx.sched, tid, false, move || {
                let v = f();
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            });
            JoinHandle(Repr::Model {
                tid,
                sched: ctx.sched,
                slot,
            })
        }
    }
}

/// A pure schedule point inside a model; `std::thread::yield_now` outside.
pub fn yield_now() {
    match current() {
        Some(ctx) => ctx.sched.yield_point(ctx.tid),
        None => std::thread::yield_now(),
    }
}
