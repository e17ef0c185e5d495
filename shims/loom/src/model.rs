//! Model entry points: [`model()`] and [`Builder`].

use crate::sched::{run_one, Explorer};
use std::sync::{Arc, Mutex as StdMutex};

/// Run `f` under every explorable schedule (see crate docs for semantics
/// and fidelity caveats). Panics on the first failing schedule.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f)
}

/// Exploration configuration, mirroring `loom::model::Builder`.
pub struct Builder {
    /// Maximum context switches away from a still-runnable thread per
    /// schedule (CHESS preemption bounding). `None` = unbounded, i.e.
    /// exhaustive. Seeded from `LOOM_MAX_PREEMPTIONS` when set.
    pub preemption_bound: Option<usize>,
    /// Hard cap on the number of schedules executed; exceeding it panics
    /// so a too-large model fails loudly instead of passing vacuously.
    /// Seeded from `LOOM_MAX_ITERATIONS` (default 200 000).
    pub max_iterations: u64,
    /// Print the explored-schedule count when done (`LOOM_LOG=1`).
    pub log: bool,
}

impl Builder {
    pub fn new() -> Builder {
        let preemption_bound = std::env::var("LOOM_MAX_PREEMPTIONS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok());
        let max_iterations = std::env::var("LOOM_MAX_ITERATIONS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(200_000);
        Builder {
            preemption_bound,
            max_iterations,
            log: std::env::var_os("LOOM_LOG").is_some(),
        }
    }

    /// Execute `f` once per unexplored schedule until the space (as bounded
    /// by `preemption_bound`) is exhausted.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync + 'static> = Arc::new(f);
        let explorer = Arc::new(StdMutex::new(Explorer::new()));
        loop {
            {
                let ex = explorer.lock().unwrap_or_else(|e| e.into_inner());
                assert!(
                    ex.iterations < self.max_iterations,
                    "loom(shim): exceeded {} schedules without exhausting the \
                     model; shrink the model, set a preemption bound, or raise \
                     LOOM_MAX_ITERATIONS",
                    self.max_iterations
                );
            }
            run_one(f.clone(), explorer.clone(), self.preemption_bound);
            let more = {
                let mut ex = explorer.lock().unwrap_or_else(|e| e.into_inner());
                ex.advance()
            };
            if !more {
                break;
            }
        }
        if self.log {
            let ex = explorer.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!("loom(shim): explored {} complete executions", ex.iterations);
        }
    }
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}
