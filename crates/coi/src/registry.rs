//! Sink-side run-function registry.
//!
//! Real COI resolves run functions by symbol name inside the sink binary;
//! hStreams builds its "invoke by function name" API on that. Here the
//! registry is an explicit name → closure table shared by every engine this
//! process hosts — the paper's portability argument: *the same task code
//! runs on the host and the coprocessor*, so one registration serves all
//! of them. A card in a worker process resolves names in the worker's own
//! registry, as a COI sink resolves them in its own binary.

use crate::pipeline::RunCtx;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A sink-side entry point. Receives the run context (args bytes, buffer
/// views, pipeline width for `parallel_for`).
pub type RunFunction = Arc<dyn Fn(&mut RunCtx) + Send + Sync>;

/// Thread-safe name → function table.
#[derive(Default)]
pub struct FnRegistry {
    table: RwLock<HashMap<String, RunFunction>>,
}

impl FnRegistry {
    pub fn new() -> FnRegistry {
        FnRegistry::default()
    }

    /// Register (or replace) a function.
    pub fn register(&self, name: &str, f: RunFunction) {
        self.table.write().insert(name.to_string(), f);
    }

    /// Look up a function by name.
    pub fn lookup(&self, name: &str) -> Option<RunFunction> {
        self.table.read().get(name).cloned()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.table.read().contains_key(name)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered names, sorted (diagnostics).
    #[cfg(test)]
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.table.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> RunFunction {
        Arc::new(|_ctx: &mut RunCtx| {})
    }

    #[test]
    fn register_and_lookup() {
        let r = FnRegistry::new();
        assert!(r.is_empty());
        r.register("f", noop());
        assert!(r.contains("f"));
        assert!(r.lookup("f").is_some());
        assert!(r.lookup("g").is_none());
    }

    #[test]
    fn replace_keeps_single_entry() {
        let r = FnRegistry::new();
        r.register("f", noop());
        r.register("f", noop());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn names_sorted() {
        let r = FnRegistry::new();
        r.register("zz", noop());
        r.register("aa", noop());
        assert_eq!(r.names(), vec!["aa".to_string(), "zz".to_string()]);
    }

    #[test]
    fn concurrent_registration_is_safe() {
        let r = Arc::new(FnRegistry::new());
        std::thread::scope(|s| {
            for i in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    r.register(&format!("f{i}"), Arc::new(|_ctx: &mut RunCtx| {}));
                });
            }
        });
        assert_eq!(r.len(), 8);
    }
}
