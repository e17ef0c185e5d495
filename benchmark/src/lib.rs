//! `hs-e2e`: the repo's wall-clock benchmark. README.md beside this crate
//! says what is measured and why; `../BENCHMARK.json` is the contract.

pub mod calib;
pub mod compare;
pub mod guard;
pub mod json;
pub mod ledger;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
