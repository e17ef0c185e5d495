//! Negative regression for the lock-order witness: run the paper's
//! pipelines with acquisition recording on and assert the edge graph obeys
//! the documented total order (DESIGN.md §13): `lockorder::inversions()`
//! is empty, and with it every cycle, since under a total order a cycle
//! must contain an inverted edge.
//!
//! The edge multiset and enable flag are process-global, so the workloads
//! run sequentially inside one `#[test]` with `clear()` between them.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hstreams_core::lockorder::{self, LockClass};
use hstreams_core::{ExecMode, HStreams};

fn assert_ordered(what: &str) {
    lockorder::disable();
    let edges = lockorder::edges();
    let inversions = lockorder::inversions();
    assert!(
        inversions.is_empty(),
        "{what}: lock-order violation in a live run: {inversions:?}"
    );
    // A real pipeline must actually exercise nested acquisition — a clean
    // report over an empty graph would prove nothing.
    assert!(
        !edges.is_empty(),
        "{what}: no acquisition edges recorded — is the witness wired up?"
    );
    assert!(
        edges
            .iter()
            .any(|&(h, a, _)| h == LockClass::World && a == LockClass::Stream),
        "{what}: enqueue never nested a stream mutex under the world lock: \
         {edges:?}"
    );
    lockorder::clear();
}

#[test]
fn pipelines_obey_the_documented_lock_order() {
    // Matmul, thread executor: the full enqueue / transfer / compaction
    // machinery with real OS-thread workers.
    let mut cfg = MatmulConfig::new(24, 6);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    lockorder::clear();
    lockorder::enable();
    {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
        let r = matmul::run(&mut hs, &cfg).expect("matmul runs");
        assert!(r.max_err.expect("verified") < 1e-10);
    }
    assert_ordered("matmul/threads");

    // Cholesky, thread executor: deeper cross-stream dependences.
    let mut cfg = CholConfig::new(24, 6, CholVariant::Hetero);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    lockorder::enable();
    {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        let r = cholesky::run(&mut hs, &cfg).expect("cholesky runs");
        assert!(r.max_err.expect("verified") < 1e-8);
    }
    assert_ordered("cholesky/threads");

    // Matmul, virtual-time executor: covers the SimExec and sim-shadow
    // classes the thread executor never touches.
    let mut cfg = MatmulConfig::new(2000, 500);
    cfg.verify = false;
    lockorder::enable();
    {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Sim);
        matmul::run(&mut hs, &cfg).expect("matmul runs");
    }
    assert_ordered("matmul/sim");

    // Matmul, thread executor, durability on: every enqueue appends to the
    // WAL under the recovery lock, wait entries flush under it, and the
    // checkpoint takes it after gathering its buffer snapshot — the durable
    // paths must slot into the total order, not just exist.
    let root = std::env::temp_dir().join(format!("hs-lockorder-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = MatmulConfig::new(24, 6);
    cfg.streams_per_card = 2;
    cfg.streams_host = 2;
    cfg.verify = true;
    lockorder::enable();
    {
        let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 2), ExecMode::Threads);
        hs.durability_opts(&root, false, 0).expect("durability on");
        let r = matmul::run(&mut hs, &cfg).expect("matmul runs");
        assert!(r.max_err.expect("verified") < 1e-10);
        hstreams_core::testing::wal_checkpoint(&hs);
        let records = hs.wal_stats().expect("durable").records;
        assert!(records > 0, "durable run logged no records");
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        lockorder::edges()
            .iter()
            .any(|&(_, a, _)| a == LockClass::Recovery),
        "durable run never acquired the recovery class — is the append path wired?"
    );
    assert_ordered("matmul/threads+wal");
}
