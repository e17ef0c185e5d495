//! An intentionally racy two-stream program — the positive-detection
//! fixture for `hsan`.
//!
//! Stream 0 refills a tile on the card while stream 1 drains it back to the
//! host. hStreams semantics imply **no** ordering between streams: without
//! an explicit event wait the drain can ship a half-refilled tile. The
//! recording + analyzer pipeline must catch exactly that.
//!
//! ```text
//! cargo run -p hsan --example racy_transfer            # prints the race
//! cargo run -p hsan --example racy_transfer -- --fixed # clean run
//! ```
//!
//! Exits 1 when findings disagree with the expectation, so it doubles as a
//! smoke test.

use hs_machine::{Device, PlatformCfg};
use hstreams_core::{BufProps, DomainId, ExecMode, HStreams};

fn main() {
    let fixed = std::env::args().any(|a| a == "--fixed");
    let hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
    hs.obs_enable(true);

    let card = DomainId(1);
    let streams = hs.app_init(&[(card, 2)]).expect("two card streams");
    let tile = hs.buffer_create(1 << 20, BufProps::labeled("tile"));
    hs.buffer_instantiate(tile, card)
        .expect("instantiate on card");

    let refill = hs
        .enqueue_xfer(streams[0], tile, 0..1 << 20, DomainId::HOST, card)
        .expect("refill h2d");
    if fixed {
        // The one line the racy version is missing.
        hs.enqueue_event_wait(streams[1], &[refill]).expect("wait");
    }
    hs.enqueue_xfer(streams[1], tile, 0..1 << 20, card, DomainId::HOST)
        .expect("drain d2h");
    hs.thread_synchronize().expect("sync");

    let trace = hsan::ActionTrace::from_records(&hs, &hs.take_obs_records());
    let report = hsan::check(&trace);
    println!("{report}");

    let races = report.count_of("race");
    let ok = if fixed { report.is_clean() } else { races == 1 };
    if !ok {
        eprintln!(
            "unexpected outcome: fixed={fixed}, races={races}, findings={}",
            report.findings.len()
        );
        std::process::exit(1);
    }
}
