//! `hs-worker` — a card as a process.
//!
//! Hosts the worker side of the hs-fabric framed protocol: window
//! allocation, checksummed H2D/D2H transfers and kernel execution, with
//! the full `hs-apps` kernel table registered, so matmul/Cholesky tiles
//! run here. A task function this registry lacks fails its task on the
//! host.
//!
//! Usage:
//!   hs-worker --uds /path/to/socket
//!   hs-worker --tcp 127.0.0.1:7070

use hs_coi::FnRegistry;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: hs-worker --uds PATH | --tcp ADDR");
    std::process::exit(2);
}

/// SIGTERM → graceful shutdown: the handler flips the server's shutdown
/// flag (one atomic store — async-signal-safe), and a supervisor thread
/// waits for in-flight requests to finish and their replies to flush
/// before exiting 0. A host mid-RPC sees its ack and a clean close, not a
/// dropped connection — SIGTERM must never masquerade as a card loss.
fn install_sigterm() {
    extern "C" fn on_sigterm(_sig: i32) {
        hs_coi::request_shutdown();
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: signal(2) with a handler that only performs an atomic store,
    // which is async-signal-safe; SIGTERM (15) is not otherwise handled.
    unsafe {
        signal(15, on_sigterm);
    }
    std::thread::Builder::new()
        .name("hs-worker-term".to_string())
        .spawn(|| loop {
            if hs_coi::shutdown_requested() {
                // Drain until a full grace beat passes with nothing in
                // flight. The counter is incremented only after a request
                // frame is fully received, so a request that slipped into
                // the gap between `recv_frame` returning and its guard's
                // increment can make the first check read 0 — re-checking
                // after the sleep catches it instead of killing it mid-RPC
                // (the sleep also lets the last reply's bytes reach the
                // wire).
                loop {
                    while hs_coi::inflight_requests() > 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    if hs_coi::inflight_requests() == 0 {
                        break;
                    }
                }
                std::process::exit(0);
            }
            std::thread::sleep(Duration::from_millis(5));
        })
        .expect("spawn sigterm supervisor");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mode, addr) = match (args.next(), args.next()) {
        (Some(m), Some(a)) => (m, a),
        _ => usage(),
    };

    install_sigterm();
    let registry = std::sync::Arc::new(FnRegistry::new());
    for (name, f) in hs_apps::kernels::kernel_table() {
        registry.register(name, f);
    }

    let res = match mode.as_str() {
        "--uds" => hs_coi::serve_uds(std::path::Path::new(&addr), registry),
        "--tcp" => hs_coi::serve_tcp(&addr, registry),
        _ => usage(),
    };
    if let Err(e) = res {
        eprintln!("hs-worker: {e}");
        std::process::exit(1);
    }
}
