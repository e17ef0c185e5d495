//! §III — layering overheads.
//!
//! Reproduces the paper's overhead analysis:
//! * hStreams transfer overhead is "less than 5% for data transfers above
//!   1MB" and "20-30us ... for transfers under 128KB";
//! * COI allocation overheads are "negligible when a pool of 2MB buffers
//!   were used" and "significant" without it (the OmpSs configuration);
//! * "OmpSs ends up inducing overheads on top of hStreams of 15-50% for
//!   matrices that are 4800-10000 elements on a side".
//!
//! Transfer overheads are *measured in real time* through the paced fabric
//! (an actual memcpy stretched to PCIe speed), not simulated. So is the
//! buffer pool, in thread mode: what a pooled allocation costs when it
//! comes off a free list (4 KiB and 128 KiB) against an unpooled one, and
//! `registered_over_data` — window capacity the pools hold registered over
//! the bytes of tile data — for the buffer sets of the benchmark's matmul
//! (n=1024, tile=128) and Cholesky (n=1024, tile=64). The ratio is a count
//! and is gated here at 1.1 on every run; the timings are reported only.
//!
//! Writes `BENCH_pool.json` at the workspace root; the `pre_pr` rows were
//! measured on the parent commit (every pooled window a multiple of 2 MB),
//! on the host that recorded the artifact. `HS_BENCH_SMOKE=1` shrinks the
//! sample counts for CI.

use hs_apps::cholesky::{run, run_ompss, CholConfig, CholVariant};
use hs_apps::tilebuf::TileBufs;
use hs_bench::{f, git_rev, write_bench_json, JsonRecord, Table};
use hs_coi::{CoiRuntime, EngineId};
use hs_fabric::{Fabric, NodeId, Pacer};
use hs_linalg::TileMap;
use hs_machine::{Device, LinkSpec, Overheads, PlatformCfg};
use hstreams_core::{DomainId, ExecMode, HStreams};
use std::time::Instant;

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json");

/// The measured pool rows on the parent commit (`PRE_PR_REV`: `class_of`
/// rounds every pooled length up to a multiple of 2 MB and a free-list hit
/// re-zeroes all of it), full-length run on the 2-core host that recorded
/// the artifact. The ratios are exact: 2 MiB over a 128 KiB / 32 KiB tile.
const PRE_PR_REV: &str = "f5cebb8";
const PRE_PR_CORES: f64 = 2.0;
const PRE_PR: [(&str, usize, &str, f64); 5] = [
    ("pool_hit_alloc/4KiB", 4 << 10, "us", 57.9),
    ("pool_hit_alloc/128KiB", 128 << 10, "us", 54.1),
    ("unpooled_alloc/128KiB", 128 << 10, "us", 2.02),
    ("registered_over_data/matmul_1024_128", 1024, "ratio", 16.0),
    ("registered_over_data/cholesky_1024_64", 1024, "ratio", 64.0),
];

fn transfer_overheads() {
    let fabric = Fabric::new(2, Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper()));
    let link = LinkSpec::pcie_knc();
    let mut t = Table::new(vec!["size", "measured (us)", "wire-ideal (us)", "overhead"]);
    for kb in [4usize, 16, 64, 128, 512, 1024, 4096, 16384, 65536] {
        let bytes = kb * 1024;
        let src = fabric.register(NodeId::HOST, bytes);
        let dst = fabric.register(NodeId(1), bytes);
        // Warm up, then measure the median of 5 (like the paper's Fig. 9
        // methodology).
        fabric.dma_copy(src, 0, dst, 0, bytes).expect("warmup");
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                fabric.dma_copy(src, 0, dst, 0, bytes).expect("dma");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let us = samples[2];
        let ideal = bytes as f64 / link.h2d_bytes_per_sec * 1e6;
        let overhead = us - ideal;
        let pct = overhead / ideal * 100.0;
        t.row(vec![
            format!("{kb} KB"),
            f(us),
            f(ideal),
            if bytes <= 1 << 20 {
                format!("+{:.0} us", overhead)
            } else {
                format!("{pct:.1}%")
            },
        ]);
        fabric.unregister(src);
        fabric.unregister(dst);
    }
    t.print("§III — transfer overhead vs size (real paced DMA; paper: 20-30us below 128KB, <5% above 1MB)");
}

fn pool_overheads() {
    let ov = Overheads::paper();
    let mut t = Table::new(vec![
        "configuration",
        "per-buffer cost (us)",
        "100 tiles (ms)",
    ]);
    for (name, pooled) in [
        ("COI 2MB pool ON (hStreams)", true),
        ("pool OFF (OmpSs case)", false),
    ] {
        let us = if pooled {
            ov.alloc_pool_us
        } else {
            ov.alloc_no_pool_us
        };
        t.row(vec![name.to_string(), f(us), f(us * 100.0 / 1000.0)]);
    }
    t.print("§III — COI buffer-pool allocation overheads (model constants)");

    // And observed end-to-end in virtual time: instantiate 100 buffers.
    let mut with_pool = PlatformCfg::hetero(Device::Hsw, 1);
    with_pool.coi_buffer_pool = true;
    let mut without = with_pool.clone();
    without.coi_buffer_pool = false;
    let measure = |p: PlatformCfg| {
        let hs = HStreams::init(p, ExecMode::Sim);
        let t0 = hs.now_secs();
        for _ in 0..100 {
            let b = hs.buffer_create(1 << 20, Default::default());
            hs.buffer_instantiate(b, hstreams_core::DomainId(1))
                .expect("inst");
        }
        // Flush the source clock into simulated time: one trivial action.
        let s = hs
            .stream_create(
                hstreams_core::DomainId::HOST,
                hstreams_core::CpuMask::first(1),
            )
            .expect("stream");
        let last = hs.buffer_create(8, Default::default());
        let ev = hs
            .enqueue_xfer(
                s,
                last,
                0..8,
                hstreams_core::DomainId::HOST,
                hstreams_core::DomainId::HOST,
            )
            .expect("flush");
        hs.event_wait(ev).expect("flush wait");
        (hs.now_secs() - t0) * 1e3
    };
    println!(
        "observed source-side time for 100 instantiations: pool ON {:.2} ms, pool OFF {:.2} ms",
        measure(with_pool),
        measure(without)
    );
}

/// Median µs of one `buffer_alloc` of `len` bytes on a card engine; the
/// window goes back (to the free list, or unregistered) outside the timing,
/// so after the first miss every pooled allocation is a free-list hit.
fn alloc_us((warm, samples): (usize, usize), len: usize, pooled: bool) -> f64 {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    let card = EngineId(1);
    let mut us = Vec::with_capacity(samples);
    for i in 0..warm + samples {
        let t0 = Instant::now();
        let w = rt.buffer_alloc(card, len, pooled);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        rt.buffer_free(card, w);
        if i >= warm {
            us.push(dt);
        }
    }
    let ps = rt.pool_stats(card);
    let expect = if pooled { ps.hits } else { ps.bypass };
    assert!(expect as usize >= samples, "timed the wrong path: {ps:?}");
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Window capacity the pools hold registered over bytes of tile data, for
/// `matrices` n×n matrices tiled by `tile`: every tile on the host (as
/// `TileBufs::create` makes them), and on the card where `on_card(i, j)`.
fn registered_over_data(
    n: usize,
    tile: usize,
    matrices: usize,
    on_card: impl Fn(usize, usize) -> bool,
) -> f64 {
    let mut hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
    let map = TileMap::new(n, tile);
    let mut data = 0;
    for _ in 0..matrices {
        let tb = TileBufs::create(&mut hs, map, "T");
        for i in 0..map.nt {
            for j in 0..map.nt {
                data += tb.bytes(i, j);
                if on_card(i, j) {
                    hs.buffer_instantiate(tb.buf(i, j), DomainId(1))
                        .expect("inst");
                    data += tb.bytes(i, j);
                }
            }
        }
    }
    hs.metrics().extra["pool.registered_bytes"] / data as f64
}

fn pool_measured() {
    let smoke = std::env::var("HS_BENCH_SMOKE").is_ok();
    let n = if smoke { (20, 200) } else { (200, 5000) };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
    // In `PRE_PR` order. matmul: every tile of A, B and C on the host and on
    // the card; Cholesky: every tile on the host, the lower triangle on the
    // card.
    let now = [
        alloc_us(n, 4 << 10, true),
        alloc_us(n, 128 << 10, true),
        alloc_us(n, 128 << 10, false),
        registered_over_data(1024, 128, 3, |_, _| true),
        registered_over_data(1024, 64, 1, |i, j| j <= i),
    ];
    let rev = git_rev();
    let mut t = Table::new(vec!["row", "unit", "pre_pr", "now"]);
    let mut records = Vec::new();
    for (config, rev, cores, values) in [
        ("size_class", rev.as_str(), cores, now),
        ("pre_pr", PRE_PR_REV, PRE_PR_CORES, PRE_PR.map(|r| r.3)),
    ] {
        for ((name, size, unit, _), value) in PRE_PR.iter().zip(values) {
            records.push(
                JsonRecord::new(*name, *size, 0.0)
                    .with_config(config)
                    .with_git_rev(rev)
                    .with_metrics(vec![
                        (unit.to_string(), value),
                        ("host_cores".to_string(), cores),
                    ]),
            );
        }
    }
    for ((name, _, unit, before), now) in PRE_PR.iter().zip(now) {
        t.row(vec![name.to_string(), unit.to_string(), f(*before), f(now)]);
        assert!(
            *unit != "ratio" || now <= 1.1,
            "{name}: the pools register {now:.2}x the tile data (cap 1.1x)"
        );
    }
    t.print(
        "§III — COI buffer pool, measured in thread mode (model: 6 us pooled, 600 us unpooled)",
    );
    write_bench_json(ARTIFACT, &records);
}

fn ompss_overheads() {
    // Same placement for both: pure offload to one card. OmpSs's overhead
    // = its per-task instantiation/scheduling costs + synchronous unpooled
    // COI allocations stalling the card pipeline.
    let mut t = Table::new(vec![
        "n",
        "direct hStreams (s)",
        "OmpSs (s)",
        "OmpSs overhead",
    ]);
    for n in [4800usize, 6400, 8000, 10000] {
        let tile = 600;
        let mut hs = HStreams::init(PlatformCfg::offload(Device::Hsw, 1), ExecMode::Sim);
        let direct = run(&mut hs, &CholConfig::new(n, tile, CholVariant::Offload))
            .expect("direct")
            .secs;
        let ompss = run_ompss(
            PlatformCfg::offload(Device::Hsw, 1),
            ExecMode::Sim,
            n,
            tile,
            4,
            false,
        )
        .expect("ompss")
        .secs;
        t.row(vec![
            n.to_string(),
            f(direct),
            f(ompss),
            format!("{:.0}%", (ompss / direct - 1.0) * 100.0),
        ]);
    }
    t.print(
        "§III — OmpSs overhead over direct hStreams, Cholesky (paper: 15-50% for n=4800-10000)",
    );
}

fn main() {
    transfer_overheads();
    pool_overheads();
    pool_measured();
    ompss_overheads();
}
