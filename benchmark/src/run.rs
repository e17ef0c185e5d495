//! One benchmark run: repetitions inside a time budget, every one checked,
//! then the metrics as the last line of standard output.

use crate::calib::{self, Calib};
use crate::guard::{self, Scratch, Worker};
use crate::json::{num, quote};
use crate::ledger::{self, Metrics};
use crate::spans::{chrome_trace, lifecycles, RepActions, Spans};
use crate::stats::{iqr_frac, median, percentile_sorted, quartiles, sorted};
use crate::workload::{self, Plan, Rep, RtCfg, RttRig, Size, Trace, Workload};
use hs_linalg::flops;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A repetition still running after this long is abandoned and counted as
/// failed; the remaining repetitions go on.
const WATCHDOG: Duration = Duration::from_secs(60);
/// Timed repetitions a run makes at least, whatever the budget.
const MIN_REPS: usize = 3;
/// Batches of round trips in the traced pass; each is bracketed by its own
/// calibration and `core.rtt_norm_p50` is the median over batches.
const RTT_BATCHES: usize = 3;
/// Seconds of the traced pass's budget kept back for the round trips.
const RTT_RESERVE_S: f64 = 0.5;

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_norm", "x_calib"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Exactly this many timed repetitions instead of a time budget.
    pub reps: Option<usize>,
    /// Small problem sizes and [`MIN_REPS`] repetitions: a functional check.
    pub smoke: bool,
    /// Where sockets, WAL roots and trace files go.
    pub out: PathBuf,
    /// Append this run's full record (one JSON line) here.
    pub record: Option<PathBuf>,
    pub corrupt_oracle: bool,
}

/// Attempts and failures, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Metrics by name, before they are checked and printed.
type Named = Vec<(&'static str, f64)>;

impl Tally {
    fn count<T>(&mut self, n: u64, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += n;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                eprintln!("hs-e2e: FAILED {what}: {e}");
                self.notes.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Run `f` on its own thread; an `Err`, a panic and a [`WATCHDOG`] expiry
/// all come back as `Err`. An expired thread is left behind (there is no
/// way to stop it) and ends with the process.
fn guarded<T: Send + 'static>(
    f: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("e2e-rep".to_string())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| format!("spawning the repetition thread: {e}"))?;
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => {
            let _ = thread.join();
            r
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no result within {WATCHDOG:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => match thread.join() {
            Err(p) => Err(format!("panicked: {}", panic_text(&p))),
            Ok(()) => Err("repetition thread ended without a result".to_string()),
        },
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// What every repetition of a run shares.
struct Ctx {
    workload: Workload,
    size: Size,
    plan: Option<Arc<Plan>>,
    scratch: Scratch,
    origin: Instant,
}

/// A repetition's external fixtures: the worker process and the WAL root.
/// Set up before the repetition's clock-stopped body and torn down after,
/// both inside the repetition's total.
struct Fixtures {
    rt: RtCfg,
    worker: Option<Worker>,
    wal_root: Option<PathBuf>,
}

impl Fixtures {
    fn new(ctx: &Ctx, idx: u32, remote: bool) -> Result<Fixtures, String> {
        let worker = remote
            .then(|| Worker::spawn_uds(&ctx.scratch.path(&format!("w{idx}.sock"))))
            .transpose()?;
        let wal_root = ctx
            .workload
            .durable()
            .then(|| ctx.scratch.path(&format!("wal{idx}")));
        if let Some(root) = &wal_root {
            std::fs::create_dir_all(root)
                .map_err(|e| format!("creating {}: {e}", root.display()))?;
        }
        Ok(Fixtures {
            rt: RtCfg {
                endpoint: worker.as_ref().map(Worker::endpoint),
                wal_root: wal_root.clone(),
            },
            worker,
            wal_root,
        })
    }

    /// Peak RSS of the worker, read while it is still alive.
    fn worker_rss_mb(&self) -> f64 {
        self.worker
            .as_ref()
            .and_then(Worker::peak_rss_mb)
            .unwrap_or(0.0)
    }
}

impl Drop for Fixtures {
    fn drop(&mut self) {
        self.worker.take();
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// One timed repetition as the metrics see it.
struct Sample {
    run_s: f64,
    /// Everything in the repetition outside `run_s`.
    setup_s: f64,
    /// Mean of the calibrations before and after the repetition.
    calib: Calib,
    max_err: f64,
}

/// Each repetition's run time over its calibration, for a workload whose
/// parallel share is `q`.
fn run_norm(samples: &[Sample], q: f64) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.run_s / s.calib.divisor(q))
        .collect()
}

impl Ctx {
    /// One repetition, fixtures and all: the repetition, its total seconds
    /// (`total − run_s` is its set-up) and the worker's peak RSS.
    fn attempt(&self, idx: u32, trace: Trace, remote: bool) -> Result<(Rep, f64, f64), String> {
        let t = Instant::now();
        let fx = Fixtures::new(self, idx, remote)?;
        let (w, size, rt, plan) = (self.workload, self.size, fx.rt.clone(), self.plan.clone());
        let spans = Spans::new(self.origin, idx);
        let rep = guarded(move || match &plan {
            Some(plan) => workload::smallact_rep(plan, &rt, spans, trace),
            None => workload::app_rep(w, &size, &rt, spans, trace),
        });
        let rss = fx.worker_rss_mb();
        drop(fx);
        Ok((rep?, t.elapsed().as_secs_f64(), rss))
    }

    /// Round trips on this workload's runtime configuration: per batch the
    /// median trip over the bracketing calibration, and every trip in µs.
    fn round_trips(&self, cores: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
        let fx = Fixtures::new(self, u32::MAX, self.workload.remote())?;
        let (rt, trips, origin) = (fx.rt.clone(), self.size.rtt_trips, self.origin);
        guarded(move || {
            let mut rig = RttRig::new(&rt, &mut Spans::new(origin, u32::MAX))?;
            rig.trips(trips / 10 + 1)?;
            let (mut norm, mut all_us) = (Vec::new(), Vec::new());
            // A round trip ping-pongs between two threads: never parallel.
            let mut before = Calib::measure(cores);
            for _ in 0..RTT_BATCHES {
                let secs = rig.trips(trips)?;
                let after = Calib::measure(cores);
                norm.push(median(&secs) / before.mean(after).divisor(0.0));
                all_us.extend(secs.iter().map(|s| s * 1e6));
                before = after;
            }
            rig.verify()?;
            Ok((norm, all_us))
        })
    }
}

/// What the timed repetitions of a run produced.
#[derive(Default)]
struct Measured {
    /// Untraced repetitions.
    plain: Vec<Sample>,
    /// Traced repetitions (traced pass only; they alternate with untraced
    /// ones, so the two kinds see the same machine).
    traced: Vec<Sample>,
    /// One more calibration than repetitions: they interleave.
    calibs: Vec<Calib>,
    checksums: Vec<u64>,
    /// The S and T metrics of each traced repetition.
    ledgers: Vec<Metrics>,
    /// The first traced repetition's actions, for the trace file.
    actions: Vec<RepActions>,
}

/// Timed repetitions until `--reps` are done or the next one would overrun
/// the budget (`spent_s` of it is gone already, `reserve_s` is kept back).
fn measure(
    ctx: &Ctx,
    opts: &Opts,
    cores: usize,
    (spent_s, reserve_s): (f64, f64),
    tally: &mut Tally,
    spans: &mut Spans,
) -> Measured {
    let mut m = Measured::default();
    let fixed_reps = opts.reps.or(opts.smoke.then_some(MIN_REPS));
    let t_measure = Instant::now();
    let mut slowest = 0.0f64;
    m.calibs.push(Calib::measure(cores));
    for i in 0.. {
        let stop = match fixed_reps {
            Some(n) => i >= n,
            None => {
                let spent = t_measure.elapsed().as_secs_f64() + spent_s;
                i >= MIN_REPS && spent + slowest + reserve_s > opts.seconds
            }
        };
        if stop {
            break;
        }
        let trace = match (opts.trace && i % 2 == 1, m.actions.is_empty()) {
            (false, _) => Trace::Off,
            (true, true) => Trace::Detail,
            (true, false) => Trace::Metrics,
        };
        let t = Instant::now();
        // Repetition indices start after the warm-up's.
        let idx = 10 + i as u32;
        let out = ctx.attempt(idx, trace, ctx.workload.remote());
        let before = m.calibs[m.calibs.len() - 1];
        let after = Calib::measure(cores);
        m.calibs.push(after);
        slowest = slowest.max(t.elapsed().as_secs_f64());
        let Some((rep, total_s, _)) = tally.count(1, "repetition", out) else {
            continue;
        };
        m.checksums.push(rep.checksum);
        let sample = Sample {
            run_s: rep.run_s,
            setup_s: total_s - rep.run_s,
            calib: before.mean(after),
            max_err: rep.max_err,
        };
        match rep.traced {
            None => m.plain.push(sample),
            Some(t) => {
                let actions = lifecycles(&t.records);
                m.ledgers.push(ledger::rep_metrics(&t, &actions, rep.run_s));
                spans.absorb(rep.spans);
                if trace == Trace::Detail {
                    m.actions.push(RepActions {
                        rep: idx,
                        clock_offset_ns: t.clock_offset_ns,
                        actions,
                    });
                }
                m.traced.push(sample);
            }
        }
    }
    m
}

fn summary(xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    format!(
        "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
        xs.len(),
        num(q1),
        num(q2),
        num(q3)
    )
}

fn list(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// The end-to-end metrics, and the quartiles behind them for the record.
fn end_to_end(m: &Measured, q: f64, peak_rss_mb: f64) -> (Named, String) {
    let norm = run_norm(&m.plain, q);
    let divisors: Vec<f64> = m.calibs.iter().map(|c| c.divisor(q)).collect();
    let setup: Vec<f64> = m.plain.iter().map(|s| s.setup_s).collect();
    let raw: Vec<f64> = m.plain.iter().map(|s| s.run_s).collect();
    let metrics = vec![
        ("run_norm", median(&norm)),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&setup)),
    ];
    let samples = format!(
        "\"run_norm\":{},\"setup_s\":{},\"run_s\":{},\"calib_s\":{},\
         \"each_run_s\":[{}],\"each_calib\":[{}]",
        summary(&norm),
        summary(&setup),
        summary(&raw),
        summary(&divisors),
        list(raw.iter().map(|x| num(*x))),
        list(
            m.calibs
                .iter()
                .map(|c| format!("[{},{}]", num(c.serial_s), num(c.all_cores_s)))
        ),
    );
    (metrics, samples)
}

/// The traced pass's own measurements (sim replay, round trips) and the
/// per-layer metrics that are not per-repetition sums.
fn per_layer(
    ctx: &Ctx,
    m: &Measured,
    cores: usize,
    stable: bool,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Named {
    let (w, size) = (ctx.workload, &ctx.size);
    let run_s = median(&m.plain.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let total_flops = match w {
        Workload::CholeskyLocal => flops::cholesky_total(size.cholesky.0),
        Workload::MatmulLocal | Workload::MatmulUds => flops::matmul_total(size.matmul.0),
        Workload::Smallact | Workload::SmallactWal => 0.0,
    };
    let (pred_s, replay_s) = if w.is_app() {
        let sim = spans.within("sim.replay", |_| workload::app_sim(w, size));
        tally.count(1, "sim replay", sim).unwrap_or_default()
    } else {
        (0.0, 0.0)
    };
    let rtt = spans.within("core.round_trips", |_| ctx.round_trips(cores));
    let trips = (RTT_BATCHES * size.rtt_trips) as u64;
    let (rtt_norm, rtt_us) = tally.count(trips, "round trips", rtt).unwrap_or_default();
    let rtt_us = sorted(&rtt_us);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let q = w.parallel_share();
    let norm = |s: &[Sample]| median(&run_norm(s, q));
    let overhead = ratio(norm(&m.traced), norm(&m.plain)) - 1.0;
    let serial: Vec<f64> = m.calibs.iter().map(|c| c.serial_s).collect();
    let all_cores: Vec<f64> = m.calibs.iter().map(|c| c.all_cores_s).collect();
    let max_err = m.plain.iter().chain(&m.traced).map(|s| s.max_err);
    vec![
        ("linalg.flops_per_rep", total_flops),
        ("core.rtt_us_p50", percentile_sorted(&rtt_us, 50.0)),
        ("core.rtt_us_p99", percentile_sorted(&rtt_us, 99.0)),
        ("core.rtt_norm_p50", median(&rtt_norm)),
        ("obs.overhead_frac", overhead),
        ("sim.pred_over_wall", ratio(pred_s, run_s)),
        ("sim.replay_s", replay_s),
        ("apps.run_s", run_s),
        ("apps.gflops", ratio(total_flops, run_s) / 1e9),
        ("apps.max_err", max_err.fold(0.0, f64::max)),
        ("apps.checksum_stable", f64::from(u8::from(stable))),
        ("host.calib_serial_s", median(&serial)),
        ("host.calib_all_cores_s", median(&all_cores)),
        ("host.calib_iqr_frac", iqr_frac(&all_cores)),
        ("host.cores", cores as f64),
        (
            "host.noisy",
            f64::from(u8::from(iqr_frac(&all_cores) > 0.25)),
        ),
    ]
}

/// Run the benchmark once; the process exit code.
pub fn run(opts: &Opts) -> i32 {
    let origin = Instant::now();
    let cores = calib::cores();
    let size = if opts.smoke { Size::SMOKE } else { Size::FULL };
    let w = opts.workload;
    let tag = format!("{}-t{}", w.name(), u8::from(opts.trace));
    let scratch = match Scratch::create(opts.out.join("tmp").join(&tag)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hs-e2e: cannot create {}: {e}", opts.out.display());
            return 2;
        }
    };
    let plan = (!w.is_app()).then(|| {
        let mut p = Plan::new(opts.seed, size.actions);
        if opts.corrupt_oracle {
            p.corrupt();
        }
        Arc::new(p)
    });
    let ctx = Ctx {
        workload: w,
        size,
        plan,
        scratch,
        origin,
    };
    let mut tally = Tally::default();
    let mut spans = Spans::new(origin, 0);
    let mut metrics = Metrics::new();

    // The probes come out of the traced pass's time budget.
    if opts.trace {
        let p = crate::probes::run_all(&ctx.scratch, &mut spans);
        for r in p.outcomes {
            tally.count(1, "probe", r);
        }
        metrics.extend(p.metrics);
    }
    let probe_s = origin.elapsed().as_secs_f64();

    // Warm-up, checked but untimed. Peak memory is read right after it:
    // what a process that runs the workload once needs. Later repetitions
    // build fresh runtimes in the same process, and how much of the freed
    // memory the allocator keeps varies from run to run.
    let own_rss_mb = || guard::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let warm = tally.count(1, "warm-up", ctx.attempt(0, Trace::Off, w.remote()));
    let warm_rss_mb = own_rss_mb();
    let peak_rss_mb = warm_rss_mb + warm.as_ref().map_or(0.0, |(_, _, worker)| *worker);
    // `matmul_uds` also runs once with the card in-process: its result must
    // be bit-identical over the wire.
    let reference = w
        .remote()
        .then(|| ctx.attempt(1, Trace::Off, false))
        .and_then(|r| tally.count(1, "in-process reference", r))
        .map(|(rep, _, _)| rep.checksum);
    let warmup_s = origin.elapsed().as_secs_f64() - probe_s;

    let reserve_s = if opts.trace { RTT_RESERVE_S } else { 0.0 };
    let mut m = measure(
        &ctx,
        opts,
        cores,
        (probe_s, reserve_s),
        &mut tally,
        &mut spans,
    );
    m.checksums.extend(warm.map(|(rep, _, _)| rep.checksum));

    let stable = m.checksums.windows(2).all(|p| p[0] == p[1]);
    if !stable {
        let differs = Err("differs between repetitions".to_string());
        tally.count::<()>(1, "checksum", differs);
    }
    if let (Some(r), Some(c)) = (reference, m.checksums.first()) {
        let same = (r == *c).then_some(()).ok_or_else(|| {
            format!("over the wire {c:016x}, in-process {r:016x}: not bit-identical")
        });
        tally.count(1, "matmul_uds checksum", same);
    }

    let mut samples_json = String::new();
    let declared = if opts.trace {
        metrics.extend(ledger::reduce(&m.ledgers));
        let own = per_layer(&ctx, &m, cores, stable, &mut tally, &mut spans);
        metrics.extend(own.into_iter().map(|(k, v)| (k.to_string(), v)));
        metrics.insert("host.rss_growth_mb".into(), own_rss_mb() - warm_rss_mb);
        let path = opts.out.join(format!("trace_{}.json", w.name()));
        let written = std::fs::write(&path, chrome_trace(w.name(), &spans, &m.actions))
            .map_err(|e| format!("writing {}: {e}", path.display()));
        tally.count(1, "trace file", written);
        ledger::PER_LAYER
    } else {
        let (own, samples) = end_to_end(&m, w.parallel_share(), peak_rss_mb);
        metrics.extend(own.into_iter().map(|(k, v)| (k.to_string(), v)));
        samples_json = samples;
        END_TO_END
    };

    // A metric that is not a finite number is a failed measurement; an
    // end-to-end metric must also be above zero. `fail_frac` comes last,
    // once every attempt is counted.
    for (name, _) in declared.iter().filter(|(n, _)| *n != "fail_frac") {
        let v = metrics.get(*name).copied();
        let ok = v.is_some_and(|v| v.is_finite() && (opts.trace || v > 0.0));
        if !ok {
            tally.count::<()>(1, name, Err(format!("not measured ({v:?})")));
            metrics.insert(name.to_string(), 0.0);
        }
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    metrics.insert("fail_frac".into(), fail_frac);

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            quote(name),
            num(metrics[*name]),
            quote(unit)
        );
    }
    line.push_str("}}");

    if let Some(path) = &opts.record {
        let record = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"smoke\":{},\"cores\":{cores},\"fs\":{},\
             \"reps\":{},\"warmup_s\":{},\"checksum\":\"{:016x}\",\"notes\":[{}],\
             \"samples\":{{{samples_json}}},\"result\":{line}}}\n",
            quote(w.name()),
            opts.seed,
            u8::from(opts.trace),
            opts.smoke,
            quote(&guard::fs_type(&opts.out)),
            m.plain.len() + m.traced.len(),
            num(warmup_s),
            m.checksums.first().copied().unwrap_or(0),
            list(tally.notes.iter().map(|n| quote(n))),
        );
        if let Err(e) = append(path, &record) {
            eprintln!("hs-e2e: cannot append to {}: {e}", path.display());
            return 2;
        }
    }
    // Sockets and WAL roots go before the result is announced.
    drop(ctx);
    println!("{line}");
    i32::from(tally.failed > 0)
}

fn append(path: &Path, record: &str) -> std::io::Result<()> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(record.as_bytes())
}
