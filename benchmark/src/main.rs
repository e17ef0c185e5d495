//! `hs-e2e` command line: a benchmark run (the default), `worker`, `compare`.

use hs_e2e::run::{run, Opts};
use hs_e2e::workload::{self, Workload};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "\
usage: hs-e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--reps N] [--smoke]
              [--out DIR] [--record FILE] [--corrupt-oracle]
       hs-e2e worker --uds PATH | --tcp ADDR
       hs-e2e compare BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]
workloads: matmul_local cholesky_local matmul_uds smallact smallact_wal";

fn usage(problem: &str) -> ! {
    eprintln!("hs-e2e: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The card side of `matmul_uds` and of the transport probes: the apps'
/// kernel table plus the benchmark's own kernel, served by `hs-coi`.
fn worker(args: &[String]) -> ! {
    let registry = Arc::new(hs_coi::FnRegistry::new());
    for (name, f) in hs_apps::kernels::kernel_table() {
        registry.register(name, f);
    }
    registry.register(workload::KERNEL, workload::kernel_fn());
    // The parent holds the other end of stdin and never writes: end of
    // file means the parent is gone, however it went.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let served = match args {
        [mode, path] if mode == "--uds" => hs_coi::serve_uds(Path::new(path), registry),
        [mode, addr] if mode == "--tcp" => {
            hs_coi::server::spawn_tcp_server(addr, registry).map(|bound| {
                println!("{bound}");
                loop {
                    std::thread::park();
                }
            })
        }
        _ => usage("worker takes --uds PATH or --tcp ADDR"),
    };
    if let Err(e) = served {
        eprintln!("hs-e2e worker: {e}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("compare") => {
            let (mut files, mut spec) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--spec" => {
                        spec = it
                            .next()
                            .map(PathBuf::from)
                            .unwrap_or_else(|| usage("--spec needs a file"))
                    }
                    _ => files.push(PathBuf::from(a)),
                }
            }
            let [base, new] = &files[..] else {
                usage("compare takes two record files");
            };
            std::process::exit(hs_e2e::compare::compare(base, new, &spec));
        }
        _ => {}
    }

    let mut opts = Opts {
        workload: Workload::MatmulLocal,
        seed: 0,
        seconds: 20.0,
        trace: false,
        reps: None,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        record: None,
        corrupt_oracle: false,
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} {v}: not a number")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                opts.workload =
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v}")));
                have_workload = true;
            }
            "--seed" => {
                opts.seed = number(value());
                have_seed = true;
            }
            "--seconds" => opts.seconds = number(value()) as f64,
            "--trace" => opts.trace = number(value()) != 0,
            "--reps" => opts.reps = Some(number(value()) as usize),
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()),
            "--record" => opts.record = Some(PathBuf::from(value())),
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if !have_workload || !have_seed {
        usage("--workload and --seed are required");
    }
    std::process::exit(run(&opts));
}
