//! The `hsan` command line: analyze a JSON action trace or a recorded
//! lock-acquisition edge graph.
//!
//! ```text
//! cargo run -p hsan -- trace.json
//! cargo run -p hsan -- lock-order [--json] edges.json
//! ```
//!
//! Reads the input (`-` = stdin), runs every check, prints human-readable
//! diagnostics (or a JSON report with `--json`), and exits 1 if anything
//! was found (2 on usage or parse errors) — so CI can gate on it.

use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: hsan <trace.json>                      ('-' reads stdin)");
    eprintln!("       hsan lock-order [--json] <edges.json>  ('-' reads stdin)");
    eprintln!();
    eprintln!("Checks a recorded hStreams action trace for cross-stream");
    eprintln!("races, event-cycle deadlocks, buffer lifetime hazards and");
    eprintln!("FIFO-equivalence violations. The `lock-order` subcommand");
    eprintln!("checks a recorded lock-acquisition edge graph (from");
    eprintln!("`hstreams_core::lockorder::edges_json`)");
    eprintln!("for rank inversions and deadlock cycles against the");
    eprintln!("documented lock order. Exit status: 0 clean, 1 when findings");
    eprintln!("exist, 2 on bad input.");
    ExitCode::from(2)
}

fn read_input(path: &str) -> Result<String, ExitCode> {
    if path == "-" {
        let mut s = String::new();
        match std::io::stdin().read_to_string(&mut s) {
            Ok(_) => Ok(s),
            Err(e) => {
                eprintln!("hsan: reading stdin: {e}");
                Err(ExitCode::from(2))
            }
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => Ok(s),
            Err(e) => {
                eprintln!("hsan: reading {path}: {e}");
                Err(ExitCode::from(2))
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, rest @ ..] if cmd == "lock-order" => {
            let (json_out, path) = match rest {
                [flag, p] if flag == "--json" => (true, p),
                [p] if p != "--help" && p != "-h" && p != "--json" => (false, p),
                _ => return usage(),
            };
            let text = match read_input(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let report = match hsan::lockorder::check_json(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("hsan: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            if json_out {
                print!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        [p] if p != "--help" && p != "-h" => {
            let text = match read_input(p) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let trace = match hsan::json::from_json(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("hsan: {p}: {e}");
                    return ExitCode::from(2);
                }
            };
            let report = hsan::check(&trace);
            println!("{report}");
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => usage(),
    }
}
