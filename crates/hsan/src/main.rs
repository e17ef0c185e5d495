//! The `hsan` command line: check a recorded lock-acquisition edge graph.
//!
//! ```text
//! cargo run -p hsan -- lock-order [--json] edges.json
//! ```
//!
//! Reads the input (`-` = stdin), runs every check, prints human-readable
//! diagnostics (or a JSON report with `--json`), and exits 1 if anything
//! was found (2 on usage or parse errors) — so CI can gate on it. Action
//! traces are checked in-process with `hsan::check`.

use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: hsan lock-order [--json] <edges.json>  ('-' reads stdin)");
    eprintln!();
    eprintln!("Checks a recorded lock-acquisition edge graph (from");
    eprintln!("`hstreams_core::lockorder::edges_json`)");
    eprintln!("for rank inversions and deadlock cycles against the");
    eprintln!("documented lock order. Exit status: 0 clean, 1 when findings");
    eprintln!("exist, 2 on bad input.");
    ExitCode::from(2)
}

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (json_out, path) = match args.as_slice() {
        [cmd, flag, p] if cmd == "lock-order" && flag == "--json" => (true, p),
        [cmd, p] if cmd == "lock-order" && !["--help", "-h", "--json"].contains(&p.as_str()) => {
            (false, p)
        }
        _ => return usage(),
    };
    let report = match read_input(path) {
        Ok(text) => hsan::lockorder::check_json(&text),
        Err(e) => Err(format!("reading: {e}")),
    };
    let report = match report {
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
