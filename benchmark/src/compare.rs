//! `hs-e2e compare BASE.jsonl NEW.jsonl`: are two sets of runs the same,
//! by the bounds `BENCHMARK.json` fixes?
//!
//! Each file holds the records `--record` appended, one run per line. Per
//! (workload, end-to-end metric) the values of a file's untraced runs are
//! reduced to a median and quartiles; NEW is then `regressed` when its
//! median is worse than BASE's by more than the metric's bound *and* by
//! more than either side's own spread, `unresolved` when a side's spread
//! (interquartile range over median) is wider than the bound, so that the
//! bound cannot be checked, and `ok` otherwise. Counts that must repeat
//! exactly are compared across every traced run of both files.

use crate::json::{self, Value};
use crate::stats::{iqr_frac, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer counts a fixed seed must reproduce exactly, run after run.
const EXACT: &[&str] = &[
    "fabric.wire_bytes_per_rep",
    "fabric.h2d_bytes",
    "fabric.d2h_bytes",
    "core.actions_compute",
    "core.actions_xfer",
];

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One file's runs: `[workload][metric]` → one value per run, for the
/// untraced and the traced runs; and the result checksums of each
/// (workload, seed) — `smallact`'s inputs, and so its result, follow the
/// seed.
#[derive(Default)]
struct Set {
    plain: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    traced: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    checksums: BTreeMap<(String, u64), Vec<String>>,
    failed: u64,
}

fn load_bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", spec.display()))?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", spec.display()))
}

fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let rec = json::parse(line).map_err(|e| bad(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let traced = rec.get("trace").and_then(Value::as_f64) == Some(1.0);
        let result = rec.get("result").ok_or_else(|| bad("no result"))?;
        set.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0) as u64;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        let into = if traced {
            &mut set.traced
        } else {
            &mut set.plain
        };
        let per_metric = into.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
        if let Some(c) = rec.get("checksum").and_then(Value::as_str) {
            let seed = rec.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let key = (workload.to_string(), seed);
            set.checksums.entry(key).or_default().push(c.to_string());
        }
    }
    Ok(set)
}

/// Print the comparison; the process exit code (non-zero on any
/// `regressed`, on a count that does not repeat, on a failed operation).
pub fn compare(base: &Path, new: &Path, spec: &Path) -> i32 {
    let loaded = load_bounds(spec).and_then(|b| Ok((b, load_set(base)?, load_set(new)?)));
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("hs-e2e compare: {e}");
            return 2;
        }
    };
    let mut bad = 0u32;
    println!(
        "{:<15} {:<13} {:>11} {:>11} {:>11} {:>11} {:>7} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "base q1",
        "base med",
        "base q3",
        "new med",
        "ratio",
        "spread",
        "bound"
    );
    for (workload, base_metrics) in &a.plain {
        for bound in &bounds {
            let (Some(xa), Some(xb)) = (
                base_metrics.get(&bound.name),
                b.plain.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                println!("{workload:<15} {:<13} missing from one side", bound.name);
                bad += 1;
                continue;
            };
            let ([q1, ma, q3], [_, mb, _]) = (quartiles(xa), quartiles(xb));
            let spread = iqr_frac(xa).max(iqr_frac(xb));
            let worse_by = if bound.lower_is_better {
                mb - ma
            } else {
                ma - mb
            } / ma;
            let verdict = if worse_by > bound.bound.max(spread) {
                bad += 1;
                "regressed"
            } else if spread > bound.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<15} {:<13} {q1:>11.5} {ma:>11.5} {q3:>11.5} {mb:>11.5} {:>7.3} {spread:>7.3} {:>7.2}  {verdict} (n={}/{})",
                bound.name,
                mb / ma,
                bound.bound,
                xa.len(),
                xb.len()
            );
        }
    }
    for (workload, metrics) in &a.traced {
        for name in EXACT {
            let all: Vec<f64> = [
                metrics.get(*name),
                b.traced.get(workload).and_then(|m| m.get(*name)),
            ]
            .into_iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
            let exact = all.windows(2).all(|p| p[0] == p[1]);
            bad += u32::from(!exact);
            println!(
                "{workload:<15} {name:<28} {} over {} traced runs{}",
                all.first().copied().unwrap_or(0.0),
                all.len(),
                if exact {
                    ": exact"
                } else {
                    ": DIFFERS between runs"
                }
            );
        }
    }
    let keys: std::collections::BTreeSet<_> =
        a.checksums.keys().chain(b.checksums.keys()).collect();
    for key in keys {
        let all: Vec<&String> = [&a, &b]
            .into_iter()
            .filter_map(|s| s.checksums.get(key))
            .flatten()
            .collect();
        if all.windows(2).any(|p| p[0] != p[1]) {
            println!(
                "{:<15} seed {}: checksum DIFFERS between runs",
                key.0, key.1
            );
            bad += 1;
        }
    }
    let any_sum = |w: &str| {
        a.checksums
            .iter()
            .find(|((k, _), _)| k == w)
            .and_then(|(_, v)| v.first())
    };
    if let (Some(l), Some(u)) = (any_sum("matmul_local"), any_sum("matmul_uds")) {
        let same = l == u;
        bad += u32::from(!same);
        println!(
            "matmul_uds checksum {u} {} matmul_local's {l}",
            if same { "equals" } else { "DIFFERS from" }
        );
    }
    if a.failed + b.failed > 0 {
        println!(
            "{} failed operations in base, {} in new",
            a.failed, b.failed
        );
        bad += 1;
    }
    i32::from(bad > 0)
}
