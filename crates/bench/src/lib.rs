//! # hs-bench — the figure/table regeneration harness
//!
//! Each bench target (run via `cargo bench`) regenerates one table or
//! figure of the paper's evaluation, printing measured values next to the
//! paper's reported ones. Absolute Gflop/s are produced by the calibrated
//! virtual-time executor (see `hs-machine::calib` for exactly which
//! constants were fitted); the *shapes* — who wins, crossover points,
//! scaling and overhead bands — come from the real scheduling machinery.
//!
//! This library crate holds the small table-formatting and comparison
//! helpers the bench targets share.

/// A simple aligned-text table writer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn print(&self, title: &str) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n=== {title} ===");
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            line
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// One benchmark measurement destined for a `BENCH_*.json` artifact.
pub struct JsonRecord {
    pub name: String,
    pub size: usize,
    pub gflops: f64,
    /// How many source threads drove the runtime during this measurement
    /// (emitted as a `source_threads` key when set).
    pub source_threads: Option<usize>,
    /// Intra-stream ordering mode the runtime ran with (`"ooo"` /
    /// `"fifo"`; emitted as an `ordering` key when set).
    pub ordering: Option<String>,
    /// Front-end configuration that produced the row (`"single"` for one
    /// action per enqueue call, `"batch"` for `enqueue_many`, `"pre_pr/…"`
    /// for the parent commit measured with the same bench file;
    /// emitted as a `config` key when set) — keeps trajectory rows
    /// comparable across PRs as the front-end evolves.
    pub config: Option<String>,
    /// Revision of the code that was measured (emitted as a `git_rev` key
    /// when set): a `pre_pr` row names the parent commit, the rows next to
    /// it the tree that replaced it.
    pub git_rev: Option<String>,
    /// Extra observability columns (queue depths, occupancy, utilization)
    /// from an `hs_obs::MetricsSnapshot` — empty for plain measurements.
    pub metrics: Vec<(String, f64)>,
}

impl JsonRecord {
    pub fn new(name: impl Into<String>, size: usize, gflops: f64) -> JsonRecord {
        JsonRecord {
            name: name.into(),
            size,
            gflops,
            source_threads: None,
            ordering: None,
            config: None,
            git_rev: None,
            metrics: Vec::new(),
        }
    }

    /// Override the record's name (used when the constructor name encodes a
    /// full variant tag but the artifact should carry the base name plus
    /// structured `source_threads`/`ordering` keys).
    pub fn with_name(mut self, name: impl Into<String>) -> JsonRecord {
        self.name = name.into();
        self
    }

    /// Record how many source threads drove the measurement.
    pub fn with_source_threads(mut self, threads: usize) -> JsonRecord {
        self.source_threads = Some(threads);
        self
    }

    /// Record the intra-stream ordering mode (`"ooo"` / `"fifo"`).
    pub fn with_ordering(mut self, ordering: impl Into<String>) -> JsonRecord {
        self.ordering = Some(ordering.into());
        self
    }

    /// Record the front-end configuration (`"single"` / `"batch"` / …).
    pub fn with_config(mut self, config: impl Into<String>) -> JsonRecord {
        self.config = Some(config.into());
        self
    }

    /// Record which revision of the code the row measured.
    pub fn with_git_rev(mut self, rev: impl Into<String>) -> JsonRecord {
        self.git_rev = Some(rev.into());
        self
    }

    /// Attach metrics rows (e.g. `hs_obs::MetricsSnapshot::rows()`); they
    /// become extra keys of this record's JSON object.
    pub fn with_metrics(mut self, metrics: Vec<(String, f64)>) -> JsonRecord {
        self.metrics = metrics;
        self
    }
}

fn assert_json_safe(s: &str) {
    assert!(
        s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
        "bench record names/keys must not need JSON escaping: {s:?}"
    );
}

/// Format a metric value: finite, trimmed precision (JSON has no NaN/inf).
fn metric_val(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Write measurements as a machine-readable JSON array (hand-formatted —
/// the workspace has no serde_json) of `{"name", "size", "gflops"}`
/// objects, plus one key per attached metrics row. Paths are
/// workspace-root-relative by convention (`BENCH_<target>.json`); errors
/// are *loud* — benches must not silently drop their artifacts (that is
/// exactly the run_benches.sh failure mode this replaces).
pub fn write_bench_json(path: &str, records: &[JsonRecord]) {
    // Chaotic runs (HS_CHAOS_SEED set) measure a run with injected faults,
    // retries, and possibly a degraded card — numbers that must never be
    // mistaken for the paper's figures. Refuse the artifact, loudly.
    if let Ok(seed) = std::env::var("HS_CHAOS_SEED") {
        println!(
            "\nREFUSING to write {path}: HS_CHAOS_SEED={seed} — \
             fault-injected measurements are not bench artifacts"
        );
        return;
    }
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        // JSON floats: emit a fixed precision; names are plain ASCII
        // identifiers so no escaping is needed.
        assert_json_safe(&r.name);
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"size\": {}, \"gflops\": {:.3}",
            r.name, r.size, r.gflops,
        ));
        if let Some(t) = r.source_threads {
            out.push_str(&format!(", \"source_threads\": {t}"));
        }
        if let Some(o) = &r.ordering {
            assert_json_safe(o);
            out.push_str(&format!(", \"ordering\": \"{o}\""));
        }
        if let Some(c) = &r.config {
            assert_json_safe(c);
            out.push_str(&format!(", \"config\": \"{c}\""));
        }
        if let Some(rev) = &r.git_rev {
            assert_json_safe(rev);
            out.push_str(&format!(", \"git_rev\": \"{rev}\""));
        }
        for (k, v) in &r.metrics {
            assert_json_safe(k);
            out.push_str(&format!(", \"{}\": {}", k, metric_val(*v)));
        }
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing bench artifact {path}: {e}"));
    println!("\nwrote {} records to {path}", records.len());
}

/// `git describe --always --dirty` of the tree the bench was built from
/// (`unknown` outside a checkout).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Median seconds of `f` over `samples` calls after `warm` unmeasured ones:
/// the timing of the per-layer microbenches, whose operations are short
/// enough for a shared host's hiccups to own a mean.
pub fn median_secs(n: (usize, usize), f: impl FnMut()) -> f64 {
    median_secs_with(n, || {}, f)
}

/// [`median_secs`] with an untimed `setup` before every call of `f`, for an
/// operation that consumes its input.
pub fn median_secs_with(
    (warm, samples): (usize, usize),
    mut setup: impl FnMut(),
    mut f: impl FnMut(),
) -> f64 {
    let mut secs = Vec::with_capacity(samples);
    for i in 0..warm + samples {
        setup();
        let t = std::time::Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        if i >= warm {
            secs.push(dt);
        }
    }
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Format a float with sensible precision for tables.
pub fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a ratio as `1.23x`.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "22"]);
        t.row(vec!["333", "4"]);
        t.print("test");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn formats() {
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(56.78), "56.8");
        assert_eq!(f(3.456), "3.46");
        assert_eq!(x(1.449), "1.45x");
    }
}
