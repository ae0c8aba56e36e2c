//! Output helpers: correctness bookkeeping, metric lines, the final
//! JSON object, the simulated-statistics digest and host facts.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};

use aos_sim::RunStats;

/// Correctness checks and operation counts feeding `fail_share`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Cells run plus checks evaluated.
    pub attempted: u64,
    /// Failed or degraded cells plus failed checks.
    pub failed: u64,
}

impl Checks {
    /// Evaluates one check; a failure is printed at once.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check FAILED {name}: {detail}");
        }
    }

    /// Counts campaign cells: `bad` of `cells` failed or degraded.
    pub fn cells(&mut self, cells: u64, bad: u64) {
        self.attempted += cells;
        self.failed += bad;
    }

    /// Failed ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Metrics in the order they are reported.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric and prints it as a `metric` line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name:<26} {value:>16.6} {unit}");
        self.0.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn result_json(&self, checks: &Checks) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Digest of every simulated statistic: each cell's `RunStats` Debug
/// rendering hashed in cell order with the standard library's default
/// hasher (fixed keys, so equal across processes built by the same
/// toolchain).
pub fn digest<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for s in stats {
        format!("{s:?}").hash(&mut hasher);
    }
    hasher.finish()
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num ÷ den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Prints the facts a performance claim must carry: core count,
/// compiler, source revision, reps and warmup.
pub fn print_host_facts(reps: usize, warmup: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host nproc {nproc}");
    println!("host rustc {}", env!("BENCH_RUSTC_VERSION"));
    println!("host commit {}", git_commit());
    println!("host reps {reps} warmup {warmup}");
}

/// The checked-out commit, read from `.git` beside the benchmark; a
/// source tree without git metadata reports it as absent.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "absent (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("absent (unresolved {reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn result_json_shape() {
        let mut m = Metrics::default();
        m.push("a_s", 1.5, "s");
        let checks = Checks {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            m.result_json(&checks),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
