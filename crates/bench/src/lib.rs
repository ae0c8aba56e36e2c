//! Shared plumbing for the reproduction binaries (`src/bin/fig*.rs`,
//! `src/bin/table*.rs`). Simulator performance is measured by the
//! standalone `benchmark/` package, not here.
//!
//! Every table and figure of the paper's evaluation has a dedicated
//! binary that prints the measured reproduction next to the paper's
//! reported values where the paper gives exact numbers. Run them all
//! with full windows:
//!
//! ```text
//! cargo run --release -p aos-bench --bin fig14_exec_time
//! ```
//!
//! Each binary accepts a `--scale <f>` argument (default 1.0) to run a
//! proportionally smaller window for smoke testing.

pub mod reports;

use aos_core::isa::SafetyConfig;
use aos_core::sim::RunStats;
use aos_core::workloads::WorkloadProfile;

/// Parses `--scale <f>` from the process arguments (default 1.0).
///
/// # Examples
///
/// ```
/// // With no --scale argument the default applies.
/// assert_eq!(aos_bench::scale_from_args(std::env::args()), 1.0);
/// ```
pub fn scale_from_args(args: impl Iterator<Item = String>) -> f64 {
    let argv: Vec<String> = args.collect();
    argv.iter()
        .position(|a| a == "--scale")
        .and_then(|i| argv.get(i + 1))
        .and_then(|s| s.parse().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(1.0)
}

/// Runs one (workload, system) pair at the standard optimization
/// settings.
pub fn run_standard(profile: &WorkloadProfile, safety: SafetyConfig, scale: f64) -> RunStats {
    aos_core::experiment::run(
        profile,
        &aos_core::experiment::SystemUnderTest::scaled(safety, scale),
    )
}

/// Formats a ratio column.
pub fn ratio(value: f64) -> String {
    format!("{value:>8.3}")
}

/// Prints a rule line sized to a header.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_from_args(args(&["bin"])), 1.0);
        assert_eq!(scale_from_args(args(&["bin", "--scale", "0.25"])), 0.25);
        assert_eq!(scale_from_args(args(&["bin", "--scale", "oops"])), 1.0);
        assert_eq!(scale_from_args(args(&["bin", "--scale", "7"])), 1.0);
        assert_eq!(scale_from_args(args(&["bin", "--scale"])), 1.0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.0), "   1.000");
    }
}
