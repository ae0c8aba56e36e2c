//! The paper's Fig. 14 claims, pinned in tier-1 at no simulation cost.
//!
//! `tests/golden/sim_runs.txt` already holds the cycles of every
//! SPEC2006 profile on all five systems at the Fig. 14 campaign scale
//! (0.02); `tests/sim_golden.rs` keeps it in step with the simulator.
//! This test reads it and derives each system's geomean of cycles
//! normalized to Baseline, so regenerating the golden with
//! `AOS_UPDATE_GOLDEN=1` cannot move a paper claim silently: a change
//! that shifts a geomean out of its band fails here and must update
//! the pin below and EXPERIMENTS.md together.

use aos_util::stats::geomean;
use aos_workloads::SPEC2006;

const GOLDEN: &str = "tests/golden/sim_runs.txt";

/// Paper Fig. 14: AOS geomean execution-time overhead over Baseline.
const PAPER_AOS_OVERHEAD_PCT: f64 = 8.4;

/// Each system's scale-0.02 geomean as the golden records it, in the
/// paper's order from cheapest to most expensive.
const PINNED: [(&str, f64); 4] = [
    ("PA", 1.0184),
    ("AOS", 1.0576),
    ("PA+AOS", 1.0636),
    ("Watchdog", 1.1344),
];

/// How far a geomean may drift from its pin.
const BAND: f64 = 0.01;

/// The AOS geomean's distance from the paper's +8.4%, in percentage
/// points — the same figure the benchmark reports as `paper_err_pp`
/// on its fig14-campaign workload.
const AOS_GAP_PP: f64 = 2.643;

/// Cycles of one clean golden run.
fn cycles(golden: &str, workload: &str, system: &str) -> f64 {
    golden
        .lines()
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let matches = fields.next() == Some("clean")
                && fields.next() == Some(workload)
                && fields.next() == Some(system);
            let value = fields.next()?.strip_prefix("cycles=")?;
            matches.then(|| value.parse::<f64>().expect("numeric cycles"))
        })
        .unwrap_or_else(|| panic!("golden lacks a clean {workload} {system} line"))
}

/// Geomean over the 16 SPEC2006 profiles of `system`'s cycles
/// normalized to Baseline.
fn normalized_geomean(golden: &str, system: &str) -> f64 {
    let ratios: Vec<f64> = SPEC2006
        .iter()
        .map(|p| cycles(golden, p.name, system) / cycles(golden, p.name, "Baseline"))
        .collect();
    geomean(&ratios)
}

fn golden() -> String {
    std::fs::read_to_string(GOLDEN).expect("golden file missing; see tests/sim_golden.rs")
}

#[test]
fn fig14_geomeans_keep_the_papers_ordering_within_their_bands() {
    let golden = golden();
    assert_eq!(SPEC2006.len(), 16);
    let mut previous = ("Baseline", 1.0);
    for (system, pinned) in PINNED {
        let measured = normalized_geomean(&golden, system);
        assert!(
            (measured - pinned).abs() <= BAND,
            "{system} geomean {measured:.4} left its band {pinned} ± {BAND}"
        );
        assert!(
            measured > previous.1,
            "Fig. 14 ordering broken: {system} ({measured:.4}) is not above {} ({:.4})",
            previous.0,
            previous.1
        );
        previous = (system, measured);
    }
}

#[test]
fn fig14_aos_overhead_gap_to_the_paper_is_pinned() {
    let overhead_pct = 100.0 * (normalized_geomean(&golden(), "AOS") - 1.0);
    let gap = (overhead_pct - PAPER_AOS_OVERHEAD_PCT).abs();
    assert!(
        (gap - AOS_GAP_PP).abs() < 0.005,
        "AOS overhead {overhead_pct:+.3}% is {gap:.3} pp from the paper's \
         +{PAPER_AOS_OVERHEAD_PCT}%, pinned at {AOS_GAP_PP} pp"
    );
}
