//! The paper's Fig. 14, §IX-A1 and Fig. 17 claims, pinned in tier-1 at
//! no simulation cost.
//!
//! `tests/golden/sim_runs.txt` already holds the cycles of every
//! SPEC2006 profile on all five systems at the Fig. 14 campaign scale
//! (0.02); `tests/sim_golden.rs` keeps it in step with the simulator.
//! This test reads it and derives each system's geomean of cycles
//! normalized to Baseline, so regenerating the golden with
//! `AOS_UPDATE_GOLDEN=1` cannot move a paper claim silently: a change
//! that shifts a geomean out of its band fails here and must update
//! the pin below and EXPERIMENTS.md together.
//!
//! The scale-1.0 claims (HBT resizes, final ways, accesses per check
//! and the full-window geomeans) are read from `results/fig14_exec_time.txt`
//! and `results/fig17_bwb.txt` instead of simulated: one AOS run of
//! omnetpp at scale 1.0 takes seconds even in release. CI's
//! `results-drift` job regenerates both files with `aos fig 14` and
//! `aos fig 17` and fails on any byte of difference, so the files are
//! the code's own output.

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

/// Reads one committed `results/*.txt` figure.
fn results(name: &str) -> String {
    std::fs::read_to_string(format!("results/{name}.txt"))
        .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"))
}

/// Field `column` (0 = the name) of the row whose first field is
/// `name`, parsed; a trailing `%` is dropped.
fn field<T: std::str::FromStr>(figure: &str, name: &str, column: usize) -> T {
    let raw = figure
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|fields| fields.first() == Some(&name))
        .unwrap_or_else(|| panic!("no {name} row"))[column]
        .trim_end_matches('%');
    raw.parse()
        .unwrap_or_else(|_| panic!("{name} column {column}: '{raw}' is not a number"))
}

#[test]
fn hbt_resizes_at_full_scale_match_section_ix_a1() {
    let fig14 = results("fig14_exec_time");
    assert!(
        fig14.contains("(scale 1)"),
        "fig14 must be the scale-1.0 run"
    );
    // §IX-A1: omnetpp resizes its HBT twice, sphinx3 once, and no
    // other SPEC2006 workload outgrows the initial table. `resz` is
    // the sixth field of each row.
    for p in SPEC2006 {
        let expected = match p.name {
            "omnetpp" => 2,
            "sphinx3" => 1,
            _ => 0,
        };
        assert_eq!(
            field::<u32>(&fig14, p.name, 5),
            expected,
            "{} resizes",
            p.name
        );
    }
}

#[test]
fn full_scale_geomeans_keep_the_papers_ordering() {
    let fig14 = results("fig14_exec_time");
    // Geomean columns: Watchdog, PA, AOS, PA+AOS.
    let geomean = |column: usize| field::<f64>(&fig14, "Geomean", column);
    let (watchdog, pa, aos, pa_aos) = (geomean(1), geomean(2), geomean(3), geomean(4));
    assert_eq!([pa, aos, pa_aos, watchdog], [1.032, 1.097, 1.109, 1.287]);
    assert!(1.0 < pa && pa < aos && aos < pa_aos && pa_aos < watchdog);
}

#[test]
fn fig17_ways_and_accesses_per_check_at_full_scale() {
    let fig17 = results("fig17_bwb");
    assert!(
        fig17.contains("(scale 1)"),
        "fig17 must be the scale-1.0 run"
    );
    // Each resize doubles the ways: omnetpp (2 resizes) ends at 4,
    // sphinx3 (1) at 2, the rest keep the initial single way.
    let mut highest = ("", 0.0);
    for p in SPEC2006 {
        let expected_ways = match p.name {
            "omnetpp" => 4,
            "sphinx3" => 2,
            _ => 1,
        };
        assert_eq!(
            field::<u32>(&fig17, p.name, 3),
            expected_ways,
            "{} ways",
            p.name
        );
        let accesses: f64 = field(&fig17, p.name, 1);
        if accesses > highest.1 {
            highest = (p.name, accesses);
        }
    }
    // Fig. 17: omnetpp needs the most bounds-table accesses per check.
    // The paper gives 1.17; the model gives 1.056.
    assert_eq!(highest.0, "omnetpp");
    assert!(
        (highest.1 - 1.056).abs() <= 0.01,
        "omnetpp #Acc/check {} left its band 1.056 ± 0.01",
        highest.1
    );
}
