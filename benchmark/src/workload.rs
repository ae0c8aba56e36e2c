//! The three workloads: their inputs, one untraced iteration, the
//! correctness checks on its outputs and the model-accuracy figure.

use std::time::Instant;

use aos_core::experiment::campaign::{
    matrix, run_campaign, CampaignCell, CampaignOptions, CampaignReport,
};
use aos_core::experiment::SystemUnderTest;
use aos_fault::{run_fault_campaign, FaultCampaignConfig, FaultCampaignOutcome};
use aos_isa::SafetyConfig;
use aos_lint::Policy;
use aos_sim::{Machine, RunStats};
use aos_workloads::{profile, TraceGenerator, WorkloadProfile, SPEC2006};

use crate::report::Checks;

/// Window scale of the Fig. 14 matrix.
pub const FIG14_SCALE: f64 = 0.02;
/// Window scale of the resize workload: resize counts are only
/// meaningful at full scale.
pub const RESIZE_SCALE: f64 = 1.0;
/// Window scale of the fault sweep.
pub const FAULT_SCALE: f64 = 0.04;
/// Fault seeds per fault kind.
pub const FAULT_SEEDS: u64 = 3;

/// Paper Fig. 14: AOS geomean execution-time overhead over Baseline.
const PAPER_AOS_OVERHEAD_PCT: f64 = 8.4;
/// Paper Fig. 17: omnetpp, the highest HBT accesses per check.
const PAPER_OMNETPP_ACCESSES_PER_CHECK: f64 = 1.17;
/// Paper Fig. 16: hmmer's signed share of memory accesses (">99%").
const PAPER_HMMER_SIGNED_PCT: f64 = 99.0;

/// §IX-A1: the gradual resizes each benchmark triggers at full scale,
/// and the associativity it ends at.
const EXPECTED_RESIZES: [(&str, u64, u32); 2] = [("omnetpp", 2, 4), ("sphinx3", 1, 2)];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 16 SPEC2006 profiles × the five systems through the
    /// campaign runner.
    Fig14Campaign,
    /// omnetpp and sphinx3 on AOS at full scale: the only input whose
    /// HBT resizes.
    HbtResize,
    /// The fault-injection sweep with all four lint policies.
    FaultLintSweep,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig14Campaign,
        Workload::HbtResize,
        Workload::FaultLintSweep,
    ];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig14Campaign => "fig14-campaign",
            Workload::HbtResize => "hbt-resize",
            Workload::FaultLintSweep => "fault-lint-sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a workload runs, built before the timed section.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Campaign cells. For the fault sweep: its clean reference cells
    /// (hmmer on AOS and Baseline), which the traced run replays.
    pub cells: Vec<CampaignCell>,
    /// The fault sweep's configuration.
    pub fault: Option<FaultCampaignConfig>,
}

fn by_name(name: &str) -> WorkloadProfile {
    *profile::by_name(name).expect("profile is part of SPEC2006")
}

/// The fault seeds a benchmark seed selects.
fn fault_seeds(seed: u64) -> Vec<u64> {
    (1..=FAULT_SEEDS)
        .map(|i| seed.wrapping_mul(FAULT_SEEDS).wrapping_add(i))
        .collect()
}

/// Builds a workload's inputs. The SPEC traces are seeded from the
/// profile name inside the generator, so only the fault sweep uses
/// `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let scaled = |systems: &[SafetyConfig], scale: f64| {
        systems
            .iter()
            .map(|&s| SystemUnderTest::scaled(s, scale))
            .collect::<Vec<_>>()
    };
    match workload {
        Workload::Fig14Campaign => Inputs {
            cells: matrix(
                SPEC2006.iter().copied(),
                scaled(&SafetyConfig::ALL, FIG14_SCALE),
            ),
            fault: None,
        },
        Workload::HbtResize => Inputs {
            cells: matrix(
                EXPECTED_RESIZES.map(|(name, _, _)| by_name(name)),
                scaled(&[SafetyConfig::Aos], RESIZE_SCALE),
            ),
            fault: None,
        },
        Workload::FaultLintSweep => {
            let hmmer = by_name("hmmer");
            let config = FaultCampaignConfig {
                options: CampaignOptions::with_threads(1),
                policies: Policy::ALL.to_vec(),
                ..FaultCampaignConfig::standard(hmmer, FAULT_SCALE, fault_seeds(seed))
            };
            Inputs {
                cells: matrix([hmmer], scaled(&config.systems, FAULT_SCALE)),
                fault: Some(config),
            }
        }
    }
}

/// Builds every machine and trace generator an iteration will build,
/// and drops them unused: the per-cell construction cost a run pays
/// before its first simulated op. Returns how many were built.
pub fn instantiate(inputs: &Inputs) -> usize {
    let mut built = 0;
    let mut build = |profile: &WorkloadProfile, stream: SafetyConfig, sut: &SystemUnderTest| {
        let gen = TraceGenerator::new(profile, stream, sut.scale);
        let machine = Machine::new(sut.machine_config());
        std::hint::black_box((&gen, &machine));
        built += 1;
    };
    match &inputs.fault {
        None => {
            for cell in &inputs.cells {
                build(&cell.profile, cell.sut.safety, &cell.sut);
            }
        }
        Some(config) => {
            // Clean references, then one replay per (kind, seed,
            // system); every stream is AOS-instrumented.
            let trials = config.kinds.len() * config.seeds.len();
            for cell in inputs
                .cells
                .iter()
                .chain(std::iter::repeat_n(&inputs.cells, trials).flatten())
            {
                build(&cell.profile, SafetyConfig::Aos, &cell.sut);
            }
        }
    }
    built
}

/// What one untraced iteration ran.
#[derive(Debug)]
pub enum Outcome {
    /// A campaign workload's report.
    Campaign(CampaignReport),
    /// The fault sweep's verdicts and annotated report.
    Fault(FaultCampaignOutcome),
}

/// What one untraced iteration produced.
#[derive(Debug)]
pub struct Iteration {
    /// Host seconds for the iteration.
    pub wall_s: f64,
    /// The campaign or sweep result.
    pub outcome: Outcome,
}

impl Iteration {
    /// The campaign report (the fault sweep's annotated one).
    pub fn report(&self) -> &CampaignReport {
        match &self.outcome {
            Outcome::Campaign(report) => report,
            Outcome::Fault(outcome) => &outcome.report,
        }
    }

    /// Simulated cycles across the iteration's cells.
    pub fn cycles(&self) -> u64 {
        self.report().total_sim_cycles()
    }

    /// Each completed cell's statistics, in cell order.
    pub fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.report().results.iter().filter_map(|r| r.stats())
    }
}

/// Runs the workload once through the public entry points its users
/// call: the campaign runner (or the fault sweep), then the report
/// JSON.
pub fn run_iteration(inputs: &Inputs) -> Iteration {
    let start = Instant::now();
    let outcome = match &inputs.fault {
        None => Outcome::Campaign(run_campaign(
            &inputs.cells,
            &CampaignOptions::with_threads(1),
        )),
        Some(config) => {
            Outcome::Fault(run_fault_campaign(config).expect("the sweep grid is non-empty"))
        }
    };
    let mut it = Iteration {
        wall_s: 0.0,
        outcome,
    };
    std::hint::black_box(it.report().to_json());
    it.wall_s = start.elapsed().as_secs_f64();
    it
}

/// The correctness checks on one iteration's outputs.
pub fn check_iteration(workload: Workload, it: &Iteration, checks: &mut Checks) {
    let report = it.report();
    let bad = report.failed() + report.degraded();
    checks.cells(report.results.len() as u64, bad as u64);
    for r in report
        .results
        .iter()
        .filter(|r| r.is_failed() || r.is_degraded())
    {
        println!(
            "cell {} {}: {}",
            r.cell.label(),
            r.status(),
            r.error().unwrap_or("")
        );
    }
    match &it.outcome {
        Outcome::Campaign(_) => {
            for r in &report.results {
                if let Some(s) = r.stats() {
                    checks.check(
                        &format!("{} clean", r.cell.label()),
                        s.violations == 0,
                        format!("{} violations on a clean trace", s.violations),
                    );
                }
            }
        }
        Outcome::Fault(outcome) => check_fault_outcome(outcome, checks),
    }
    if workload == Workload::HbtResize {
        for (name, resizes, ways) in EXPECTED_RESIZES {
            let stats = report
                .results
                .iter()
                .find(|r| r.cell.profile.name == name)
                .and_then(|r| r.stats());
            checks.check(
                &format!("{name} resizes"),
                stats.is_some_and(|s| s.hbt_resizes == resizes && s.hbt_ways == ways),
                format!(
                    "expected {resizes} resizes ending at {ways} ways, got {:?}",
                    stats.map(|s| (s.hbt_resizes, s.hbt_ways))
                ),
            );
        }
    }
}

/// The fault sweep's gate: every AOS trial detected, no false
/// positives, every policy on its pinned static/dynamic split.
pub fn check_fault_outcome(outcome: &FaultCampaignOutcome, checks: &mut Checks) {
    let m = &outcome.matrix;
    checks.check(
        "fault detection",
        m.detection_rate() == 1.0,
        format!("AOS detection rate {}", m.detection_rate()),
    );
    checks.check(
        "fault false positives",
        m.false_positives() == 0,
        format!("{} false positives", m.false_positives()),
    );
    checks.check(
        "fault trials",
        m.trials.len() == outcome.report.results.len(),
        format!(
            "{} verdicts for {} cells",
            m.trials.len(),
            outcome.report.results.len()
        ),
    );
    for p in &outcome.policies {
        checks.check(
            &format!("lint policy {}", p.policy.name()),
            p.matches_pinned_split(),
            p.to_json_value(),
        );
    }
}

/// The model's distance from the paper on this workload, in
/// percentage points, with the reference it is measured against.
pub fn paper_err_pp(workload: Workload, it: &Iteration) -> (f64, String) {
    let results = &it.report().results;
    match workload {
        Workload::Fig14Campaign => {
            let cycles = |name: &str, system: SafetyConfig| {
                results
                    .iter()
                    .find(|r| r.cell.profile.name == name && r.cell.sut.safety == system)
                    .and_then(|r| r.stats())
                    .map_or(0.0, |s| s.cycles as f64)
            };
            let log_sum: f64 = SPEC2006
                .iter()
                .map(|p| {
                    (cycles(p.name, SafetyConfig::Aos) / cycles(p.name, SafetyConfig::Baseline))
                        .ln()
                })
                .sum();
            let overhead = 100.0 * ((log_sum / SPEC2006.len() as f64).exp() - 1.0);
            (
                (overhead - PAPER_AOS_OVERHEAD_PCT).abs(),
                format!(
                    "Fig. 14 AOS geomean overhead {overhead:+.3}% vs paper \
                     {PAPER_AOS_OVERHEAD_PCT:+}% at scale {FIG14_SCALE}"
                ),
            )
        }
        Workload::HbtResize => {
            let per_check = results
                .iter()
                .find(|r| r.cell.profile.name == "omnetpp")
                .and_then(|r| r.stats())
                .map_or(0.0, |s| s.mcu.accesses_per_check());
            (
                100.0 * (per_check - PAPER_OMNETPP_ACCESSES_PER_CHECK).abs(),
                format!(
                    "Fig. 17 omnetpp HBT accesses/check {per_check:.4} vs paper \
                     {PAPER_OMNETPP_ACCESSES_PER_CHECK} at scale {RESIZE_SCALE}"
                ),
            )
        }
        Workload::FaultLintSweep => {
            let (mut signed, mut accesses) = (0u64, 0u64);
            for r in results.iter().filter(|r| r.cell.sut.safety.uses_aos()) {
                if let Some(s) = r.stats() {
                    signed += s.mix.signed_loads + s.mix.signed_stores;
                    accesses += s.mix.signed_loads
                        + s.mix.signed_stores
                        + s.mix.unsigned_loads
                        + s.mix.unsigned_stores;
                }
            }
            let pct = 100.0 * signed as f64 / accesses.max(1) as f64;
            (
                (pct - PAPER_HMMER_SIGNED_PCT).abs(),
                format!(
                    "Fig. 16 hmmer signed accesses {pct:.3}% on the AOS replays vs paper \
                     >{PAPER_HMMER_SIGNED_PCT}% at scale {FAULT_SCALE}"
                ),
            )
        }
    }
}
