//! Absolute golden of the timing loop. Every SPEC2006 profile runs
//! clean on all five systems, and the cycles, retired ops and
//! committed-op mix of each run must match the checked-in
//! `tests/golden/sim_runs.txt` exactly. Each pinned fault kind, seeded
//! into hmmer, must raise one AOS exception on AOS, charged as one
//! pipeline flush, and none on the Baseline.
//!
//! The golden was recorded from the cycle-approximate loop when it
//! still ran beside a stage-structured core. The two agreed on every
//! line but gcc on PA, AOS and PA+AOS, where the stage core's
//! store-load replays cost it one extra cycle. An intentional timing
//! change regenerates the golden with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test sim_golden
//! ```

use aos_core::experiment::{run, SystemUnderTest};
use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::SafetyConfig;
use aos_ptrauth::PointerLayout;
use aos_sim::{Machine, RunStats};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, SPEC2006};

const GOLDEN: &str = "tests/golden/sim_runs.txt";

/// The Fig. 14 campaign scale.
const SCALE: f64 = 0.02;

/// One golden line per clean run.
fn clean_line(workload: &str, system: SafetyConfig, s: &RunStats) -> String {
    let m = &s.mix;
    format!(
        "clean {workload} {system} cycles={} retired={} mix={},{},{},{},{},{},{}",
        s.cycles,
        s.retired_ops,
        m.total,
        m.unsigned_loads,
        m.unsigned_stores,
        m.signed_loads,
        m.signed_stores,
        m.bnd_ops,
        m.pac_ops,
    )
}

/// Runs hmmer with one seeded fault of `kind` on `system`.
fn faulted(kind: FaultKind, system: SafetyConfig) -> RunStats {
    let profile = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let plan = plan_fault(
        stream(),
        PointerLayout::default(),
        FaultSpec { kind, seed: 1 },
    )
    .expect("fault plans against the instrumented trace");
    Machine::new(SystemUnderTest::scaled(system, SCALE).machine_config()).run(plan.apply(stream()))
}

#[test]
fn clean_runs_match_the_golden() {
    let mut text = String::new();
    for profile in SPEC2006 {
        for system in SafetyConfig::ALL {
            let stats = run(profile, &SystemUnderTest::scaled(system, SCALE));
            assert_eq!(
                stats.violations, 0,
                "{} on {system}: benign trace flagged",
                profile.name
            );
            assert_eq!(
                stats.flushes, 0,
                "{} on {system}: flush without a fault",
                profile.name
            );
            text.push_str(&clean_line(profile.name, system, &stats));
            text.push('\n');
        }
    }

    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a clean run drifted from the golden");
    }
    assert_eq!(text, golden, "the golden's line set changed");
}

/// One seeded fault raises exactly one AOS exception on AOS — the
/// count the golden run recorded — and each raised exception costs one
/// flush. The Baseline has no checks to trip.
#[test]
fn faulted_runs_raise_one_flushed_exception_on_aos_only() {
    for kind in FaultKind::ALL {
        let aos = faulted(kind, SafetyConfig::Aos);
        assert_eq!(aos.violations, 1, "{kind}: AOS must detect the fault once");
        assert_eq!(
            aos.flushes, aos.violations,
            "{kind}: one flush per raised exception"
        );
        let baseline = faulted(kind, SafetyConfig::Baseline);
        assert_eq!(
            baseline.violations, 0,
            "{kind}: the Baseline has no checks to trip"
        );
        assert_eq!(baseline.flushes, 0, "{kind}: the Baseline never flushes");
    }
}
