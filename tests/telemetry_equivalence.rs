//! Telemetry differential tests: the two proof obligations of the
//! zero-cost telemetry layer.
//!
//! 1. **Determinism across pipeline shapes** — a streaming run and a
//!    materialized run of the same seed produce *bit-identical*
//!    telemetry snapshots: the counters observe the simulation, not
//!    the plumbing the trace arrives through.
//! 2. **Observer effect = 0** — a run with telemetry disabled produces
//!    a `RunStats` bit-identical (telemetry snapshot aside) to one
//!    with telemetry enabled: recording the counters never changes
//!    what the machine does.

use aos_core::experiment::{run, run_metered, SystemUnderTest};
use aos_core::sim::Machine;
use aos_isa::{Op, SafetyConfig};
use aos_util::{Counter, Gauge};
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const PROFILES: [&str; 4] = ["hmmer", "gcc", "mcf", "omnetpp"];
const SCALE: f64 = 0.004;

/// Streaming vs materialized, telemetry on: the full `RunStats`
/// (snapshot included) and the snapshot itself are bit-identical.
#[test]
fn streaming_and_materialized_telemetry_snapshots_are_bit_identical() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);

        let trace: Vec<Op> = TraceGenerator::new(profile, SafetyConfig::Aos, SCALE).collect();
        let materialized = Machine::new(sut.machine_config()).run(trace);
        let streamed = run(profile, &sut);

        assert_eq!(materialized, streamed, "{name}: RunStats diverged");
        assert_eq!(
            materialized.telemetry, streamed.telemetry,
            "{name}: telemetry snapshot diverged"
        );
        assert!(streamed.telemetry.enabled);
        assert!(!streamed.telemetry.is_empty(), "{name}: nothing was counted");

        // The metered campaign path is equally transparent.
        let metered = run_metered(profile, &sut);
        assert_eq!(materialized.telemetry, metered.stats.telemetry, "{name} metered");
    }
}

/// Two runs of the same seed agree counter for counter — the snapshot
/// is a pure function of `(workload, system, scale)`.
#[test]
fn telemetry_snapshots_are_deterministic_across_runs() {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let a = run(profile, &sut).telemetry;
    let b = run(profile, &sut).telemetry;
    assert_eq!(a, b);
    assert_eq!(a.counter(Counter::McqEnqueued), b.counter(Counter::McqEnqueued));
    assert_eq!(a.gauge(Gauge::McqPeakOccupancy), b.gauge(Gauge::McqPeakOccupancy));
}

/// The observer-effect differential: with telemetry off the machine
/// simulates the *exact* same run — every cycle, cache, MCU, BWB and
/// violation statistic matches the telemetry-enabled run once the
/// snapshot itself is projected out.
#[test]
fn disabled_telemetry_has_zero_observer_effect() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        for system in [SafetyConfig::Baseline, SafetyConfig::Aos] {
            let sut = SystemUnderTest::scaled(system, SCALE);
            let disabled = run(profile, &sut.with_telemetry(false));
            let enabled = run(profile, &sut.with_telemetry(true));

            assert_eq!(
                enabled.without_telemetry(),
                disabled,
                "{name}/{system}: telemetry changed the simulation"
            );
            assert!(!disabled.telemetry.enabled);
            assert!(
                disabled.telemetry.is_empty(),
                "{name}/{system}: a disabled handle recorded something"
            );
        }
    }
}

/// The snapshot agrees with the statistics the machine already kept:
/// the two ledgers are independent paths to the same events.
#[test]
fn telemetry_cross_checks_run_stats() {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let stats = run(profile, &sut);
    let t = &stats.telemetry;

    assert_eq!(t.counter(Counter::BwbHits), stats.bwb.hits);
    assert_eq!(t.counter(Counter::BwbMisses), stats.bwb.misses);
    assert_eq!(t.counter(Counter::SimViolations), stats.violations);
    assert_eq!(t.counter(Counter::HbtResizes), stats.hbt_resizes);
    let rate = t.bwb_hit_rate() - stats.bwb.hit_rate();
    assert!(rate.abs() < 1e-12, "hit-rate ledgers diverged by {rate}");
}
