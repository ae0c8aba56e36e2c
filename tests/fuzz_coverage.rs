//! The fuzzing coverage contract: every campaign observes a coverage
//! map that is a pure function of the seed, reports it in its JSON,
//! and merging two maps is a monotone union. Chains are drawn
//! uniformly; coverage never steers them.

use aos_fuzz::{run_fuzz, FuzzConfig};
use aos_util::{Counter, Telemetry};

const WORKLOAD: &str = "hmmer";
const SCALE: f64 = 0.004;

fn config(seed: u64, budget: usize) -> FuzzConfig {
    FuzzConfig {
        workload: WORKLOAD.to_string(),
        scale: SCALE,
        seed,
        budget,
        max_chain: 3,
        ..FuzzConfig::default()
    }
}

/// Same seed, same budget: two runs produce the identical report —
/// digest, JSON and coverage fingerprint — while a different seed
/// draws a different campaign.
#[test]
fn campaigns_are_seed_deterministic() {
    let telemetry = Telemetry::disabled();
    let a = run_fuzz(&config(5, 6), &telemetry).expect("fuzz");
    let b = run_fuzz(&config(5, 6), &telemetry).expect("fuzz");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.coverage.fingerprint(), b.coverage.fingerprint());
    assert_eq!(a.to_json(), b.to_json());
    let other = run_fuzz(&config(6, 6), &telemetry).expect("fuzz");
    assert_ne!(a.digest(), other.digest(), "seed must steer the campaign");
}

/// Coverage is observed (and ledgered) without steering: a uniform run
/// reports a non-empty map covering every step it drew, its JSON
/// carries the coverage block, and the `fuzz_coverage_points` counter
/// equals the map size on a single-campaign telemetry ledger.
#[test]
fn uniform_runs_observe_coverage_without_being_steered_by_it() {
    let telemetry = Telemetry::enabled();
    let report = run_fuzz(&config(5, 6), &telemetry).expect("fuzz");
    assert!(!report.coverage.is_empty());
    for step in report.outcomes.iter().flat_map(|o| &o.steps) {
        assert!(report.coverage.covers(&format!("step:{step}")));
    }
    assert_eq!(
        telemetry.snapshot().counter(Counter::FuzzCoveragePoints),
        report.coverage.len() as u64
    );
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"aos-fuzz-report/v2\""));
    assert!(json.contains(&format!(
        "\"coverage\": {{\"points\": {}, \"fingerprint\": \"{:016x}\"}}",
        report.coverage.len(),
        report.coverage.fingerprint()
    )));
}

#[test]
fn coverage_merge_is_a_monotone_order_free_union() {
    let telemetry = Telemetry::disabled();
    let a = run_fuzz(&config(1, 4), &telemetry).expect("fuzz");
    let b = run_fuzz(&config(2, 4), &telemetry).expect("fuzz");

    let mut ab = a.coverage.clone();
    let fresh = ab.merge(&b.coverage);
    assert!(ab.len() >= a.coverage.len().max(b.coverage.len()));
    assert_eq!(ab.len(), a.coverage.len() + fresh);

    let mut ba = b.coverage.clone();
    ba.merge(&a.coverage);
    assert_eq!(ab.fingerprint(), ba.fingerprint(), "union is order-free");

    let mut again = ab.clone();
    assert_eq!(again.merge(&a.coverage), 0, "idempotent re-merge");
    assert_eq!(again.fingerprint(), ab.fingerprint());
}
