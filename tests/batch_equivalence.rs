//! Equivalence of the cell bodies that stay: the campaign's per-op
//! cell ([`run_metered`]), the double-buffered overlap runner the
//! benchmark still measures ([`run_overlapped_threaded`]), and the
//! multi-lane QARMA kernel behind Fig. 11. Each must be *bit-identical*
//! to its per-op counterpart: same `RunStats` (telemetry included),
//! same metering, same cipher output.

use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
use aos_core::experiment::overlap::run_overlapped_threaded;
use aos_core::experiment::{run_metered, SystemUnderTest};
use aos_isa::SafetyConfig;
use aos_qarma::{PacKey, Qarma64};
use aos_workloads::profile::by_name;
use proptest::prelude::*;

const SCALE: f64 = 0.004;

/// All five systems on hmmer, and AOS on gcc, mcf and omnetpp: the
/// threaded overlap runner produces the per-op cell's stats, telemetry
/// and op count exactly.
#[test]
fn batched_runs_are_bit_identical_across_all_five_systems() {
    let cells = SafetyConfig::ALL
        .map(|system| ("hmmer", system))
        .into_iter()
        .chain(["gcc", "mcf", "omnetpp"].map(|name| (name, SafetyConfig::Aos)));
    for (name, system) in cells {
        let profile = by_name(name).unwrap();
        let sut = SystemUnderTest::scaled(system, SCALE).with_telemetry(true);
        let per_op = run_metered(profile, &sut);
        let overlapped = run_overlapped_threaded(profile, &sut);
        assert_eq!(overlapped.trace_ops, per_op.trace_ops, "{name}/{system}");
        assert_eq!(
            overlapped.stats, per_op.stats,
            "{name}/{system}: the overlap runner changed the simulation"
        );
    }
}

/// Every campaign cell is exactly `run_metered` on that cell: same
/// stats, same op count, same peak buffered trace.
#[test]
fn campaign_cells_equal_run_metered() {
    let cells = matrix(
        ["hmmer", "mcf"].map(|n| *by_name(n).unwrap()),
        SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, SCALE).with_telemetry(true)),
    );
    let report = run_campaign(&cells, &CampaignOptions::with_threads(2));
    assert_eq!(report.failed(), 0);
    for (cell, result) in cells.iter().zip(&report.results) {
        let reference = run_metered(&cell.profile, &cell.sut);
        let label = cell.label();
        assert_eq!(result.stats(), Some(&reference.stats), "{label}");
        assert_eq!(result.trace_ops(), reference.trace_ops, "{label}");
        assert_eq!(
            result.peak_trace_bytes(),
            reference.peak_trace_bytes,
            "{label}"
        );
    }
}

proptest! {
    /// The multi-lane cipher kernel matches the scalar path for any
    /// data/modifier mix — uniform modifiers (the batched fast path),
    /// mixed modifiers (the fallback), and every partial-lane tail.
    #[test]
    fn compute_batch_matches_compute(
        key in (any::<u64>(), any::<u64>()),
        data in proptest::collection::vec(any::<u64>(), 0..40),
        uniform in any::<bool>(),
        modifier_seed in any::<u64>(),
    ) {
        let q = Qarma64::new(PacKey::new(key.0, key.1));
        let modifiers: Vec<u64> = (0..data.len() as u64)
            .map(|i| if uniform { modifier_seed } else { modifier_seed.wrapping_add(i * 0x9e37) })
            .collect();
        let mut out = vec![0u64; data.len()];
        q.compute_batch(&data, &modifiers, &mut out);
        for i in 0..data.len() {
            prop_assert_eq!(out[i], q.compute(data[i], modifiers[i]));
        }
    }
}
