//! Batched-vs-per-op equivalence: the proof obligation of the batched
//! hot path. Every batch-granular shape — the in-thread [`Batched`]
//! driver, the double-buffered overlap runner, the batched fault
//! planner, the multi-lane QARMA kernel — must be *bit-identical* to
//! its per-op counterpart: same `RunStats` on all five systems, same
//! telemetry up to the two batch counters only the batched path can
//! increment, same fault plans and verdicts, same lint findings, same
//! cipher output.
//!
//! [`Batched`]: aos_isa::stream::Batched

use aos_core::experiment::overlap::{run_overlapped, run_overlapped_threaded};
use aos_core::experiment::{run_metered, SystemUnderTest};
use aos_core::sim::Machine;
use aos_fault::{plan_fault, plan_fault_batched, FaultKind, FaultSpec};
use aos_isa::stream::{Batched, DEFAULT_BATCH_OPS};
use aos_isa::{Op, SafetyConfig};
use aos_lint::lint_stream;
use aos_ptrauth::PointerLayout;
use aos_qarma::{PacKey, Qarma64};
use aos_util::Counter;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;
use proptest::prelude::*;

const SCALE: f64 = 0.004;

/// The two counters that legitimately differ between shapes: the
/// per-op path never refills a batch, so they stay zero there.
const BATCH_COUNTERS: [Counter; 2] = [Counter::BatchOpsRefilled, Counter::BatchFallbackOps];

/// All five systems on hmmer, and AOS on gcc, mcf and omnetpp:
/// per-op metered, in-thread batched (via the adaptive runner on a
/// single-core host it is exactly that shape), and forced threaded
/// overlap all produce bit-identical stats and telemetry, and the
/// batched paths prove they ran batch-native.
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
        for (shape, batched) in [
            ("adaptive", run_overlapped(profile, &sut)),
            ("threaded", run_overlapped_threaded(profile, &sut)),
        ] {
            assert_eq!(
                batched.trace_ops, per_op.trace_ops,
                "{name}/{system}/{shape}"
            );
            assert_eq!(
                batched.stats.without_telemetry(),
                per_op.stats.without_telemetry(),
                "{name}/{system}/{shape}: batching changed the simulation"
            );
            assert_eq!(
                batched
                    .stats
                    .telemetry
                    .with_counters_zeroed(&BATCH_COUNTERS),
                per_op.stats.telemetry.with_counters_zeroed(&BATCH_COUNTERS),
                "{name}/{system}/{shape}: batching changed the telemetry"
            );
            assert_eq!(
                batched.stats.telemetry.counter(Counter::BatchOpsRefilled),
                batched.trace_ops,
                "{name}/{system}/{shape}: every op must arrive through a refill"
            );
            assert_eq!(
                batched.stats.telemetry.counter(Counter::BatchFallbackOps),
                0,
                "{name}/{system}/{shape}: the generator is batch-native"
            );
            assert_eq!(
                per_op.stats.telemetry.counter(Counter::BatchOpsRefilled),
                0,
                "the per-op reference must not have batched"
            );
        }
    }
}

/// The batched fault planner produces the same plan as the per-op
/// planner for every fault kind, and applying it yields the same
/// violations whether the faulted stream is simulated per op or
/// through the batched driver.
#[test]
fn fault_plans_and_verdicts_survive_batching() {
    let profile = by_name("hmmer").unwrap();
    let layout = PointerLayout::default();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    for kind in FaultKind::ALL {
        for seed in [1u64, 7] {
            let spec = FaultSpec { kind, seed };
            let per_op = plan_fault(stream(), layout, spec).unwrap();
            let batched = plan_fault_batched(stream(), layout, spec).unwrap();
            assert_eq!(per_op, batched, "{kind} seed {seed}: plans diverged");

            for system in [SafetyConfig::Baseline, SafetyConfig::Aos] {
                let sut = SystemUnderTest::scaled(system, SCALE);
                let faulted: Vec<Op> = batched.apply(stream()).collect();
                let per_op_run =
                    Machine::new(sut.machine_config()).run(faulted.iter().copied());
                let batched_run = Machine::new(sut.machine_config())
                    .run_batched(batched.apply(stream()));
                assert_eq!(
                    per_op_run, batched_run,
                    "{kind} seed {seed} on {system}: verdicts diverged"
                );
            }
        }
    }
}

/// Lint findings are identical whether the linted stream arrives per
/// op or through the batched driver.
#[test]
fn lint_findings_survive_batching() {
    let layout = PointerLayout::default();
    for name in ["hmmer", "mcf"] {
        let profile = by_name(name).unwrap();
        let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
        let per_op = lint_stream(stream(), layout);
        let batched = lint_stream(Batched::new(stream(), DEFAULT_BATCH_OPS), layout);
        assert_eq!(per_op, batched, "{name}: lint findings diverged");
    }
}

/// A faulted stream linted through the batched driver raises the same
/// findings as the per-op path — batch boundaries never mask a
/// spliced-in protocol violation.
#[test]
fn faulted_lint_findings_survive_batching() {
    let profile = by_name("hmmer").unwrap();
    let layout = PointerLayout::default();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let spec = FaultSpec {
        kind: FaultKind::UseAfterFree,
        seed: 3,
    };
    let plan = plan_fault_batched(stream(), layout, spec).unwrap();
    let per_op = lint_stream(plan.apply(stream()), layout);
    let batched = lint_stream(Batched::new(plan.apply(stream()), DEFAULT_BATCH_OPS), layout);
    assert_eq!(per_op, batched);
    assert!(
        per_op.total_diagnostics() > 0,
        "a UAF splice must lint dirty for the comparison to bite"
    );
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
