//! The traced run: per-layer time and counts.
//!
//! The run first executes the workload through the same public entry
//! points as the timed run (the `ref.*` spans: opaque, untraced
//! references). It then repeats the work call by call from the
//! benchmark's own code, with a span around each public call:
//!
//! - `sim.run`: one cell on a fresh [`Machine`], the trace pulled
//!   through [`TracedGen`] so generator refills are child spans;
//! - `mcu.replay`: a functional replay of an AOS cell's loads, stores,
//!   `bndstr` and `bndclr` through [`MemoryCheckUnit::run_sync`] and a
//!   [`HashedBoundsTable`] (`mcu.check` per chunk, `hbt.resize` per
//!   resize, handled exactly as `AosProcess::malloc` handles it);
//! - `fault.plan`, `lint.scan`: `plan_fault_batched` and
//!   `MatrixScan::run` over traced streams (fault sweep only);
//! - `core.report`: `CampaignReport::to_json`;
//! - `isa.transport`: a pre-collected trace drained through
//!   `Batched`/`OpBatch` and through a plain slice.
//!
//! Every traced result is checked against its reference.

use std::hint::black_box;
use std::time::Instant;

use aos_core::experiment::campaign::{CampaignCell, CampaignReport};
use aos_core::experiment::overlap::run_overlapped_threaded;
use aos_core::experiment::{run_metered, SystemUnderTest};
use aos_fault::{plan_fault_batched, FaultCampaignConfig, FaultPlan, FaultSpec};
use aos_hbt::HashedBoundsTable;
use aos_isa::stream::{BatchSource, Batched, OpBatch, DEFAULT_BATCH_OPS};
use aos_isa::{Op, SafetyConfig};
use aos_lint::{MatrixScan, Policy};
use aos_mcu::{AosException, McuOp, MemoryCheckUnit};
use aos_sim::{Machine, RunStats};
use aos_util::{Counter, Telemetry, TelemetrySnapshot};
use aos_workloads::TraceGenerator;

use crate::report::{digest, median, ratio, Checks, Metrics};
use crate::spans::{OpCounts, TracedGen, Tracer, GEN};
use crate::workload::{check_fault_outcome, run_iteration, Inputs, Outcome};

/// Ops replayed through the MCU per `mcu.check` span.
const REPLAY_CHUNK_OPS: usize = 4096;
/// Ops pre-collected for the transport measurement.
const TRANSPORT_OPS: usize = 200_000;
/// Drains per transport measurement; the median is reported.
const TRANSPORT_REPS: usize = 7;

/// Telemetry counters the simulated machine never feeds: reported as
/// absent, with the benchmark's own count beside them.
const ABSENT_COUNTERS: [Counter; 3] = [
    Counter::HbtLookups,
    Counter::PacComputations,
    Counter::HeapAllocs,
];

/// Results of the traced passes, gathered for the metrics.
#[derive(Default)]
struct Totals {
    /// Statistics of every traced `sim.run`, telemetry on.
    sim: Vec<RunStats>,
    /// MCQ enqueues on AOS cells whose input stream the benchmark
    /// counted itself: (telemetry, outside count).
    mcq_enqueued: (u64, u64),
    replay: Replay,
    plans: u64,
    ops_scanned: u64,
    detected_share: f64,
    overlap_speedup: f64,
    runner_s: f64,
    /// Traced wall ÷ untraced wall of the same work.
    overhead: f64,
    transport_ns_per_op: f64,
}

/// Functional replay outcome, summed over cells.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    /// `run_sync` calls: loads, stores, `bndstr` and `bndclr`.
    mcu_ops: u64,
    /// Accesses that carried a signed pointer and were checked.
    signed_checks: u64,
    /// HBT way lines probed by checks.
    way_probes: u64,
    /// `bndstr` retried after a `BoundsStoreFailure`.
    store_retries: u64,
    resizes: u64,
    /// Largest final associativity.
    ways: u32,
    /// Exceptions other than a resizable store failure.
    exceptions: u64,
}

impl Replay {
    fn absorb(&mut self, r: Replay) {
        self.mcu_ops += r.mcu_ops;
        self.signed_checks += r.signed_checks;
        self.way_probes += r.way_probes;
        self.store_retries += r.store_retries;
        self.resizes += r.resizes;
        self.ways = self.ways.max(r.ways);
        self.exceptions += r.exceptions;
    }
}

/// Runs the traced passes for a workload, pushing every per-layer
/// metric and evaluating the traced checks.
pub fn run(inputs: &Inputs, checks: &mut Checks, metrics: &mut Metrics) -> Tracer {
    let mut tr = Tracer::new();
    let mut totals = Totals::default();
    match &inputs.fault {
        None => campaign_passes(&mut tr, inputs, checks, &mut totals),
        Some(config) => fault_passes(&mut tr, inputs, config, checks, &mut totals),
    }
    for cell in inputs.cells.iter().filter(|c| c.sut.safety.uses_aos()) {
        let r = replay_cell(&mut tr, cell);
        checks.check(
            &format!("{} functional replay", cell.label()),
            r.exceptions == 0,
            format!("{} exceptions on a clean trace", r.exceptions),
        );
        totals.replay.absorb(r);
    }
    let transport_cell = inputs
        .cells
        .iter()
        .find(|c| c.sut.safety.uses_aos())
        .unwrap_or(&inputs.cells[0]);
    totals.transport_ns_per_op = transport(&mut tr, transport_cell);
    let wall_ns = tr.now_ns();
    report(&tr, wall_ns, &totals, checks, metrics);
    tr
}

/// Campaign workloads: the campaign path, the per-op reference and
/// the traced per-op pass over the same cells.
fn campaign_passes(tr: &mut Tracer, inputs: &Inputs, checks: &mut Checks, totals: &mut Totals) {
    let it = tr.span("ref.campaign", |_| run_iteration(inputs));
    let report = it.report();
    checks.cells(
        report.results.len() as u64,
        (report.failed() + report.degraded()) as u64,
    );
    totals.runner_s = runner_s(report);
    tr.span("core.report", |_| black_box(report.to_json()));

    let (mut metered_ns, mut overlapped_ns, mut traced_ns) = (0, 0, 0);
    for (i, (cell, campaign)) in inputs.cells.iter().zip(&report.results).enumerate() {
        tr.set_cell(Some(i as u32));
        let (metered, overlapped) = overlap_pair(tr, cell, &mut metered_ns, &mut overlapped_ns);
        let start = tr.spans().len();
        let (traced, counts) = traced_cell(tr, cell, cell.sut.safety);
        traced_ns += tr.spans()[start].duration_ns();
        let Some(stats) = campaign.stats() else {
            continue;
        };
        checks.check(
            &format!("{} campaign = per-op = overlapped", cell.label()),
            *stats == metered && *stats == overlapped,
            "run_campaign, run_metered and run_overlapped_threaded disagree",
        );
        checks.check(
            &format!("{} traced = campaign", cell.label()),
            traced.without_telemetry() == stats.without_telemetry(),
            "the traced per-op pass changed the simulation",
        );
        totals.push_counted(traced, counts);
    }
    tr.set_cell(None);
    totals.overlap_speedup = ratio(metered_ns as f64, overlapped_ns as f64);
    totals.overhead = ratio(traced_ns as f64, metered_ns as f64);
}

/// The fault sweep: the library sweep as reference, then the same
/// sweep call by call (clean references, plans, lint scans, replays).
fn fault_passes(
    tr: &mut Tracer,
    inputs: &Inputs,
    config: &FaultCampaignConfig,
    checks: &mut Checks,
    totals: &mut Totals,
) {
    let it = tr.span("ref.fault", |_| run_iteration(inputs));
    let reference_ns = tr.total_ns("ref.fault");
    let Outcome::Fault(outcome) = &it.outcome else {
        unreachable!("a workload with a fault config runs the sweep");
    };
    let report = &outcome.report;
    checks.cells(
        report.results.len() as u64,
        (report.failed() + report.degraded()) as u64,
    );
    check_fault_outcome(outcome, checks);
    totals.runner_s = runner_s(report);
    tr.span("core.report", |_| black_box(report.to_json()));
    let m = &outcome.matrix;
    totals.detected_share = ratio(
        m.protected()
            .filter(|t| t.verdict() == aos_fault::Verdict::Detected)
            .count() as f64,
        m.protected().count() as f64,
    );

    let mirror_start = tr.spans().len();
    // Clean references, one per system.
    for cell in &inputs.cells {
        let (stats, counts) = traced_cell(tr, cell, SafetyConfig::Aos);
        checks.check(
            &format!("{} clean", cell.label()),
            stats.violations == 0,
            format!("{} violations on a clean trace", stats.violations),
        );
        totals.push_counted(stats, counts);
    }
    let layout = inputs.cells[0].sut.machine_config().layout;
    let stream = || TraceGenerator::new(&config.profile, SafetyConfig::Aos, config.scale);
    // Plans in sweep order, each with its index in the (kind, seed)
    // grid: the sweep's cells for plan `i` start at `i * systems`.
    let mut plans: Vec<(usize, FaultPlan)> = Vec::new();
    for &kind in &config.kinds {
        for &seed in &config.seeds {
            let plan = tr.span("fault.plan", |tr| {
                plan_fault_batched(
                    TracedGen::new(stream(), tr),
                    layout,
                    FaultSpec { kind, seed },
                )
            });
            match plan {
                Ok(plan) => plans.push((totals.plans as usize, plan)),
                Err(e) => checks.check(&format!("plan {kind:?}/{seed}"), false, e),
            }
            totals.plans += 1;
        }
    }

    // Lint: the clean stream, then every faulted stream, all policies
    // in one pass each; flagged counts must match the sweep's.
    let policies = Policy::ALL;
    let scan = |tr: &mut Tracer, faulted: Option<&FaultPlan>| {
        tr.span("lint.scan", |tr| {
            let gen = TracedGen::new(stream(), tr);
            match faulted {
                None => MatrixScan::run(&policies, gen, layout, &Telemetry::disabled()),
                Some(plan) => {
                    MatrixScan::run(&policies, plan.apply(gen), layout, &Telemetry::disabled())
                }
            }
        })
    };
    let clean = scan(tr, None);
    totals.ops_scanned += clean[0].ops_scanned;
    let mut flagged = vec![vec![0usize; config.kinds.len()]; policies.len()];
    for (i, plan) in &plans {
        let reports = scan(tr, Some(plan));
        totals.ops_scanned += reports[0].ops_scanned;
        for (p, r) in reports.iter().enumerate() {
            flagged[p][i / config.seeds.len()] += usize::from(!r.clean());
        }
    }
    for (p, check) in outcome.policies.iter().enumerate() {
        let expected: Vec<usize> = check.kinds.iter().map(|k| k.flagged).collect();
        checks.check(
            &format!("lint {} traced = sweep", check.policy.name()),
            clean[p].clean() && flagged[p] == expected,
            format!("traced flags {:?}, sweep {expected:?}", flagged[p]),
        );
    }

    // Replays: every plan on every system, AOS-instrumented streams.
    for (i, plan) in &plans {
        for (s, &system) in config.systems.iter().enumerate() {
            let cell = i * config.systems.len() + s;
            tr.set_cell(Some(cell as u32));
            let sut = SystemUnderTest::scaled(system, config.scale).with_telemetry(true);
            let stats = tr.span("sim.run", |tr| {
                let gen = tr.span(GEN, |_| stream());
                let mut machine = Machine::new(sut.machine_config());
                machine.run(plan.apply(TracedGen::new(gen, tr)))
            });
            let reference = report.results.get(cell).and_then(|r| r.stats());
            checks.check(
                &format!("fault cell {cell} traced = sweep"),
                reference.is_some_and(|r| r.without_telemetry() == stats.without_telemetry()),
                "the traced replay changed the simulation",
            );
            totals.sim.push(stats);
        }
    }
    tr.set_cell(None);
    let mirror_ns: u64 = tr.spans()[mirror_start..]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    totals.overhead = ratio(mirror_ns as f64, reference_ns as f64);

    // The batch transport on the sweep's clean cells.
    let (mut metered_ns, mut overlapped_ns) = (0, 0);
    for cell in &inputs.cells {
        let (metered, overlapped) = overlap_pair(tr, cell, &mut metered_ns, &mut overlapped_ns);
        checks.check(
            &format!("{} per-op = overlapped", cell.label()),
            metered == overlapped,
            "run_metered and run_overlapped_threaded disagree",
        );
    }
    totals.overlap_speedup = ratio(metered_ns as f64, overlapped_ns as f64);
}

/// One cell per op (`run_metered`) and double-buffered on two threads
/// (`run_overlapped_threaded`), both untraced; adds each wall time.
fn overlap_pair(
    tr: &mut Tracer,
    cell: &CampaignCell,
    metered_ns: &mut u64,
    overlapped_ns: &mut u64,
) -> (RunStats, RunStats) {
    let start = tr.spans().len();
    let metered = tr.span("ref.metered", |_| run_metered(&cell.profile, &cell.sut));
    let overlapped = tr.span("ref.overlapped", |_| {
        run_overlapped_threaded(&cell.profile, &cell.sut)
    });
    *metered_ns += tr.spans()[start].duration_ns();
    *overlapped_ns += tr.spans()[start + 1].duration_ns();
    (metered.stats, overlapped.stats)
}

/// Campaign wall minus the summed wall of its cells: the runner's own
/// time.
fn runner_s(report: &CampaignReport) -> f64 {
    let cells: f64 = report.results.iter().map(|r| r.wall.as_secs_f64()).sum();
    report.wall.as_secs_f64() - cells
}

/// One cell on a fresh telemetry-recording machine, its trace (of
/// configuration `stream`) pulled through [`TracedGen`].
fn traced_cell(tr: &mut Tracer, cell: &CampaignCell, stream: SafetyConfig) -> (RunStats, OpCounts) {
    let sut = cell.sut.with_telemetry(true);
    tr.span("sim.run", |tr| {
        let gen = tr.span(GEN, |_| {
            TraceGenerator::new(&cell.profile, stream, sut.scale)
        });
        let mut machine = Machine::new(sut.machine_config());
        let mut traced = TracedGen::new(gen, tr);
        let stats = machine.run(&mut traced);
        (stats, traced.counts())
    })
}

/// Replays one AOS cell's MCU operations functionally.
fn replay_cell(tr: &mut Tracer, cell: &CampaignCell) -> Replay {
    let config = cell.sut.machine_config();
    let mut out = Replay::default();
    tr.span("mcu.replay", |tr| {
        let gen = tr.span(GEN, |_| {
            TraceGenerator::new(&cell.profile, cell.sut.safety, cell.sut.scale)
        });
        let mut mcu = MemoryCheckUnit::new(config.mcu, config.layout);
        let mut hbt = HashedBoundsTable::new(config.hbt);
        let mut ops = TracedGen::new(gen, tr);
        let mut chunk = Vec::with_capacity(REPLAY_CHUNK_OPS);
        loop {
            chunk.clear();
            chunk.extend(ops.by_ref().take(REPLAY_CHUNK_OPS));
            if chunk.is_empty() {
                break;
            }
            let tr = ops.tracer();
            let id = tr.enter("mcu.check");
            for op in &chunk {
                replay_op(tr, &mut mcu, &mut hbt, op, &mut out);
            }
            hbt.discard_accesses();
            tr.exit(id);
        }
        out.ways = hbt.ways();
    });
    out
}

fn replay_op(
    tr: &mut Tracer,
    mcu: &mut MemoryCheckUnit,
    hbt: &mut HashedBoundsTable,
    op: &Op,
    out: &mut Replay,
) {
    let mcu_op = match *op {
        Op::Load { pointer, .. } => McuOp::Access {
            pointer,
            is_store: false,
        },
        Op::Store { pointer, .. } => McuOp::Access {
            pointer,
            is_store: true,
        },
        Op::BndStr { pointer, size } => McuOp::BndStr { pointer, size },
        Op::BndClr { pointer } => McuOp::BndClr { pointer },
        _ => return,
    };
    loop {
        out.mcu_ops += 1;
        match mcu.run_sync(mcu_op, hbt) {
            Ok(outcome) => {
                if matches!(mcu_op, McuOp::Access { .. }) && !outcome.skipped {
                    out.signed_checks += 1;
                    out.way_probes += u64::from(outcome.ways_touched);
                }
                return;
            }
            Err(AosException::BoundsStoreFailure { .. }) => {
                // The OS handler of `AosProcess::malloc`: grow the
                // table, then retry the store.
                out.store_retries += 1;
                let grown = tr.span("hbt.resize", |_| hbt.try_begin_resize().is_ok());
                if !grown {
                    out.exceptions += 1;
                    return;
                }
                out.resizes += 1;
            }
            Err(_) => {
                out.exceptions += 1;
                return;
            }
        }
    }
}

/// A pre-collected trace fed into an [`OpBatch`] arena, the way the
/// generator fills one on the campaign path.
struct SliceSource<'a> {
    ops: &'a [Op],
    pos: usize,
}

impl BatchSource for SliceSource<'_> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        let before = batch.len();
        while !batch.is_full() && self.pos < self.ops.len() {
            batch.push(self.ops[self.pos]);
            self.pos += 1;
        }
        batch.len() - before
    }

    fn batch_native(&self) -> bool {
        true
    }
}

/// Host nanoseconds per op the batch transport adds over reading the
/// same ops from a slice (median of several drains of each).
fn transport(tr: &mut Tracer, cell: &CampaignCell) -> f64 {
    let ops: Vec<Op> = TraceGenerator::new(&cell.profile, cell.sut.safety, cell.sut.scale)
        .take(TRANSPORT_OPS)
        .collect();
    tr.span("isa.transport", |_| {
        let time = |f: &dyn Fn()| {
            let mut ns: Vec<f64> = (0..TRANSPORT_REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            median(&mut ns)
        };
        let slice_ns = time(&|| {
            for op in ops.iter().copied() {
                black_box(op);
            }
        });
        let batched_ns = time(&|| {
            let source = SliceSource { ops: &ops, pos: 0 };
            for op in Batched::new(source, DEFAULT_BATCH_OPS) {
                black_box(op);
            }
        });
        (batched_ns - slice_ns) / ops.len().max(1) as f64
    })
}

/// Pushes every per-layer metric and prints the layer shares, the
/// simulated-statistics digest and the outside counts.
fn report(tr: &Tracer, wall_ns: u64, totals: &Totals, checks: &mut Checks, metrics: &mut Metrics) {
    let by_name = tr.self_ns_by_name();
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let sum = |f: fn(&RunStats) -> u64| totals.sim.iter().map(f).sum::<u64>();
    let aos_sim = || totals.sim.iter().filter(|s| s.mcu.issued > 0);
    let cycles = sum(|s| s.cycles);

    let gen = tr.gen_counts();
    let gen_s = self_s(GEN);
    metrics.push("workloads.gen_s", gen_s, "s");
    metrics.push(
        "workloads.ns_per_op",
        ratio(gen_s * 1e9, gen.ops as f64),
        "ns",
    );
    metrics.push("workloads.ops", gen.ops as f64, "count");
    metrics.push("workloads.allocs", gen.bndstrs as f64, "count");
    metrics.push("isa.transport_ns_per_op", totals.transport_ns_per_op, "ns");
    metrics.push("isa.overlap_speedup", totals.overlap_speedup, "ratio");
    let sim_s = self_s("sim.run");
    metrics.push("sim.self_s", sim_s, "s");
    metrics.push("sim.ns_per_cycle", ratio(sim_s * 1e9, cycles as f64), "ns");
    metrics.push("sim.cycles", cycles as f64, "count");
    metrics.push("sim.retired_ops", sum(|s| s.retired_ops) as f64, "count");
    metrics.push("sim.stall_cycles", sum(|s| s.stall_cycles) as f64, "count");
    metrics.push("sim.stalls_mcq", sum(|s| s.stalls_mcq) as f64, "count");
    metrics.push("sim.flushes", sum(|s| s.flushes) as f64, "count");
    let r = totals.replay;
    let check_s = self_s("mcu.check");
    metrics.push("mcu.check_s", check_s, "s");
    metrics.push("mcu.checks", r.mcu_ops as f64, "count");
    metrics.push(
        "mcu.ns_per_check",
        ratio(check_s * 1e9, r.mcu_ops as f64),
        "ns",
    );
    metrics.push("mcu.store_retries", r.store_retries as f64, "count");
    metrics.push("hbt.resize_s", self_s("hbt.resize"), "s");
    metrics.push("hbt.resizes", r.resizes as f64, "count");
    metrics.push("hbt.ways", f64::from(r.ways), "count");
    let (way_iterations, completed) = aos_sim().fold((0, 0), |(w, c), s| {
        (w + s.mcu.way_iterations, c + s.mcu.completed_checks)
    });
    metrics.push(
        "mcu.accesses_per_check",
        ratio(way_iterations as f64, completed as f64),
        "ratio",
    );
    let (hits, lookups) = aos_sim().fold((0, 0), |(h, l), s| {
        (h + s.bwb.hits, l + s.bwb.hits + s.bwb.misses)
    });
    metrics.push("bwb.hit_rate", ratio(hits as f64, lookups as f64), "ratio");
    metrics.push("fault.plan_s", self_s("fault.plan"), "s");
    metrics.push("fault.plans", totals.plans as f64, "count");
    metrics.push("fault.detected_share", totals.detected_share, "ratio");
    let scan_s = self_s("lint.scan");
    metrics.push("lint.scan_s", scan_s, "s");
    metrics.push("lint.ops_scanned", totals.ops_scanned as f64, "count");
    metrics.push(
        "lint.ns_per_op",
        ratio(scan_s * 1e9, totals.ops_scanned as f64),
        "ns",
    );
    metrics.push("core.report_s", self_s("core.report"), "s");
    metrics.push("core.runner_s", totals.runner_s, "s");
    metrics.push("trace.overhead", totals.overhead, "ratio");
    let uncovered_s = wall_ns.saturating_sub(tr.top_level_ns()) as f64 / 1e9;
    metrics.push("trace.uncovered_s", uncovered_s, "s");

    // Layer shares of the instrumented (non-reference) spans.
    let instrumented: u64 = by_name
        .iter()
        .filter(|(n, _)| !n.starts_with("ref."))
        .map(|(_, ns)| ns)
        .sum();
    println!(
        "layer self-time shares of the instrumented spans ({:.3} s):",
        instrumented as f64 / 1e9
    );
    for (name, ns) in &by_name {
        let share = if name.starts_with("ref.") {
            "reference".to_string()
        } else {
            format!("{:5.1}%", 100.0 * ratio(*ns as f64, instrumented as f64))
        };
        println!("  {name:<16} {:>10.4} s  {share}", *ns as f64 / 1e9);
    }

    println!("digest.telemetry {:016x}", digest(&totals.sim));
    let mut merged = TelemetrySnapshot::default();
    for s in &totals.sim {
        merged.merge(&s.telemetry);
    }
    println!("telemetry (traced sim cells, merged):");
    for counter in Counter::ALL {
        if ABSENT_COUNTERS.contains(&counter) {
            println!("  {:<24} absent", counter.name());
        } else if merged.counter(counter) > 0 {
            println!("  {:<24} {}", counter.name(), merged.counter(counter));
        }
    }
    println!("outside counts:");
    println!(
        "  hbt probes: sim way lines loaded {}, functional-replay way probes {} \
         over {} signed checks (telemetry hbt_lookups absent)",
        sum(|s| s.mcu.line_loads),
        r.way_probes,
        r.signed_checks
    );
    println!(
        "  allocations (bndstr): {} (telemetry heap_allocs absent)",
        gen.bndstrs
    );
    println!(
        "  PAC signs (pacma): {} (telemetry pac_computations absent)",
        gen.pacmas
    );
    let agree = |name: &str, telemetry: u64, outside: u64| {
        println!(
            "  {name}: telemetry {telemetry}, benchmark {outside}, {}",
            if telemetry == outside {
                "agree"
            } else {
                "DISAGREE"
            }
        );
    };
    agree("bwb_hits", merged.counter(Counter::BwbHits), hits);
    agree("mcq_enqueued", totals.mcq_enqueued.0, totals.mcq_enqueued.1);
    // Telemetry counts the timing machine's resizes; the benchmark
    // counts the functional replay's.
    agree(
        "hbt_resizes",
        merged.counter(Counter::HbtResizes),
        r.resizes,
    );
    checks.check(
        "traced pass simulated",
        cycles > 0 && gen.ops > 0,
        "the traced passes ran no work",
    );
}

impl Totals {
    /// Keeps a traced cell whose input stream the benchmark counted.
    fn push_counted(&mut self, stats: RunStats, counts: OpCounts) {
        if stats.mcu.issued > 0 {
            self.mcq_enqueued.0 += stats.telemetry.counter(Counter::McqEnqueued);
            self.mcq_enqueued.1 += counts.mcu_ops;
        }
        self.sim.push(stats);
    }
}
