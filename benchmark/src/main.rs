//! The AOS simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fig14-campaign|hbt-resize|fault-lint-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload end to end with tracing and
//! telemetry off; `--trace 1` runs the traced passes that split the
//! time by layer. Either way the last stdout line is one JSON object:
//! `correct`, `attempted`, `failed` and the metrics. The exit code is
//! nonzero when any correctness check fails. See `README.md` beside
//! this crate for the workloads and metrics.

mod report;
mod spans;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{digest, median, peak_rss_mb, print_host_facts, ratio, Checks, Metrics};
use workload::{check_iteration, inputs, instantiate, paper_err_pp, run_iteration, Workload};

/// Worker threads the campaign path may use, campaign runner and cell
/// overlap producer together. With the producer on a second thread of
/// a shared 2-vCPU host, cell time follows that vCPU's availability,
/// and glibc's dynamic mmap threshold races between the two threads,
/// so peak RSS flips between two values from run to run. The traced
/// run still measures the threaded overlap explicitly.
const THREAD_BUDGET: &str = "1";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Untimed iterations before the timed section.
const WARMUP: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    // Read by `aos_util::par::effective_threads`; set before any thread
    // starts.
    std::env::set_var(aos_util::par::THREADS_ENV, THREAD_BUDGET);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        traced_run(&args, &mut checks, &mut metrics);
    } else {
        timed_run(&args, &mut checks, &mut metrics);
    }
    println!(
        "metric {:<26} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_share",
        checks.fail_share(),
        checks.failed,
        checks.attempted
    );
    println!("{}", metrics.result_json(&checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end mode: set-up, warmup, then whole iterations until the
/// time is spent.
fn timed_run(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = 0;
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let prepared = workload::inputs(args.workload, args.seed);
        built = instantiate(&prepared);
        setups.push(start.elapsed().as_secs_f64());
        inputs = Some(prepared);
    }
    let inputs = inputs.expect("set-up ran at least once");
    println!("setup built {built} machines and generators per repetition");

    let mut digests = Vec::new();
    for _ in 0..WARMUP {
        let it = run_iteration(&inputs);
        check_iteration(args.workload, &it, checks);
        digests.push(digest(it.stats()));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let mut rates = Vec::new();
    let mut ref_rates = Vec::new();
    let mut walls = Vec::new();
    let mut loop_before = reference_loop_s();
    let mut peak_rss = None;
    let last = loop {
        let it = run_iteration(&inputs);
        let loop_after = reference_loop_s();
        // Host seconds scaled to reference seconds by the loop's speed
        // on either side of the iteration.
        let ref_wall = it.wall_s * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2.0);
        loop_before = loop_after;
        rates.push(ratio(it.cycles() as f64, it.wall_s));
        ref_rates.push(ratio(it.cycles() as f64, ref_wall));
        walls.push(it.wall_s);
        check_iteration(args.workload, &it, checks);
        digests.push(digest(it.stats()));
        // Read after a fixed amount of work: the high-water mark keeps
        // creeping up with heap fragmentation, so a later reading would
        // depend on how many iterations fit in the time.
        peak_rss.get_or_insert_with(peak_rss_mb);
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        if timed.elapsed().as_secs_f64() + mean > budget.as_secs_f64() {
            break it;
        }
    };

    let listed: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("iteration sim_cycles_per_s {}", listed.join(" "));
    print_host_facts(rates.len(), WARMUP);
    println!("digest.stats {:016x}", digests[0]);
    checks.check(
        "deterministic statistics",
        digests.iter().all(|d| *d == digests[0]),
        format!("digests differ across iterations: {digests:x?}"),
    );
    let (err_pp, reference) = paper_err_pp(args.workload, &last);
    println!("paper_err_pp reference: {reference}");
    println!(
        "timed section {:.3} s, {} iterations of {} cycles",
        timed.elapsed().as_secs_f64(),
        rates.len(),
        last.cycles()
    );

    println!(
        "host sim_cycles_per_s {:.0} (unscaled median)",
        median(&mut rates)
    );
    metrics.push("sim_cycles_per_ref_s", median(&mut ref_rates), "1/s");
    metrics.push("setup_s", median(&mut setups), "s");
    metrics.push("peak_rss_mb", peak_rss.unwrap_or_default(), "MB");
    metrics.push("paper_err_pp", err_pp, "pp");
}

/// Iterations of [`reference_loop_s`]'s loop.
const REFERENCE_LOOP_ITERS: u64 = 15_000_000;
/// The loop's time at reference host speed, in seconds.
const REFERENCE_LOOP_S: f64 = 0.135;

/// Times a fixed integer loop with data-dependent branches: the host's
/// speed right now. The benchmark's host is a shared VM whose speed
/// drifts by about ±15% over minutes; scaling each iteration's wall
/// time by this loop's speed beside it cut the run-to-run spread of
/// the throughput from 0.18 to 0.065 over ten runs.
fn reference_loop_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    let mut acc: u64 = 0;
    for i in 0..std::hint::black_box(REFERENCE_LOOP_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(i);
        } else if x & 4 == 0 {
            acc ^= x;
        } else {
            acc = acc.rotate_left(3);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Traced mode: the per-layer passes; spans are written out at the
/// end.
fn traced_run(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    let inputs = inputs(args.workload, args.seed);
    for _ in 0..WARMUP {
        check_iteration(args.workload, &run_iteration(&inputs), checks);
    }
    print_host_facts(1, WARMUP);
    let tracer = traced::run(&inputs, checks, metrics);
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => println!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans {} not written: {e}", tracer.spans().len()),
    }
}
