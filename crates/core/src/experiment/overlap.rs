//! Overlapped trace generation: a cell body that double-buffers
//! [`OpBatch`] arenas between a generator thread and the simulating
//! thread.
//!
//! The product runs every cell per op ([`run_metered`]); this runner
//! stays only because the benchmark still measures the overlap against
//! it (ROADMAP item 3: step 1 drops that measurement, step 2 deletes
//! this module).
//!
//! Memory stays bounded and scale-independent: exactly **two** arenas
//! of [`DEFAULT_BATCH_OPS`] ops ping-pong between the threads (plus
//! the generator's own `O(window)` event buffer). The filled arena
//! travels through a rendezvous channel; the drained arena is recycled
//! back, so steady state allocates nothing.
//!
//! Determinism: the op sequence is exactly what the generator would
//! yield per op, so [`RunStats`], telemetry included, are bit-identical
//! to [`run_metered`] on the same cell; `tests/batch_equivalence.rs`
//! pins that. The generator thread owns no telemetry handle — all
//! counting happens on the simulating side, preserving the
//! single-writer contract.
//!
//! [`run_metered`]: super::run_metered
//! [`RunStats`]: aos_sim::RunStats
//! [`OpBatch`]: aos_isa::stream::OpBatch
//! [`DEFAULT_BATCH_OPS`]: aos_isa::stream::DEFAULT_BATCH_OPS

use std::sync::mpsc;

use aos_isa::stream::{BatchSource, Batched, BufferedOps, OpBatch, OpStream, DEFAULT_BATCH_OPS};
use aos_sim::Machine;
use aos_workloads::{TraceGenerator, WorkloadProfile};

use super::campaign::CellOutput;
use super::SystemUnderTest;

/// The simulating side of the double buffer: a [`BatchSource`] that
/// receives filled arenas from the generator thread and recycles
/// drained ones back.
///
/// Each refill is a constant-time arena swap — no op is ever copied
/// between buffers. When the generator hangs up (stream exhausted),
/// refills return 0 and the driver winds down; when this source drops,
/// the recycle channel disconnects and the generator thread exits even
/// mid-rendezvous, so neither side can deadlock on shutdown.
struct OverlapSource {
    filled: mpsc::Receiver<OpBatch>,
    recycle: mpsc::Sender<OpBatch>,
    done: bool,
}

impl BatchSource for OverlapSource {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        if self.done {
            return 0;
        }
        match self.filled.recv() {
            Ok(mut full) => {
                std::mem::swap(batch, &mut full);
                // `full` is now the drained arena the driver just
                // cleared; hand it back for the next fill. The
                // generator may already have exited — then the op
                // stream is ending anyway and the arena just drops.
                let _ = self.recycle.send(full);
                batch.len()
            }
            Err(mpsc::RecvError) => {
                self.done = true;
                0
            }
        }
    }
}

/// What the generator thread reports back when it finishes.
struct ProducerReport {
    /// Ops pushed into arenas (equals what the machine consumed).
    ops: u64,
    /// The generator's own peak event-buffer occupancy, in ops.
    peak_buffered_ops: usize,
}

/// Runs one cell with the generator on a second thread: it fills, the
/// simulating thread drains, two arenas ping-pong. Same stats and
/// `trace_ops` as [`super::run_metered`]; `peak_trace_bytes` counts
/// both arenas.
pub fn run_overlapped_threaded(profile: &WorkloadProfile, sut: &SystemUnderTest) -> CellOutput {
    let batch_ops = DEFAULT_BATCH_OPS;
    let (fill_tx, fill_rx) = mpsc::sync_channel::<OpBatch>(1);
    let (recycle_tx, recycle_rx) = mpsc::channel::<OpBatch>();
    // Seed the producer with one arena; the driver's own arena joins
    // the rotation at the first swap, giving exactly two in flight.
    recycle_tx
        .send(OpBatch::with_capacity(batch_ops))
        .expect("receiver held below");

    let profile = *profile;
    let sut = *sut;
    let (stats, report) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut gen = TraceGenerator::new(&profile, sut.safety, sut.scale).metered();
            while let Ok(mut arena) = recycle_rx.recv() {
                arena.clear();
                let n = gen.refill_batch(&mut arena);
                // Exhausted, or the simulating side hung up early:
                // either way stop producing. Dropping `fill_tx` is the
                // end-of-stream signal.
                if n == 0 || fill_tx.send(arena).is_err() {
                    break;
                }
            }
            ProducerReport {
                ops: gen.ops(),
                peak_buffered_ops: gen.peak_buffered_ops(),
            }
        });

        let source = OverlapSource {
            filled: fill_rx,
            recycle: recycle_tx,
            done: false,
        };
        let mut machine = Machine::new(sut.machine_config());
        let stats = machine.run(Batched::new(source, batch_ops));
        let report = producer
            .join()
            .expect("generator thread only runs panic-free library code");
        (stats, report)
    });

    CellOutput {
        stats,
        trace_ops: report.ops,
        // Peak buffered trace: both ping-pong arenas plus the
        // generator's event buffer — constant in the trace length.
        peak_trace_bytes: (2 * batch_ops + report.peak_buffered_ops) as u64
            * std::mem::size_of::<aos_isa::Op>() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;
    use aos_workloads::profile::by_name;

    #[test]
    fn overlapped_run_matches_metered_run() {
        let p = by_name("hmmer").unwrap();
        for safety in [SafetyConfig::Baseline, SafetyConfig::Aos] {
            let sut = SystemUnderTest::scaled(safety, 0.004).with_telemetry(true);
            let metered = super::super::run_metered(p, &sut);
            let overlapped = run_overlapped_threaded(p, &sut);
            assert_eq!(overlapped.trace_ops, metered.trace_ops);
            assert_eq!(
                overlapped.stats, metered.stats,
                "{safety}: overlap changed the simulation"
            );
        }
    }

    #[test]
    fn overlapped_peak_memory_is_batch_granular() {
        let p = by_name("mcf").unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, 0.01);
        let op_bytes = std::mem::size_of::<aos_isa::Op>() as u64;
        let out = run_overlapped_threaded(p, &sut);
        // Both arenas, far below the materialized trace, independent
        // of scale.
        assert!(out.peak_trace_bytes >= 2 * DEFAULT_BATCH_OPS as u64 * op_bytes);
        assert!(out.peak_trace_bytes < out.trace_ops * op_bytes / 4);
    }
}
