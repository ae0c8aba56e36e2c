//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark makes into
//! a crate's public functions: name, start, end, parent span and the
//! campaign cell it belongs to. Spans are kept in memory and written
//! out once, when the run ends. A span's self time is its duration
//! minus the time its child spans cover; spans nest strictly (the
//! traced run is single-threaded), so children never overlap.
//!
//! [`TracedGen`] is the benchmark-side chunking adapter: it pulls a
//! [`TraceGenerator`] a chunk at a time, each refill under its own
//! `workloads.gen` span, so the consumer's span (`sim.run`,
//! `fault.plan`, `lint.scan`, ...) minus its generator children is
//! the consumer's own time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aos_isa::stream::{BatchSource, OpBatch};
use aos_isa::Op;
use aos_workloads::TraceGenerator;

/// Span name of a generator refill.
pub const GEN: &str = "workloads.gen";

/// Ops pulled from the generator per refill span.
const CHUNK_OPS: usize = 4096;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Campaign cell the span belongs to, if any.
    pub cell: Option<u32>,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<u32>,
    gen_counts: OpCounts,
}

/// Outside counts of the ops a [`TracedGen`] pulled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Every op.
    pub ops: u64,
    /// `bndstr` ops: one per allocation under AOS.
    pub bndstrs: u64,
    /// `pacma` ops: one QARMA pointer signature each.
    pub pacmas: u64,
    /// Loads, stores, `bndstr` and `bndclr`: the ops an AOS machine
    /// enqueues into its MCQ.
    pub mcu_ops: u64,
}

impl OpCounts {
    fn record(&mut self, op: &Op) {
        self.ops += 1;
        match op {
            Op::BndStr { .. } => self.bndstrs += 1,
            Op::Pacma { .. } => self.pacmas += 1,
            _ => {}
        }
        if op.needs_mcu() {
            self.mcu_ops += 1;
        }
    }

    /// Adds another count into this one.
    pub fn add(&mut self, other: OpCounts) {
        self.ops += other.ops;
        self.bndstrs += other.bndstrs;
        self.pacmas += other.pacmas;
        self.mcu_ops += other.mcu_ops;
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
            gen_counts: OpCounts::default(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: Option<u32>) {
        self.cell = cell;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Outside counts of every op pulled through a [`TracedGen`] that
    /// has been dropped.
    pub fn gen_counts(&self) -> OpCounts {
        self.gen_counts
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus child coverage) summed per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) += span.duration_ns() - children;
        }
        out
    }

    /// Total duration of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed duration of the top-level spans.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"cell\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.cell.map(u64::from)),
            );
        }
        out
    }
}

/// A [`TraceGenerator`] pulled a chunk at a time, each refill timed
/// as a `workloads.gen` span. Yields exactly the generator's op
/// sequence, through either interface: per op ([`Iterator`]) or per
/// batch ([`BatchSource`], which forwards to the generator's
/// batch-native refill after draining any chunk left over).
pub struct TracedGen<'t> {
    gen: TraceGenerator,
    chunk: Vec<Op>,
    pos: usize,
    tracer: &'t mut Tracer,
    counts: OpCounts,
}

impl<'t> TracedGen<'t> {
    /// Wraps `gen`, recording refills into `tracer`.
    pub fn new(gen: TraceGenerator, tracer: &'t mut Tracer) -> Self {
        Self {
            gen,
            chunk: Vec::with_capacity(CHUNK_OPS),
            pos: 0,
            tracer,
            counts: OpCounts::default(),
        }
    }

    /// Outside counts of every op pulled so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// The tracer refills are recorded into, for spans of the
    /// consumer's own between pulls.
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }
}

impl Drop for TracedGen<'_> {
    fn drop(&mut self) {
        self.tracer.gen_counts.add(self.counts);
    }
}

impl Iterator for TracedGen<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pos == self.chunk.len() {
            let id = self.tracer.enter(GEN);
            self.chunk.clear();
            self.pos = 0;
            self.chunk.extend(self.gen.by_ref().take(CHUNK_OPS));
            for op in &self.chunk {
                self.counts.record(op);
            }
            self.tracer.exit(id);
        }
        let op = self.chunk.get(self.pos).copied();
        self.pos += 1;
        op
    }
}

impl BatchSource for TracedGen<'_> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        let before = batch.len();
        while self.pos < self.chunk.len() && !batch.is_full() {
            batch.push(self.chunk[self.pos]);
            self.pos += 1;
        }
        if !batch.is_full() {
            let id = self.tracer.enter(GEN);
            let start = batch.len();
            self.gen.refill_batch(batch);
            for i in start..batch.len() {
                self.counts.record(&batch.get(i));
            }
            self.tracer.exit(id);
        }
        batch.len() - before
    }

    fn batch_native(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let by_name = t.self_ns_by_name();
        let outer = t.total_ns("outer");
        let inner = t.total_ns("inner");
        assert_eq!(by_name["outer"], outer - inner);
        assert_eq!(by_name["inner"], inner);
        assert_eq!(t.top_level_ns(), outer);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn traced_gen_yields_the_generator_sequence() {
        let p = aos_workloads::profile::by_name("hmmer").unwrap();
        let cfg = aos_isa::SafetyConfig::Aos;
        let plain: Vec<Op> = TraceGenerator::new(p, cfg, 0.002).collect();
        let mut t = Tracer::new();
        let mut traced = TracedGen::new(TraceGenerator::new(p, cfg, 0.002), &mut t);
        // Mix both interfaces: a few ops per op, then batches.
        let mut got: Vec<Op> = traced.by_ref().take(10).collect();
        let mut batch = OpBatch::with_capacity(1000);
        loop {
            batch.clear();
            if traced.refill_batch(&mut batch) == 0 {
                break;
            }
            got.extend(batch.iter());
        }
        assert_eq!(traced.counts().ops, plain.len() as u64);
        assert_eq!(got, plain);
    }
}
