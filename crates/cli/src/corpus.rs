//! The bodies of `aos corpus record` and `aos corpus replay`.
//!
//! `record` banks a workload × system grid into a CRC-checked
//! [`aos_core::isa::corpus`] file; `replay` feeds one recorded entry
//! through a Table IV machine (of the recorded system, or of another
//! one to replay the same trace on a different machine) or the static
//! protocol linter. Replays are bit-identical to the in-process
//! pipeline, so results carry FNV-1a fingerprints (`stats_digest` /
//! `report_digest`) that can be compared across processes and
//! sessions.

use aos_core::experiment::SystemUnderTest;
use aos_core::isa::corpus::{CorpusReader, CorpusWriter, Replay};
use aos_core::isa::{Op, SafetyConfig};
use aos_core::sim::{Machine, RunStats};
use aos_lint::{lint_stream, LintReport};
use aos_ptrauth::PointerLayout;
use aos_util::fnv::{fnv1a64, OFFSET_BASIS};
use aos_util::{json, AosError, Telemetry};
use aos_workloads::{TraceGenerator, WorkloadProfile};

use crate::commands::parse_system;

/// Where a recorded entry is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Feed the recorded ops through a Table IV machine and report
    /// its [`RunStats`].
    Sim,
    /// Feed the recorded ops through the static protocol linter and
    /// report its findings.
    Lint,
}

/// A [`RunStats`] fingerprint: FNV-1a over the full `Debug`
/// rendering, which covers every field the struct holds. Two runs
/// agree on this digest exactly when they are bit-identical.
fn stats_digest(stats: &RunStats) -> u64 {
    fnv1a64(OFFSET_BASIS, format!("{stats:?}").as_bytes())
}

fn report_digest(report: &LintReport) -> u64 {
    fnv1a64(OFFSET_BASIS, report.to_json().as_bytes())
}

fn sim_result_json(prefix: &str, stats: &RunStats, trace_ops: u64) -> String {
    format!(
        "{prefix}\"cycles\":{},\"retired_ops\":{},\"trace_ops\":{trace_ops},\"ipc\":{:.4},\"violations\":{},\"hbt_resizes\":{},\"traffic_bytes\":{},\"stats_digest\":\"{:016x}\"}}",
        stats.cycles,
        stats.retired_ops,
        stats.ipc(),
        stats.violations,
        stats.hbt_resizes,
        stats.traffic.total_bytes(),
        stats_digest(stats),
    )
}

fn lint_result_json(prefix: &str, report: &LintReport) -> String {
    format!(
        "{prefix}\"ops_scanned\":{},\"errors\":{},\"warnings\":{},\"clean\":{},\"report_digest\":\"{:016x}\"}}",
        report.ops_scanned,
        report.errors(),
        report.warnings(),
        report.clean(),
        report_digest(report),
    )
}

/// The entry name `record` gives a `(workload, system)` cell, e.g.
/// `mcf-pa+aos`.
fn entry_name(workload: &str, system: SafetyConfig) -> String {
    format!("{workload}-{}", system.to_string().to_ascii_lowercase())
}

/// The metadata string recorded with each entry; `replay` parses the
/// system back out of it so a replay needs no re-spec.
fn entry_metadata(workload: &str, system: SafetyConfig, scale: f64) -> String {
    format!("workload={workload} system={system} scale={scale}")
}

/// Parses the `system=` field of an entry's recorded metadata.
fn system_from_metadata(metadata: &str) -> Result<SafetyConfig, AosError> {
    let token = metadata
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("system="))
        .ok_or_else(|| {
            AosError::corruption("corpus entry metadata", "no system= field recorded")
        })?;
    parse_system(token).map_err(|e| AosError::corruption("corpus entry metadata", e))
}

/// Adapter: drains a corpus [`Replay`] as a plain op iterator for a
/// machine or linter, parking the first error so the caller can fail
/// after the consumer stops. The iterator fuses at the error — no op
/// after a corrupt block is ever delivered.
struct ReplayOps {
    inner: Replay,
    error: Option<AosError>,
}

impl Iterator for ReplayOps {
    type Item = Op;

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() {
            return None;
        }
        match self.inner.next() {
            Some(Ok(op)) => Some(op),
            Some(Err(e)) => {
                self.error = Some(e);
                None
            }
            None => None,
        }
    }
}

/// Records every `workloads × systems` cell at `scale` into a new
/// corpus at `path` and renders the summary line.
///
/// # Errors
///
/// [`AosError::InvalidInput`] on an empty grid; I/O errors from the
/// corpus writer.
pub fn record(
    path: &str,
    workloads: &[&WorkloadProfile],
    systems: &[SafetyConfig],
    scale: f64,
    telemetry: &Telemetry,
) -> Result<String, AosError> {
    if workloads.is_empty() || systems.is_empty() {
        return Err(AosError::invalid_input(
            "corpus record",
            "empty workload x system grid",
        ));
    }
    let mut writer = CorpusWriter::create(path, telemetry.clone())?;
    let mut ops_total = 0u64;
    for p in workloads {
        for &system in systems {
            let meta = writer.record(
                &entry_name(p.name, system),
                &entry_metadata(p.name, system, scale),
                TraceGenerator::new(p, system, scale),
            )?;
            ops_total += meta.op_count;
        }
    }
    let entries = writer.finish()?;
    Ok(format!(
        "{{\"corpus\":\"{}\",\"entries\":{},\"ops_total\":{ops_total}}}",
        json::escape(path),
        entries.len(),
    ))
}

/// Replays entry `entry` of the corpus at `path` in `mode` and renders
/// the result line. `system` overrides the system recorded in the
/// entry's metadata (e.g. an AOS trace on a Baseline machine).
///
/// # Errors
///
/// [`AosError::Corruption`] when the entry hits a CRC-failing block
/// (the entry is quarantined; no op past the bad block is replayed);
/// [`AosError::InvalidInput`] for an unknown entry.
pub fn replay(
    path: &str,
    entry: &str,
    mode: ReplayMode,
    system: Option<SafetyConfig>,
    telemetry: &Telemetry,
) -> Result<String, AosError> {
    let reader = CorpusReader::open(path, telemetry.clone())?;
    let meta = reader
        .find(entry)
        .ok_or_else(|| {
            AosError::invalid_input("corpus replay", format!("no entry '{entry}' in {path}"))
        })?
        .clone();
    let system = match system {
        Some(system) => system,
        None => system_from_metadata(&meta.metadata)?,
    };
    let mut ops = ReplayOps {
        inner: reader.replay(&meta)?,
        error: None,
    };
    let prefix = format!(
        "{{\"corpus\":\"{}\",\"entry\":\"{}\",\"system\":\"{system}\",",
        json::escape(path),
        json::escape(entry),
    );
    let result = match mode {
        ReplayMode::Sim => {
            let config = SystemUnderTest::standard(system).machine_config();
            let stats = Machine::new(config).run(&mut ops);
            sim_result_json(&prefix, &stats, meta.op_count)
        }
        ReplayMode::Lint => {
            let report = lint_stream(&mut ops, PointerLayout::default());
            lint_result_json(&prefix, &report)
        }
    };
    match ops.error {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_util::Counter;
    use aos_workloads::profile;

    /// Records `workload` on `system` at scale 0.004 into a fresh
    /// corpus and returns its directory guard and path.
    fn recorded(name: &str, workload: &str, system: SafetyConfig) -> (aos_util::TestDir, String) {
        let dir = aos_util::TestDir::new(name).expect("test dir");
        let path = dir.join("corpus.aosc").display().to_string();
        let p = profile::by_name(workload).expect("profile");
        record(&path, &[p], &[system], 0.004, &Telemetry::disabled()).expect("record");
        (dir, path)
    }

    #[test]
    fn record_then_replay_is_bit_identical_to_the_in_process_pipeline() {
        let (_dir, path) = recorded("cli-corpus-identity", "mcf", SafetyConfig::Aos);
        let replayed = replay(
            &path,
            "mcf-aos",
            ReplayMode::Sim,
            None,
            &Telemetry::disabled(),
        )
        .expect("replay");

        let p = profile::by_name("mcf").expect("profile");
        let config = SystemUnderTest::standard(SafetyConfig::Aos).machine_config();
        let stats = Machine::new(config).run(TraceGenerator::new(p, SafetyConfig::Aos, 0.004));
        let expect = format!("\"stats_digest\":\"{:016x}\"", stats_digest(&stats));
        assert!(
            replayed.contains(&expect),
            "replay {replayed} != in-process digest {expect}"
        );
    }

    #[test]
    fn system_override_replays_the_trace_on_another_machine() {
        let (_dir, path) = recorded("cli-corpus-override", "mcf", SafetyConfig::Aos);
        let replayed = replay(
            &path,
            "mcf-aos",
            ReplayMode::Sim,
            Some(SafetyConfig::Baseline),
            &Telemetry::disabled(),
        )
        .expect("replay");
        assert!(replayed.contains("\"system\":\"Baseline\""), "{replayed}");

        // The recorded AOS trace on a Baseline machine: the same run
        // as an in-process Baseline machine over the AOS generator.
        let p = profile::by_name("mcf").expect("profile");
        let config = SystemUnderTest::standard(SafetyConfig::Baseline).machine_config();
        let stats = Machine::new(config).run(TraceGenerator::new(p, SafetyConfig::Aos, 0.004));
        let expect = format!("\"stats_digest\":\"{:016x}\"", stats_digest(&stats));
        assert!(
            replayed.contains(&expect),
            "replay {replayed} != in-process digest {expect}"
        );
        let recorded_system = replay(
            &path,
            "mcf-aos",
            ReplayMode::Sim,
            None,
            &Telemetry::disabled(),
        )
        .expect("replay");
        assert!(
            !recorded_system.contains(&expect),
            "the override must change the machine"
        );
    }

    #[test]
    fn replay_lint_matches_in_process_lint() {
        let (_dir, path) = recorded("cli-corpus-lintid", "mcf", SafetyConfig::Aos);
        let via_corpus = replay(
            &path,
            "mcf-aos",
            ReplayMode::Lint,
            None,
            &Telemetry::disabled(),
        )
        .expect("replay");
        let p = profile::by_name("mcf").expect("profile");
        let report = lint_stream(
            TraceGenerator::new(p, SafetyConfig::Aos, 0.004),
            PointerLayout::default(),
        );
        let expect = format!("\"report_digest\":\"{:016x}\"", report_digest(&report));
        assert!(via_corpus.contains(&expect), "{via_corpus} != {expect}");
    }

    #[test]
    fn corrupt_replay_is_a_typed_quarantine() {
        let (_dir, path) = recorded("cli-corpus-quarantine", "mcf", SafetyConfig::Baseline);
        // Flip a bit in the first op block of the only entry.
        let reader = CorpusReader::open(&path, Telemetry::disabled()).expect("open");
        let offset = reader.entries()[0].offset;
        drop(reader);
        let mut bytes = std::fs::read(&path).expect("read");
        // entry header frame: 8 (len+crc) + 1 (kind) + payload; next
        // frame starts after it — flip inside its payload.
        let header_payload =
            u32::from_le_bytes(bytes[offset as usize..offset as usize + 4].try_into().unwrap());
        let block_payload_at = offset as usize + 8 + header_payload as usize + 8 + 1;
        bytes[block_payload_at + 5] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");

        let t = Telemetry::enabled();
        let err = replay(&path, "mcf-baseline", ReplayMode::Sim, None, &t)
            .expect_err("corrupt replay must fail");
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
        assert!(t.snapshot().counter(Counter::CorpusCrcFailures) >= 1);

        // Verify reports the quarantine as a per-entry status.
        let reader = CorpusReader::open(&path, Telemetry::disabled()).expect("open");
        let checks = reader.verify();
        assert_eq!(checks.len(), 1);
        assert!(matches!(checks[0].status, Err(AosError::Corruption { .. })));
    }
}
