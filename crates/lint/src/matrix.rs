//! The multi-policy matrix runner: one streaming pass, shared
//! decode, per-policy abstract state — and the `aos-lint-matrix/v1`
//! report that crosses policies with fault kinds.
//!
//! [`MatrixScan`] drives any subset of [`Policy::ALL`] over a single
//! op stream: each op is decoded once and handed to every policy's
//! transfer function, so an N-policy scan costs one stream traversal
//! plus N O(live-PACs) states — never N traversals.

use std::fmt::Write as _;

use aos_isa::Op;
use aos_ptrauth::PointerLayout;
use aos_util::{json, Telemetry};

use crate::policy::{Policy, PolicyReport, PolicyVerifier};

/// A single-pass scan over several policies at once.
pub struct MatrixScan {
    verifiers: Vec<Box<dyn PolicyVerifier>>,
}

impl MatrixScan {
    /// A fresh scan over `policies` (in the given order).
    pub fn new(policies: &[Policy], layout: PointerLayout) -> Self {
        Self {
            verifiers: policies.iter().map(|p| p.new_verifier(layout)).collect(),
        }
    }

    /// Advances every policy by one op.
    pub fn scan(&mut self, op: &Op) {
        for v in &mut self.verifiers {
            v.scan(op);
        }
    }

    /// Closes the stream: one [`PolicyReport`] per policy, in
    /// construction order.
    pub fn finish(self, telemetry: &Telemetry) -> Vec<PolicyReport> {
        self.verifiers
            .into_iter()
            .map(|v| v.finish(telemetry))
            .collect()
    }

    /// Convenience: scans a whole stream in one call.
    pub fn run(
        policies: &[Policy],
        stream: impl Iterator<Item = Op>,
        layout: PointerLayout,
        telemetry: &Telemetry,
    ) -> Vec<PolicyReport> {
        let mut scan = MatrixScan::new(policies, layout);
        for op in stream {
            scan.scan(&op);
        }
        scan.finish(telemetry)
    }
}

impl std::fmt::Debug for MatrixScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixScan")
            .field(
                "policies",
                &self.verifiers.iter().map(|v| v.policy()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// One row of the detection matrix: a subject (a fault kind, a
/// composite primitive, or `"clean"`) crossed with every policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixEntry {
    /// What was injected into the scanned stream.
    pub subject: String,
    /// Per policy (report order): exact per-rule finding totals,
    /// summed across the seeds that contributed to the row.
    pub rule_counts: Vec<Vec<u64>>,
}

impl MatrixEntry {
    /// Total findings for the `p`-th policy.
    pub fn diagnostics(&self, p: usize) -> u64 {
        self.rule_counts[p].iter().sum()
    }

    /// Whether the `p`-th policy flagged this subject at all.
    pub fn detected(&self, p: usize) -> bool {
        self.diagnostics(p) > 0
    }
}

/// The policy × rule × fault-kind detection matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Workload profile the traces came from.
    pub workload: String,
    /// Trace scale factor.
    pub scale: f64,
    /// Seeds each subject was injected under.
    pub seeds: Vec<u64>,
    /// The policies, in column order.
    pub policies: Vec<Policy>,
    /// One row per subject, in injection order (clean first).
    pub entries: Vec<MatrixEntry>,
    /// Total ops scanned across every cell.
    pub ops_scanned: u64,
}

impl MatrixReport {
    /// Accumulates one scan's reports into the row for `subject`,
    /// creating the row on first sight. `reports` must be in the
    /// matrix's policy order.
    pub fn absorb(&mut self, subject: &str, reports: &[PolicyReport]) {
        debug_assert_eq!(reports.len(), self.policies.len());
        if let Some(first) = reports.first() {
            self.ops_scanned += first.ops_scanned;
        }
        let entry = match self.entries.iter_mut().find(|e| e.subject == subject) {
            Some(entry) => entry,
            None => {
                self.entries.push(MatrixEntry {
                    subject: subject.to_string(),
                    rule_counts: self
                        .policies
                        .iter()
                        .map(|p| vec![0; p.rules().len()])
                        .collect(),
                });
                self.entries.last_mut().expect("just pushed")
            }
        };
        for (p, report) in reports.iter().enumerate() {
            for (i, &c) in report.rule_counts.iter().enumerate() {
                entry.rule_counts[p][i] += c;
            }
        }
    }

    /// An empty matrix ready to [`absorb`](MatrixReport::absorb).
    pub fn new(workload: &str, scale: f64, seeds: Vec<u64>, policies: Vec<Policy>) -> Self {
        Self {
            workload: workload.to_string(),
            scale,
            seeds,
            policies,
            entries: Vec::new(),
            ops_scanned: 0,
        }
    }

    /// The row for `subject`, if any seed produced one.
    pub fn entry(&self, subject: &str) -> Option<&MatrixEntry> {
        self.entries.iter().find(|e| e.subject == subject)
    }

    /// The `aos-lint-matrix/v1` JSON document. Stable key order,
    /// pinned by `tests/lint_matrix_golden.rs`; an intentional shape
    /// change means bumping the version string and regenerating the
    /// golden.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"aos-lint-matrix/v1\",\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", json::escape(&self.workload));
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));
        let _ = writeln!(out, "  \"ops_scanned\": {},", self.ops_scanned);
        let names: Vec<String> = self
            .policies
            .iter()
            .map(|p| format!("\"{}\"", p.name()))
            .collect();
        let _ = writeln!(out, "  \"policies\": [{}],", names.join(", "));
        out.push_str("  \"matrix\": [\n");
        for (e, entry) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"subject\": \"{}\",", json::escape(&entry.subject));
            out.push_str("      \"verdicts\": {\n");
            for (p, policy) in self.policies.iter().enumerate() {
                let _ = writeln!(out, "        \"{}\": {{", policy.name());
                let _ = writeln!(out, "          \"detected\": {},", entry.detected(p));
                let _ = writeln!(out, "          \"diagnostics\": {},", entry.diagnostics(p));
                out.push_str("          \"rules\": {\n");
                let rules = policy.rules();
                for (i, info) in rules.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "            \"{}\": {}{}",
                        info.name,
                        entry.rule_counts[p][i],
                        if i + 1 < rules.len() { "," } else { "" }
                    );
                }
                out.push_str("          }\n");
                let _ = writeln!(
                    out,
                    "        }}{}",
                    if p + 1 < self.policies.len() { "," } else { "" }
                );
            }
            out.push_str("      }\n");
            let _ = writeln!(
                out,
                "    }}{}",
                if e + 1 < self.entries.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable detection table: one row per subject, one
    /// column per policy, the rules each policy fired underneath.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy detection matrix — workload {}, scale {}, seeds {:?}, {} ops scanned",
            self.workload, self.scale, self.seeds, self.ops_scanned
        );
        let _ = write!(out, "{:<18}", "subject");
        for p in &self.policies {
            let _ = write!(out, " {:>12}", p.name());
        }
        out.push('\n');
        for entry in &self.entries {
            let _ = write!(out, "{:<18}", entry.subject);
            for p in 0..self.policies.len() {
                let cell = if entry.detected(p) {
                    format!("hit({})", entry.diagnostics(p))
                } else {
                    "-".to_string()
                };
                let _ = write!(out, " {cell:>12}");
            }
            out.push('\n');
        }
        for entry in &self.entries {
            let mut fired: Vec<String> = Vec::new();
            for (p, policy) in self.policies.iter().enumerate() {
                let rules: Vec<&str> = policy
                    .rules()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| entry.rule_counts[p][*i] > 0)
                    .map(|(_, info)| info.name)
                    .collect();
                if !rules.is_empty() {
                    fired.push(format!("{}: {}", policy.name(), rules.join(", ")));
                }
            }
            if !fired.is_empty() {
                let _ = writeln!(out, "  {:<16} {}", entry.subject, fired.join(" | "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_ptrauth::compute_ahc;

    fn ops_with_forged_load() -> Vec<Op> {
        let l = PointerLayout::default();
        let ahc = compute_ahc(0x4000, 64, l.va_size()).bits();
        let ptr = l.compose(0x4000, 7, ahc);
        let forged = l.compose(0x5000, 0x99, 1);
        vec![
            Op::Pacma {
                pointer: ptr,
                size: 64,
            },
            Op::BndStr {
                pointer: ptr,
                size: 64,
            },
            Op::Load {
                pointer: forged,
                bytes: 8,
                chained: false,
            },
        ]
    }

    #[test]
    fn one_pass_yields_one_report_per_policy_in_order() {
        let reports = MatrixScan::run(
            &Policy::ALL,
            ops_with_forged_load().into_iter(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        assert_eq!(reports.len(), Policy::ALL.len());
        for (p, report) in Policy::ALL.iter().zip(&reports) {
            assert_eq!(report.policy, *p);
            assert_eq!(report.ops_scanned, 3);
            assert_eq!(report.total_diagnostics(), 1, "{p}");
        }
    }

    #[test]
    fn matrix_report_absorbs_rows_and_renders() {
        let mut matrix = MatrixReport::new("hmmer", 0.004, vec![1, 2], Policy::ALL.to_vec());
        let reports = MatrixScan::run(
            &Policy::ALL,
            ops_with_forged_load().into_iter(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        matrix.absorb("pac-tamper", &reports);
        matrix.absorb("pac-tamper", &reports);
        let entry = matrix.entry("pac-tamper").expect("row exists");
        for p in 0..Policy::ALL.len() {
            assert!(entry.detected(p));
            assert_eq!(entry.diagnostics(p), 2, "two seeds absorbed");
        }
        assert_eq!(matrix.ops_scanned, 6);
        let json = matrix.to_json();
        assert!(json.contains("\"aos-lint-matrix/v1\""));
        assert!(json.contains("\"pac-tamper\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = matrix.to_table();
        assert!(table.contains("pac-tamper"));
        assert!(table.contains("hit(2)"));
    }
}
