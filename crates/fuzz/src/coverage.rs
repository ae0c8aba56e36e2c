//! Campaign coverage: which step kinds, policy rules, and dynamic
//! verdicts a fuzzing run has exercised.
//!
//! A [`CoverageMap`] is a set of *coverage points* — short canonical
//! strings like `step:heap-spray`, `rule:cryptsan:revoked-key`, or
//! `dyn:AOS:detected` — stored as FNV-1a 64 fingerprints in a sorted
//! set. The map is what makes the engine's `--coverage-guided` mode
//! work: a scenario that lights a point no earlier scenario lit is
//! *interesting*, and interesting chains get mutation priority over
//! fresh uniform draws.
//!
//! Two invariants the tests pin:
//!
//! - **Determinism** — the same outcomes observed in any order
//!   produce the same [`fingerprint`](CoverageMap::fingerprint)
//!   (points are hashed individually and the set is sorted);
//! - **Monotonicity** — [`merge`](CoverageMap::merge) is a set union:
//!   points are never lost, and the merged fingerprint depends only
//!   on the union.

use std::collections::BTreeSet;

use aos_util::fnv::{fnv1a64, OFFSET_BASIS};

use crate::differential::DifferentialOutcome;

/// The set of coverage points a campaign has reached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    points: BTreeSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Adds one named point; `true` if it was new.
    pub fn insert(&mut self, point: &str) -> bool {
        self.points.insert(fnv1a64(OFFSET_BASIS, point.as_bytes()))
    }

    /// Whether a named point has been reached.
    pub fn covers(&self, point: &str) -> bool {
        self.points
            .contains(&fnv1a64(OFFSET_BASIS, point.as_bytes()))
    }

    /// Distinct points reached.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Folds one differential outcome into the map, returning how
    /// many of its points were new. The points are:
    ///
    /// - `step:<kind>` per planned step;
    /// - `rule:<policy>:<rule>` per static rule a policy fired;
    /// - `dyn:<system>:<detected|missed>` per dynamic verdict
    ///   (detected = the faulted stream added violations).
    pub fn observe(&mut self, outcome: &DifferentialOutcome) -> usize {
        let mut fresh = 0;
        for step in &outcome.steps {
            fresh += usize::from(self.insert(&format!("step:{step}")));
        }
        for verdict in &outcome.policies {
            for rule in &verdict.rules {
                fresh += usize::from(
                    self.insert(&format!("rule:{}:{rule}", verdict.policy.name())),
                );
            }
        }
        for verdict in &outcome.systems {
            let label = if verdict.delta() > 0 { "detected" } else { "missed" };
            fresh += usize::from(self.insert(&format!("dyn:{}:{label}", verdict.system)));
        }
        fresh
    }

    /// Set-union with another map, returning how many points were new
    /// to `self`. Monotone: no point present in either map is lost.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let before = self.points.len();
        self.points.extend(other.points.iter().copied());
        self.points.len() - before
    }

    /// Order-independent FNV-1a 64 fingerprint of the reached set.
    /// Equal iff the two maps cover exactly the same points.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = OFFSET_BASIS;
        for point in &self.points {
            hash = fnv1a64(hash, &point.to_le_bytes());
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_does_not_change_the_fingerprint() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        for p in ["step:uaf", "rule:aos:access-after-clear", "dyn:AOS:detected"] {
            assert!(a.insert(p));
        }
        for p in ["dyn:AOS:detected", "step:uaf", "rule:aos:access-after-clear"] {
            assert!(b.insert(p));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 3);
        assert!(a.covers("step:uaf"));
        assert!(!a.covers("step:double-free"));
    }

    #[test]
    fn duplicate_points_are_not_new() {
        let mut map = CoverageMap::new();
        assert!(map.insert("step:heap-spray"));
        assert!(!map.insert("step:heap-spray"));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn merge_is_a_monotone_union() {
        let mut a = CoverageMap::new();
        a.insert("step:uaf");
        a.insert("dyn:Baseline:missed");
        let mut b = CoverageMap::new();
        b.insert("step:uaf");
        b.insert("rule:pactight:forged-pointer");
        let mut union = a.clone();
        assert_eq!(union.merge(&b), 1, "only the rule point is new");
        assert_eq!(union.len(), 3);
        for p in [&a, &b] {
            let mut again = union.clone();
            assert_eq!(again.merge(p), 0, "union already covers both inputs");
            assert_eq!(again.fingerprint(), union.fingerprint());
        }
        // Union fingerprint is order-independent too.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other.fingerprint(), union.fingerprint());
    }
}
