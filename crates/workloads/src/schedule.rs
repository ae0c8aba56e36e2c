//! Full-program allocation schedules: the Tables II and III
//! reproduction.
//!
//! The paper gathered these profiles with Valgrind `--trace-malloc`
//! over full program runs. We replay an allocation schedule with the
//! same three invariants — total allocations, total deallocations and
//! peak live count — against the real [`aos_heap::HeapAllocator`] and
//! report what the allocator's own accounting measured.

use aos_heap::{HeapAllocator, HeapConfig};
use aos_heap::profile::UsageProfile;
use aos_util::fnv::{fnv1a64, OFFSET_BASIS};
use aos_util::rng::{DiscreteTable, Xoshiro256StarStar};
use std::collections::VecDeque;

use crate::profile::WorkloadProfile;

/// Replays `profile`'s full-program allocation schedule and returns
/// the allocator's measured usage profile.
///
/// The schedule is: ramp to the peak live count, churn
/// (free-oldest-then-allocate pairs) until the allocation budget is
/// spent, then drain the remaining deallocation budget. This
/// reproduces all three reported columns exactly whenever the paper's
/// triple is self-consistent (peak ≥ allocations − deallocations); for
/// the one inconsistent row (soplex), the measured peak is the
/// arithmetically forced minimum — see EXPERIMENTS.md.
///
/// # Examples
///
/// ```
/// use aos_workloads::{profile, schedule};
/// let mcf = profile::by_name("mcf").unwrap();
/// let usage = schedule::run_full_schedule(mcf, 1.0);
/// assert_eq!(usage.allocations, 8);
/// assert_eq!(usage.deallocations, 8);
/// assert_eq!(usage.max_live, 6);
/// ```
pub fn run_full_schedule(profile: &WorkloadProfile, scale: f64) -> UsageProfile {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let allocs = ((profile.full_allocations as f64 * scale).round() as u64).max(1);
    let deallocs =
        (profile.full_deallocations as f64 * scale).round() as u64;
    let deallocs = deallocs.min(allocs);
    let peak = ((profile.full_max_active as f64 * scale).round() as u64)
        .clamp(1, allocs)
        .max(allocs - deallocs);

    let mut heap = HeapAllocator::new(HeapConfig {
        limit_bytes: 1 << 44,
        ..HeapConfig::default()
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(hash_name(profile.name));
    let sizes = DiscreteTable::new(profile.alloc_sizes.to_vec());
    let mut live: VecDeque<u64> = VecDeque::new();

    let malloc = |heap: &mut HeapAllocator, live: &mut VecDeque<u64>,
                  rng: &mut Xoshiro256StarStar| {
        let size = *sizes.sample(rng);
        let a = heap
            .malloc(size)
            .expect("schedule stays within the heap limit");
        live.push_back(a.base);
    };
    let free_oldest = |heap: &mut HeapAllocator, live: &mut VecDeque<u64>| {
        let base = live.pop_front().expect("free requires a live chunk");
        heap.free(base).expect("live chunks free cleanly");
    };

    // Phase 1: ramp to the peak.
    for _ in 0..peak {
        malloc(&mut heap, &mut live, &mut rng);
    }
    // Phase 2: churn pairs.
    for _ in 0..(allocs - peak) {
        free_oldest(&mut heap, &mut live);
        malloc(&mut heap, &mut live, &mut rng);
    }
    // Phase 3: drain the remaining frees.
    let churn_frees = allocs - peak;
    for _ in 0..(deallocs - churn_frees) {
        free_oldest(&mut heap, &mut live);
    }
    *heap.profile()
}

/// FNV-1a 64 of the profile name, so each benchmark gets its own
/// deterministic stream.
pub(crate) fn hash_name(name: &str) -> u64 {
    fnv1a64(OFFSET_BASIS, name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;

    #[test]
    fn small_rows_reproduce_exactly() {
        for name in ["bzip2", "mcf", "sjeng", "libquantum", "lbm", "md5sum"] {
            let p = by_name(name).unwrap();
            let u = run_full_schedule(p, 1.0);
            assert_eq!(u.allocations, p.full_allocations, "{name}");
            assert_eq!(u.deallocations, p.full_deallocations, "{name}");
            assert_eq!(u.max_live, p.full_max_active, "{name}");
            assert_eq!(u.live, p.full_allocations - p.full_deallocations, "{name}");
        }
    }

    #[test]
    fn medium_row_reproduces_exactly() {
        let p = by_name("gobmk").unwrap();
        let u = run_full_schedule(p, 1.0);
        assert_eq!(u.allocations, 137_369);
        assert_eq!(u.deallocations, 137_358);
        assert_eq!(u.max_live, 1_021);
    }

    #[test]
    fn soplex_peak_is_forced_by_arithmetic() {
        // The paper's soplex row (peak 140, allocs 98 955, frees
        // 34 025) is internally inconsistent: 64 930 chunks are never
        // freed, so the peak cannot be 140. We measure the forced
        // minimum.
        let p = by_name("soplex").unwrap();
        let u = run_full_schedule(p, 1.0);
        assert_eq!(u.allocations, 98_955);
        assert_eq!(u.deallocations, 34_025);
        assert_eq!(u.max_live, 98_955 - 34_025);
    }

    #[test]
    fn scaling_shrinks_the_schedule_proportionally() {
        let p = by_name("gcc").unwrap();
        let u = run_full_schedule(p, 0.01);
        let expect = (p.full_allocations as f64 * 0.01).round() as u64;
        assert_eq!(u.allocations, expect);
        assert!(u.max_live <= u.allocations);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        run_full_schedule(by_name("mcf").unwrap(), 0.0);
    }

    #[test]
    fn name_hash_is_stable_and_distinct() {
        assert_eq!(hash_name("gcc"), hash_name("gcc"));
        assert_ne!(hash_name("gcc"), hash_name("mcf"));
    }
}
