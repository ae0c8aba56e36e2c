//! Shared utilities for the AOS reproduction workspace.
//!
//! This crate deliberately avoids external dependencies so every workload
//! trace, PAC distribution and simulation result in the repository is
//! **bit-reproducible** across platforms and library versions:
//!
//! - [`rng`] — a small, fast, seedable PRNG family ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`]) plus the sampling helpers the workload
//!   generator needs (uniform ranges, Bernoulli, Zipf, discrete tables).
//! - [`stats`] — the summary statistics the paper reports (mean, standard
//!   deviation, geometric mean) and a fixed-bin [`stats::Histogram`].
//! - [`par`] — a `std::thread::scope` fork/join helper
//!   ([`par::ordered_parallel_map`]) that fans independent work items
//!   across a worker pool while preserving input order, the substrate
//!   for the campaign runner in `aos-core`; its panic-isolating twin
//!   [`par::ordered_parallel_catch`] turns worker panics into per-item
//!   errors instead of poisoning the whole join, which is how one
//!   failing campaign cell is kept from sinking the rest.
//! - [`error`] — the shared [`error::AosError`] taxonomy the pipeline
//!   crates converge to at subsystem boundaries.
//! - [`fnv`] — FNV-1a 64 ([`fnv::fnv1a64`]), the stable fingerprint
//!   behind workload seeds, fuzzing digests and corpus replay digests.
//! - [`json`] — [`json::escape`], the one JSON string escape the
//!   hand-rolled report emitters share.
//! - [`telemetry`] — the zero-cost-when-disabled metrics registry
//!   ([`telemetry::Telemetry`] handle, fixed counter/gauge/histogram
//!   taxonomy, mergeable [`telemetry::TelemetrySnapshot`]) that every
//!   pipeline stage records into.
//! - [`testdir`] — [`TestDir`], the per-test scratch directory keyed by
//!   test name and process id, so tests running in parallel never
//!   share files.
//!
//! # Examples
//!
//! ```
//! use aos_util::rng::Xoshiro256StarStar;
//! use aos_util::stats::geomean;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let x = rng.next_range(16);
//! assert!(x < 16);
//! assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

pub mod error;
pub mod fnv;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod testdir;

pub use error::AosError;
pub use telemetry::{Counter, Gauge, Hist, Telemetry, TelemetrySnapshot};
pub use testdir::TestDir;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{geomean, mean, stdev, Histogram};
