//! FNV-1a 64: the workspace's stable, platform-independent
//! fingerprint.
//!
//! It seeds every workload's trace stream (from the profile name),
//! fingerprints fuzzing coverage points and verdict digests, and
//! digests replayed corpus results. The seed-and-continue form lets a
//! caller fold several byte strings into one hash.
//!
//! # Examples
//!
//! ```
//! use aos_util::fnv::{fnv1a64, OFFSET_BASIS};
//!
//! let whole = fnv1a64(OFFSET_BASIS, b"foobar");
//! let split = fnv1a64(fnv1a64(OFFSET_BASIS, b"foo"), b"bar");
//! assert_eq!(whole, split);
//! assert_eq!(fnv1a64(OFFSET_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

/// The FNV-1a 64 offset basis: the hash of the empty string.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a 64 pass over `bytes`, continuing from `hash` (start
/// from [`OFFSET_BASIS`]).
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}
