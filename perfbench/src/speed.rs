//! Host speed, read off a fixed reference kernel.
//!
//! The benchmark shares its machine's caches and memory bandwidth with
//! other tenants, whose load drifts in phases of seconds to minutes. In a
//! slow phase every memory-bound step slows: the same query takes up to
//! half as long again, and a run taken in one phase cannot be compared
//! with a run taken in another. So the timed loop interleaves a
//! reference kernel with the operations, no more often than every
//! [`REFERENCE_EVERY_MS`], and each operation is scaled by how fast the
//! references nearest it ran (set-ups by a reference before and one
//! after each):
//!
//! ```text
//! scaled time = host wall time × NOMINAL_NS / median reference time
//! ```
//!
//! The scaled times are host wall times on a host that runs the
//! reference in [`NOMINAL_NS`]; the raw wall times are printed beside
//! them. The kernel runs no code of the system under test (it copies a
//! 4 MB buffer into another, twice), so a change to the system moves the
//! scaled times as much as the raw ones, while a change of the host's
//! phase moves both the operations and the reference. Between two
//! references the operations evict the kernel's buffers from the caches,
//! as they evict each other's data; so a reference is never run twice in
//! a row, where it would find its buffers cached.

use std::hint::black_box;
use std::time::Instant;

/// Reference time of the nominal host: 8 MB copied in 1 ms.
pub const NOMINAL_NS: f64 = 1.0e6;
/// Fewest milliseconds between two references in the timed loop.
pub const REFERENCE_EVERY_MS: u128 = 20;

/// 4 MB of `u64`.
const WORDS: usize = 1 << 19;
const PASSES: usize = 2;

/// The reference kernel and its buffers, allocated and touched once.
#[derive(Debug)]
pub struct Reference {
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let src: Vec<u64> = (0..WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut r = Reference {
            dst: vec![0; src.len()],
            src,
        };
        r.time();
        r
    }

    /// Run the kernel once; its host wall time, ns.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
        t0.elapsed().as_nanos() as f64
    }
}

/// The factor that scales host wall time measured beside references of
/// median time `reference_ns` to the nominal host.
pub fn scale(reference_ns: f64) -> f64 {
    NOMINAL_NS / reference_ns.max(1.0)
}
