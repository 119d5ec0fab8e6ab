//! # hsim-workloads — the evaluation workloads (§4)
//!
//! * [`mod@microbench`] — the Table 2 microbenchmark: a load/add/store loop
//!   in four modes (Baseline / RD / WR / RD+WR) with an adjustable
//!   percentage of potentially incoherent references.
//! * [`nas`] — six kernels reproducing the *memory-reference signatures*
//!   of the NAS benchmarks used in the paper (CG, EP, FT, IS, MG, SP):
//!   the per-benchmark counts of strided / local / irregular /
//!   potentially-incoherent references of Table 3 and §4.2, with data
//!   footprints and reuse patterns matching the paper's narrative. The
//!   real NAS sources and 150M-instruction SimPoints are not reproducible
//!   inside this simulator; the signatures preserve what the evaluated
//!   mechanisms react to — which references are guarded, what they hit
//!   and how far apart reuses are.
//!
//! * [`comm`] — communication workloads, where the traffic *between*
//!   cores is the workload: producer-consumer flag/data ping-pong,
//!   multi-buffered queues, lock/barrier contention, and the
//!   request-serving kernels behind the open-loop latency driver.
//!   Per-core kernel sets with identical array layouts whose
//!   `mark_comm`-flagged arrays become directory-tracked shared lines.
//!
//! All kernels are deterministic: data is generated from fixed seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod microbench;
pub mod nas;

pub use comm::{
    all_comm, barrier, lock, ping_pong, queue, request_serving, CommWorkload,
    RequestServingWorkload,
};
pub use microbench::{microbench, MicroMode, MicrobenchConfig};
pub use nas::{all_nas, cg, ep, ft, is, mg, sp, Scale};

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// The generator every workload draws its data from, seeded per array
/// set.
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` uniform draws from `range`, in order. The iterator knows its
/// length, so collecting it into a kernel's buffer allocates once.
fn uniform<'a, T: SampleUniform + 'a>(
    rng: &'a mut StdRng,
    n: u64,
    range: Range<T>,
) -> impl Iterator<Item = T> + 'a {
    (0..n).map(move |_| rng.gen_range(range.clone()))
}
