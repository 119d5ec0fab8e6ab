//! Experiment drivers: one function per paper table/figure, plus the
//! communication-workload and request-serving drivers.
//!
//! The bench driver (`hsim-bench <name>`) prints these results in the
//! paper's format; the integration tests assert the qualitative shapes
//! at small scale. Each driver compiles the workload for the modes it
//! compares, runs the machine(s), and returns structured rows.
//!
//! **Running kernels** (`spec`). [`RunSpec`] is the single entry point
//! for simulating kernels: a builder that covers every machine shape —
//! single core, sharded homogeneous multicore, heterogeneous tiles with
//! weighted shards, per-core kernel sets (communication workloads),
//! clustered machines — plus verification against the reference
//! interpreter and host-time profiling.
//!
//! **Sweeps** (`sweeps`, `serving`). Every sweep driver fans its
//! independent simulation points across host threads with
//! [`parallel_map`], which returns the outputs in input order and runs
//! on the calling thread on a one-CPU host; each point is deterministic
//! and self-contained, so the results do not depend on the schedule.
//! This host threading is unrelated to the *simulated* multicore: one
//! sweep point may itself be an N-core [`crate::MultiMachine`].

mod serving;
mod spec;
mod sweeps;

pub use serving::*;
pub use spec::*;
pub use sweeps::*;
