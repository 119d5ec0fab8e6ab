//! # hsim — hybrid memory system with a hardware/software coherence protocol
//!
//! A from-scratch reproduction of *"Hardware-Software Coherence Protocol
//! for the Coexistence of Caches and Local Memories"* (Alvarez et al.,
//! SC 2012): a cycle-level out-of-order core with a cache hierarchy
//! **and** a scratchpad local memory, kept coherent by a per-core
//! hardware directory plus compiler-emitted guarded memory instructions.
//!
//! **Start with `ARCHITECTURE.md` in the repository root**: the crate
//! map, the tile/backside block diagram, the lifetime of a load (LM hit
//! / cache hit / L3 bank / DRAM row), and how the event-horizon
//! scheduler coexists with the banked backside bit-identically.
//!
//! ## Quickstart
//!
//! ```
//! use hsim::prelude::*;
//!
//! // The paper's running example: a[i] = b[i] with an update through a
//! // pointer the compiler cannot disambiguate from `a`.
//! let mut kb = KernelBuilder::new("example");
//! let a = kb.array_i64("a", 4096);
//! let b = kb.array_i64_init("b", &(0..4096).collect::<Vec<i64>>());
//! kb.begin_loop(4096);
//! let ra = kb.ref_affine(a, 1, 0);
//! let rb = kb.ref_affine(b, 1, 0);
//! kb.stmt(ra, Expr::Ref(rb));
//! kb.end_loop();
//! let kernel = kb.build().unwrap();
//!
//! // Compile for the coherent hybrid memory system and simulate.
//! let report = RunSpec::new(&kernel).run().unwrap().into_single();
//! assert!(report.cycles > 0);
//!
//! // The same kernel sharded across the cores of one 2-core machine:
//! // per-core tiles (pipeline, L1/L2, LM, directory) in front of a
//! // shared L3 + DRAM backside, ticked in lock step. The protocol is
//! // strictly per core (§3); only timing couples the cores.
//! let multi = RunSpec::new(&kernel).cores(2).run().unwrap().into_multi();
//! assert_eq!(multi.n_cores(), 2);
//! assert!(multi.makespan < report.cycles, "half the iterations per core");
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] | the simulated ISA: guarded/oracle memory ops, DMA, assembler |
//! | [`mem`] | caches, MSHRs, prefetcher, TLB, LM, DMAC, and the shared backside: banked L3 + row-buffer DRAM controller (`SharedBackside`, `DramController`) |
//! | [`coherence`] | the directory (Figure 4), Figure 6 state machine, runtime checker |
//! | [`core`] | 4-wide out-of-order core (Table 1) with the event-horizon cycle skipper |
//! | [`energy`] | Wattch-style activity-based energy model |
//! | [`compiler`] | loop IR, classification, tiling, guarded codegen, double store, kernel sharding (`Kernel::shard`, `Kernel::shard_weighted`, per-tile LM budgets via `compile_with_lm`) |
//! | [`workloads`] | Table 2 microbenchmark, six NAS-signature kernels, communication workloads (`workloads::comm`) |
//! | [`machine`] | the assembled systems — hybrid coherent / hybrid oracle / cache-based — as single-core [`Machine`]s or N-core [`MultiMachine`]s sharing one backside, homogeneous or with per-tile configurations |
//! | [`cluster`] | hierarchical clusters: per-cluster backside slices (own L3 + DRAM channel), each cluster run to completion on its own, one host thread each or serially ([`run_clusters`], [`ClusterTopology`]) |
//! | [`experiments`] | [`RunSpec`] (the one way to run kernels on any machine shape), the open-loop request-serving driver and [`parallel_map`] (host threads); the tables, figures and sweeps that use them live in `crates/bench` (`hsim-bench <name>`) |
//!
//! ## Multicore model
//!
//! [`Machine::new_multi_hetero`] (or [`MultiMachine::for_kernels`])
//! builds an N-core machine: everything the paper adds — local memory, coherence
//! directory, guarded AGU path, DMAC — is replicated per core and never
//! interacts across cores, exactly the §3 integration argument. The
//! cores share a banked L3 (per-bank round-robin port arbitration) and
//! one DRAM channel with per-bank row buffers; per-core contention
//! (bus-wait cycles, bank conflicts, DRAM lines and row outcomes) is
//! reported in each core's [`RunReport`] and aggregated in
//! [`MultiRunReport`], partitioning the chip totals exactly.
//! [`compiler::Kernel::shard`] splits one kernel into the disjoint
//! per-core slices the paper's evaluation model assumes, and the bench
//! driver's `backside` sweep measures row-buffer locality and bank
//! contention across kernels and core counts
//! (`cargo run -p hsim-bench -- backside`).
//!
//! Machines are built **per tile**: [`Machine::new_multi_hetero`] /
//! [`machine::MultiMachine::try_for_kernels_hetero`] take one
//! `MachineConfig` per core, so hybrid and cache-based tiles — or
//! hybrid tiles with different LM budgets — coexist on one chip under
//! one inter-core protocol (the paper's §3/§6 coexistence claim,
//! simulated). [`compiler::Kernel::shard_weighted`] matches iteration
//! counts to tile strength, and the bench driver's `hetero` sweep
//! visits hybrid:cache ratios and LM asymmetry
//! (`cargo run -p hsim-bench -- hetero`).
//!
//! ## Cycle-skipping scheduler
//!
//! Long runs are dominated by *dead time*: the ROB head waiting on a
//! DRAM-latency completion, fetch stalled behind an I-miss, a DMA
//! transfer in flight. The simulator fast-forwards those stretches
//! instead of walking them cycle by cycle. Each core reports its **event
//! horizon** — the earliest cycle at which anything can change
//! (`Core::next_event_at`: ROB-head completion, producer readiness,
//! fetch resume), clamped to the cycle budget — and the core's clock
//! jumps over the provably idle cycles in one step. The memory side is
//! never asked: every port call that starts a wait (a miss, a
//! presence-bit stall, a `dma-synch`, an I-miss) returns the cycle it
//! ends, so the core's horizon is complete — and a live core with no
//! horizon at all can never move again, so it fails with
//! `SimError::Deadlock` at once. One loop, [`hsim_core::Scheduler`],
//! serves a single core and [`MultiMachine::run`] alike: it keeps one
//! due cycle per tile and executes the earliest, ticking the due tiles
//! in the round-robin rotation lock-step would use at that cycle; a
//! tile's clock is caught up only when it is next due, so every
//! statistic stays **bit-identical** to the naive lock-step loop
//! (asserted by the `skip_equivalence` tests against the `lockstep:
//! true` escape hatch, [`MachineConfig::with_lockstep`]). `CoreStats::skipped_cycles` and
//! `RunReport::skipped_cycles` report how much dead time each workload
//! had; the repository's benchmark (`benchmark/`, declared in
//! `BENCHMARK.json`) turns that into simulated cycles per host second,
//! end to end and layer by layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod machine;
pub mod metrics;

pub use hsim_coherence as coherence;
pub use hsim_compiler as compiler;
pub use hsim_core as core;
pub use hsim_energy as energy;
pub use hsim_isa as isa;
pub use hsim_mem as mem;
pub use hsim_workloads as workloads;

pub use cluster::{
    cross_cluster_fallbacks, run_clusters, ClusterConfig, ClusterError, ClusterFailure,
    ClusterRunReport, ClusterTopology,
};
pub use experiments::{
    compile_for_tile, parallel_map, request_serving_on, MultiRunError, RunOutcome, RunSpec,
};
pub use machine::{Machine, MachineConfig, MultiMachine, SysMode, World};
pub use metrics::{
    activity, LatencyHistogram, MultiRunReport, RequestServingReport, RunReport, NOMINAL_CLOCK_HZ,
};

/// The most common imports for building and running kernels.
pub mod prelude {
    pub use crate::cluster::{
        ClusterConfig, ClusterError, ClusterFailure, ClusterRunReport, ClusterTopology,
    };
    pub use crate::experiments::{
        compile_for_tile, request_serving_on, MultiRunError, RunOutcome, RunSpec,
    };
    pub use crate::machine::{Machine, MachineConfig, MultiMachine, SysMode};
    pub use crate::metrics::{
        LatencyHistogram, MultiRunReport, RequestServingReport, RunReport, NOMINAL_CLOCK_HZ,
    };
    pub use hsim_compiler::{
        compile, compile_with_lm, interpret, CodegenMode, Expr, Kernel, KernelBuilder,
    };
    pub use hsim_core::config::{CoherenceConfig, CoherenceProtocol};
    pub use hsim_isa::{Phase, Program, ProgramBuilder, Route};
    pub use hsim_mem::{FaultConfig, FaultEscalation, FaultSite};
    pub use hsim_workloads::{microbench, MicroMode, MicrobenchConfig, Scale};
}
