//! # hsim-mem — memory subsystem of the hybrid-memory simulator
//!
//! Implements every storage component of the paper's architecture
//! (Figure 1 / Table 1):
//!
//! * [`backing`] — everything behind the last-level cache: the functional
//!   64-bit address space (sparse paged memory — caches are *timing*
//!   models; data always lives here, which is what makes the end-to-end
//!   coherence checks possible) and the [`DramController`] timing model
//!   (per-bank row buffers, open-row policy, bounded posted-write queue
//!   with FR-FCFS-style hit-first draining).
//! * [`cache`] — set-associative cache arrays with LRU replacement,
//!   write-through and write-back policies, and the Table 3 access
//!   accounting (demand, prefetch, fill, write-back, snoop, invalidate).
//! * [`mshr`] — miss-status holding registers: in-flight miss merging and
//!   occupancy limits.
//! * [`prefetch`] — the IP-based stream prefetcher of Table 1, with a
//!   finite per-PC history table (the source of the paper's
//!   "collisions in the history tables" effect for many-stream loops).
//! * [`tlb`] — a TLB model for system-memory accesses; local-memory
//!   accesses bypass it entirely (paper §2.1).
//! * [`lm`] — the local memory (scratchpad) timing model.
//! * [`dma`] — the DMA controller: `dma-get` / `dma-put` / `dma-synch`,
//!   coherent with the cache hierarchy (snoops on get, invalidates on put).
//! * [`fault`] — deterministic fault injection: a seeded, counter-based
//!   plan ([`FaultConfig`]) driving transient DRAM read errors, DMA
//!   timeouts and directory NACKs, all recovered by bounded
//!   retry/backoff — faults perturb timing only, never architectural
//!   state.
//! * [`hierarchy`] — the L1/L2/L3 + DRAM walk that ties the above
//!   together and produces per-level access counts and latencies; the
//!   shared backside ([`SharedBackside`]) lives here as a vector of
//!   address-interleaved L3 banks with per-bank arbitrated ports in
//!   front of the DRAM controller, with per-core statistics that
//!   partition the chip totals exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod cache;
pub mod dma;
pub mod fault;
pub mod hierarchy;
pub mod lm;
pub mod mshr;
pub mod prefetch;
pub mod tlb;

pub use backing::{DramConfig, DramController, DramStats, DramTiming, PagedMem, RowOutcome};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats, WritePolicy};
pub use dma::{DmaConfig, DmaOp, DmaStats, Dmac};
pub use fault::{FaultConfig, FaultEscalation, FaultRoller, FaultSite};
pub use hierarchy::{
    AccessResponse, BacksideCoreStats, CacheEvent, CoherenceConfig, CoherenceMode, CoherenceStats,
    L3Geometry, Level, MemConfig, MemSystem, SharedBackside,
};
pub use lm::{LmConfig, LocalMem};
pub use mshr::MshrFile;
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
pub use tlb::{Tlb, TlbConfig};
