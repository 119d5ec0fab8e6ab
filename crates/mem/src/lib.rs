//! # hsim-mem — memory subsystem of the hybrid-memory simulator
//!
//! Implements every storage component of the paper's architecture
//! (Figure 1 / Table 1):
//!
//! * [`backing`] — everything behind the last-level cache: the functional
//!   64-bit address space (sparse paged memory — caches are *timing*
//!   models; data always lives here, which is what makes the end-to-end
//!   coherence checks possible; a kernel's initial data is mapped into
//!   many memories as borrowed, copy-on-write windows of its one buffer,
//!   [`PagedMem::map_words`]) and the
//!   [`DramController`] timing model
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
//! * [`config`] — the Table 1 geometry ([`MemConfig`]), the inter-core
//!   protocol and message timings ([`CoherenceProtocol`],
//!   [`CoherenceConfig`]) and what an access reports back ([`Level`],
//!   [`AccessResponse`], [`CacheEvent`]).
//! * [`tile`] — the per-core [`MemSystem`]: the L1/L2 walk with MSHR
//!   merging, prefetch fills, write-through forwarding and the DMA bus
//!   requests, in front of the shared backside. Everything the paper's
//!   protocol adds is private to a tile.
//! * [`backside`] — where tiles meet: the [`SharedBackside`], a vector
//!   of address-interleaved L3 banks with per-bank arbitrated ports in
//!   front of the DRAM controller, with per-core statistics that
//!   partition the chip totals exactly. It resolves each line's home
//!   once and discharges what a directory transition owes in one place.
//! * `dirslice` (crate-private) — each bank's slice of the inter-core
//!   directory; the one file that knows how the directory is stored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod backside;
pub mod cache;
pub mod config;
mod dirslice;
pub mod dma;
pub mod fault;
pub mod lm;
pub mod mshr;
pub mod prefetch;
pub mod tile;
pub mod tlb;

pub use backing::{DramConfig, DramController, DramStats, DramTiming, PagedMem, RowOutcome};
pub use backside::{BacksideCoreStats, CoherenceStats, SharedBackside};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats, WritePolicy};
pub use config::{
    AccessResponse, CacheEvent, CoherenceConfig, CoherenceMode, CoherenceProtocol, L3Geometry,
    Level, MemConfig,
};
pub use dma::{DmaConfig, DmaOp, DmaStats, Dmac};
pub use fault::{FaultConfig, FaultEscalation, FaultRoller, FaultSite};
pub use lm::{LmConfig, LocalMem};
pub use mshr::MshrFile;
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
pub use tile::MemSystem;
pub use tlb::{Tlb, TlbConfig};

/// Fibonacci hashing: the top `bits` (1..=64) bits of `x` times 2^64/φ,
/// so keys that differ only in high bits — arrays a power of two apart —
/// still spread over a table of `1 << bits` slots. The page map and
/// memo of [`PagedMem`] and the buckets of [`MshrFile`] index by it.
#[inline]
pub(crate) fn fib_index(x: u64, bits: u32) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)
}
