//! Configuration and the small value types every layer of the memory
//! system speaks: the Table 1 geometry ([`MemConfig`]), the inter-core
//! coherence model and its message timings ([`CoherenceMode`],
//! [`CoherenceConfig`]), the banking of the shared L3 ([`L3Geometry`]),
//! and what an access reports back ([`Level`], [`AccessResponse`],
//! [`CacheEvent`]).

use crate::backing::DramConfig;
use crate::cache::{CacheConfig, WritePolicy};
use crate::dma::DmaConfig;
use crate::fault::FaultConfig;
use crate::lm::LmConfig;
use crate::prefetch::PrefetchConfig;
use crate::tlb::TlbConfig;
use hsim_coherence::protocol::CoherenceProtocol;

/// Which component served an access (for AMAT and replay accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// L1 data (or instruction) cache.
    L1,
    /// Unified L2.
    L2,
    /// Unified (shared) L3.
    L3,
    /// Main memory.
    Dram,
    /// Local memory (scratchpad).
    Lm,
    /// Store-to-load forwarding inside the LSQ (set by the core).
    Forward,
    /// Non-cacheable MMIO (DMAC registers).
    Mmio,
}

/// A residency change in the data-cache hierarchy, streamed to the
/// coherence tracker when event collection is enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEvent {
    /// Line-aligned address.
    pub line: u64,
    /// True for a line placement, false for an eviction/invalidation.
    pub fill: bool,
}

/// Result of a data access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResponse {
    /// Total latency in cycles, including any TLB penalty.
    pub latency: u64,
    /// The component that served the access.
    pub served: Level,
    /// TLB miss penalty included in `latency` (0 on TLB hit or LM access).
    pub tlb_penalty: u64,
}

/// Geometry of the banked shared L3: the array is split into
/// address-interleaved banks (consecutive line addresses rotate through
/// them), each with its own arbitrated port of `l3_port_gap` occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L3Geometry {
    /// Number of banks (power of two, dividing the set count). 1
    /// reproduces the single-ported monolithic L3 of earlier revisions
    /// exactly.
    pub banks: usize,
}

impl Default for L3Geometry {
    fn default() -> Self {
        L3Geometry { banks: 8 }
    }
}

/// Inter-core coherence model of the shared backside (see the
/// [`backside`](crate::backside) module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Per-core address tagging: cores keep private replicas of every
    /// cacheable line (the historical model; bit-identical to the
    /// pre-directory backside).
    Replicate,
    /// Directory slices at the L3 banks stepping the three-state MSI
    /// table (no Exclusive state; dirty recalls re-read memory).
    Msi,
    /// Directory slices stepping the four-state MESI table (PR 4's
    /// protocol, row for row; a frozen golden of its 20 transitions pins
    /// the table).
    Mesi,
    /// Directory slices stepping the MOESI table: an Owned state shares
    /// dirty lines cache-to-cache, deferring write-backs to eviction.
    Moesi,
    /// Directory slices stepping the MESIF table: a designated clean
    /// Forwarder answers shared reads.
    Mesif,
}

impl CoherenceMode {
    /// Every mode, in the order benches and CI sweep them.
    pub const ALL: [CoherenceMode; 5] = [
        CoherenceMode::Replicate,
        CoherenceMode::Msi,
        CoherenceMode::Mesi,
        CoherenceMode::Moesi,
        CoherenceMode::Mesif,
    ];

    /// The directory-backed modes (everything but `Replicate`) — the
    /// protocol axis equivalence suites and sweeps iterate.
    pub const DIRECTORY: [CoherenceMode; 4] = [
        CoherenceMode::Msi,
        CoherenceMode::Mesi,
        CoherenceMode::Moesi,
        CoherenceMode::Mesif,
    ];

    /// Parses a mode name, case-insensitively: `replicate` or the empty
    /// string select [`CoherenceMode::Replicate`], `msi`, `mesi`, `moesi`
    /// and `mesif` the corresponding directory protocol. Anything else is
    /// an `Err` listing the valid names.
    pub fn parse(knob: &str) -> Result<Self, String> {
        let found = Self::ALL
            .into_iter()
            .find(|m| knob.eq_ignore_ascii_case(m.name()));
        match found {
            Some(mode) => Ok(mode),
            None if knob.is_empty() => Ok(CoherenceMode::Replicate),
            None => Err(format!(
                "unknown coherence mode {knob:?}: expected one of {}",
                Self::ALL.map(Self::name).join(", ")
            )),
        }
    }

    /// Reads the mode from the `HSIM_COHERENCE` environment variable
    /// through [`CoherenceMode::parse`] (unset selects `Replicate`), and
    /// panics on a value it rejects, so a typo cannot silently run
    /// `Replicate`. This is the CI matrix knob: the same test and
    /// bench-smoke suite runs once per mode. Tests that pin recorded
    /// cycle counts set the mode explicitly instead of inheriting it
    /// from here.
    pub fn from_env() -> Self {
        let knob = std::env::var_os("HSIM_COHERENCE").unwrap_or_default();
        Self::parse(&knob.to_string_lossy()).unwrap_or_else(|e| panic!("HSIM_COHERENCE: {e}"))
    }

    /// Whether this mode runs directory slices at the L3 banks (every
    /// mode but `Replicate`).
    pub fn is_directory(self) -> bool {
        self.protocol().is_some()
    }

    /// The protocol table family member this mode steps (`None` under
    /// `Replicate`).
    pub fn protocol(self) -> Option<CoherenceProtocol> {
        match self {
            CoherenceMode::Replicate => None,
            CoherenceMode::Msi => Some(CoherenceProtocol::Msi),
            CoherenceMode::Mesi => Some(CoherenceProtocol::Mesi),
            CoherenceMode::Moesi => Some(CoherenceProtocol::Moesi),
            CoherenceMode::Mesif => Some(CoherenceProtocol::Mesif),
        }
    }

    /// The lower-case knob / report name.
    pub fn name(self) -> &'static str {
        self.protocol().map_or("replicate", CoherenceProtocol::name)
    }
}

/// Coherence-mode configuration: the model plus the message timings the
/// directory charges on the home bank's port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// The inter-core model.
    pub mode: CoherenceMode,
    /// Cycles an M-state intervention adds to the requesting access
    /// (recalling the owner's dirty line: probe + transfer).
    pub intervention_latency: u64,
    /// Cycles an invalidation round adds to a writing access that must
    /// recall other sharers' copies (the messages travel in parallel;
    /// one round covers all sharers).
    pub inval_latency: u64,
    /// Cycles a back-invalidation costs the *receiving* tile per dirty
    /// L1/L2 line it recalls: the recalled line's transfer occupies the
    /// tile's cache port, so recall storms couple into the victim
    /// core's timing instead of only dropping its copies for free.
    /// Charged at the memory operation that drains the recall queue.
    pub dirty_recall_latency: u64,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            mode: CoherenceMode::Replicate,
            // An intervention is an L2-probe round trip into another
            // tile plus the line transfer: on the order of an L2 visit
            // both ways.
            intervention_latency: 30,
            // An invalidation round is a one-way multicast plus the
            // combined acknowledgement.
            inval_latency: 12,
            // Recalling a dirty upper line reads it out of the L2 — one
            // L2 visit's worth of port occupancy on the victim tile.
            dirty_recall_latency: 15,
        }
    }
}

impl CoherenceConfig {
    /// The default timings with the mode taken from `HSIM_COHERENCE`
    /// (see [`CoherenceMode::from_env`]).
    pub fn from_env() -> Self {
        CoherenceConfig {
            mode: CoherenceMode::from_env(),
            ..Default::default()
        }
    }
}

/// Full memory-system configuration.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3 (shared across cores in a multi-core machine).
    pub l3: CacheConfig,
    /// Banking of the shared L3.
    pub l3_geometry: L3Geometry,
    /// Number of L1D MSHR entries.
    pub mshr_entries: usize,
    /// Prefetcher configuration.
    pub prefetch: PrefetchConfig,
    /// TLB configuration.
    pub tlb: TlbConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Number of independent DRAM channels behind the L3. Lines are
    /// interleaved across channels by the line-address bits directly
    /// above the L3 bank-select bits, so consecutive lines stripe over
    /// banks first and channels second. Must be a power of two; 1 (the
    /// default) reproduces the single-channel backside bit for bit.
    pub dram_channels: usize,
    /// Occupancy of the shared L3 port per request, in cycles. 0 models
    /// an ideally-ported L3 (the single-core configuration); multi-core
    /// machines raise it to model backside bus contention.
    pub l3_port_gap: u64,
    /// Local memory (absent in the cache-based system).
    pub lm: Option<LmConfig>,
    /// DMA controller configuration.
    pub dma: DmaConfig,
    /// Inter-core coherence model of the shared backside.
    pub coherence: CoherenceConfig,
    /// Deterministic fault-injection plan threaded to every site of the
    /// fabric (DRAM reads, the DMA engine, the bank ports). The default
    /// [`FaultConfig::none`] is bit-identical to a fault-free machine.
    pub fault: FaultConfig,
}

impl MemConfig {
    /// The hybrid memory system of Table 1: 32 KB L1D + 32 KB LM.
    ///
    /// One deviation from Table 1: the paper's 24-way 256 KB L2 implies a
    /// non-power-of-two set count, so we model a 16-way L2 of the same
    /// capacity.
    pub fn hybrid() -> Self {
        let l1 = |name| CacheConfig {
            name,
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 2,
            write_policy: WritePolicy::WriteThrough,
        };
        MemConfig {
            l1i: l1("L1I"),
            l1d: l1("L1D"),
            l2: CacheConfig {
                name: "L2",
                size_bytes: 256 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 15,
                write_policy: WritePolicy::WriteBack,
            },
            l3: CacheConfig {
                name: "L3",
                size_bytes: 4 * 1024 * 1024,
                ways: 32,
                line_bytes: 64,
                latency: 40,
                write_policy: WritePolicy::WriteBack,
            },
            l3_geometry: L3Geometry::default(),
            mshr_entries: 48,
            prefetch: PrefetchConfig::default(),
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
            dram_channels: 1,
            l3_port_gap: 0,
            lm: Some(LmConfig::default()),
            dma: DmaConfig::default(),
            coherence: CoherenceConfig::from_env(),
            fault: FaultConfig::none(),
        }
    }

    /// The cache-based comparison system of §4.3: no LM, and for fairness
    /// the L1D capacity is doubled to 64 KB (32 KB L1 + 32 KB LM in the
    /// hybrid system).
    pub fn cache_based() -> Self {
        let mut cfg = Self::hybrid();
        cfg.l1d.size_bytes = 64 * 1024;
        cfg.lm = None;
        cfg
    }

    /// Whether every cache level of this configuration uses the L3's
    /// line size. The shared backside (and its directory slices) track
    /// residency at L3-line granularity; a tile whose L1/L2 lines were
    /// coarser or finer would fill and evict at mismatched alignments
    /// and leave stale directory state behind.
    pub fn line_sizes_uniform(&self) -> bool {
        let line = self.l3.line_bytes;
        self.l1i.line_bytes == line && self.l1d.line_bytes == line && self.l2.line_bytes == line
    }

    /// Whether two per-tile configurations agree on everything the
    /// *shared* backside is built from: the L3 array and its banking,
    /// the DRAM controller, the L3 port occupancy, the inter-core
    /// coherence model and the fault plan (whose DRAM and NACK sites
    /// live in the shared slice) — and both keep a uniform line size through
    /// their own hierarchy ([`MemConfig::line_sizes_uniform`]), since
    /// the backside tracks residency at L3-line granularity. Tiles of
    /// one heterogeneous machine may differ in anything else above the
    /// L3 (core width, L1/L2 capacity and associativity, LM size or
    /// absence, prefetcher, MSHRs, TLB, DMA engine) — there is only
    /// one L3 and one memory channel per chip.
    pub fn backside_compatible(&self, other: &MemConfig) -> bool {
        self.line_sizes_uniform()
            && other.line_sizes_uniform()
            && self.l3 == other.l3
            && self.l3_geometry == other.l3_geometry
            && self.dram == other.dram
            && self.dram_channels == other.dram_channels
            && self.l3_port_gap == other.l3_port_gap
            && self.coherence == other.coherence
            && self.fault == other.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backside_compatibility_checks_the_shared_slice_and_line_sizes() {
        let a = MemConfig::hybrid();
        // The cache-based system differs only above the L3: compatible.
        assert!(a.backside_compatible(&MemConfig::cache_based()));
        // Disagreeing on the shared slice is not.
        let mut b = MemConfig::hybrid();
        b.l3_geometry.banks = 1;
        assert!(!a.backside_compatible(&b));
        let mut b = MemConfig::hybrid();
        b.dram.gap += 1;
        assert!(!a.backside_compatible(&b));
        // A tile whose L2 line size diverges from the L3 granularity
        // would leave stale directory state behind: rejected even
        // though the L3 configurations match.
        let mut b = MemConfig::hybrid();
        b.l2.line_bytes = 128;
        assert!(!b.line_sizes_uniform());
        assert!(!a.backside_compatible(&b));
        // The fault plan's DRAM and NACK sites live in the shared slice:
        // tiles must agree on it.
        let mut b = MemConfig::hybrid();
        b.fault = FaultConfig::uniform(1, 0.1);
        assert!(!a.backside_compatible(&b));
    }

    /// `parse`, not the environment: tests share one process, and other
    /// tests read `HSIM_COHERENCE`.
    #[test]
    fn coherence_mode_names_parse_and_typos_are_rejected() {
        assert_eq!(CoherenceMode::parse(""), Ok(CoherenceMode::Replicate));
        for mode in CoherenceMode::ALL {
            assert_eq!(CoherenceMode::parse(mode.name()), Ok(mode));
            let upper = mode.name().to_ascii_uppercase();
            assert_eq!(CoherenceMode::parse(&upper), Ok(mode));
        }
        assert_eq!(CoherenceMode::parse("MeSiF"), Ok(CoherenceMode::Mesif));
        for typo in ["mseI ", "moesi2", "mesi ", " msi", "none"] {
            let err = CoherenceMode::parse(typo).expect_err(typo);
            assert!(
                err.contains(typo) && err.contains("replicate, msi, mesi, moesi, mesif"),
                "{err}"
            );
        }
    }
}
