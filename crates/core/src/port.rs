//! The interface between the core and the machine's memory world.
//!
//! The core executes instructions *functionally* at dispatch and needs
//! the machine to (a) resolve memory routing — the pre-MMU range check,
//! the coherence-directory lookup for guarded accesses, the oracle
//! routing of the incoherent baseline — and perform the functional data
//! access, (b) provide access *timing* at issue/commit, and (c) execute
//! DMA commands. [`MemoryPort`] is that boundary; the machine in the root
//! crate implements it over `hsim-mem` + `hsim-coherence`.

use hsim_isa::{Route, Width};

/// Which memory a routed access targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSide {
    /// The local memory.
    Lm,
    /// System memory (cache hierarchy).
    Sm,
}

/// Routing decision for one memory access, produced at functional
/// execution time and consumed by the timing model.
#[derive(Clone, Copy, Debug)]
pub struct RouteInfo {
    /// The memory that serves the access.
    pub side: MemSide,
    /// The final (possibly directory-diverted) address.
    pub addr: u64,
    /// Whether the hardware directory was looked up (guarded accesses in
    /// the coherent machine).
    pub dir_lookup: bool,
    /// Whether that lookup hit.
    pub dir_hit: bool,
    /// Presence-bit constraint: the access may not issue before this
    /// cycle (completion of the mapping `dma-get`); 0 when absent.
    pub ready_at: u64,
}

/// DMA command kinds forwarded by the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaKind {
    /// `dma-get` (SM → LM).
    Get,
    /// `dma-put` (LM → SM).
    Put,
}

/// Level that served a timed access (re-exported shape of
/// `hsim_mem::Level` to keep this crate decoupled from the hierarchy).
pub type ServedLevel = hsim_mem::Level;

/// Memory-side snapshot attached to a deadlock report: what the tile's
/// memory machinery still had in flight at the deadlock cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortDiagnostics {
    /// Tile/core id of the port's owner (0 for single-core mocks).
    pub core: usize,
    /// Outstanding MSHR entries at the snapshot cycle.
    pub mshr_in_flight: usize,
    /// Bitmask of DMA tags still in flight at the snapshot cycle.
    pub dma_tags: u8,
}

/// The machine-side callbacks the core drives.
pub trait MemoryPort {
    /// Functionally executes a memory access: routes `addr` (range check,
    /// directory or oracle), performs the data read/write against the
    /// backing store, and returns the loaded bits (zero for stores)
    /// together with the routing decision.
    ///
    /// `store` carries the raw bits to write for stores, `None` for
    /// loads. Loaded integer values are already width-adjusted
    /// (zero-extended bytes, sign-extended words).
    fn exec_mem(
        &mut self,
        pc: u64,
        addr: u64,
        width: Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo);

    /// Timing of the memory access previously routed as `info`:
    /// loads call this at issue, stores at commit. Returns the latency
    /// and the serving level.
    fn timing_access(
        &mut self,
        now: u64,
        pc: u64,
        info: &RouteInfo,
        write: bool,
    ) -> (u64, ServedLevel);

    /// Executes a DMA command functionally (copy + directory update +
    /// cache snoops/invalidations) and returns its completion cycle.
    fn exec_dma(&mut self, now: u64, kind: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64;

    /// The cycle at which a `dma-synch` on `tag` unblocks.
    fn dma_synch(&mut self, now: u64, tag: u8) -> u64;

    /// Reconfigures the directory buffer size (`dir.cfg`).
    fn dir_configure(&mut self, buf_size: u64);

    /// Instruction-fetch latency for the line containing `pc_addr`.
    fn fetch_latency(&mut self, now: u64, pc_addr: u64) -> u64;

    /// **Uncalled.** The cycle skipper asks only the core
    /// (`Core::skip_target`): every completion a core waits for is handed back by the call
    /// that starts the wait (`timing_access`, `exec_dma`, `dma_synch`,
    /// `fetch_latency`, [`RouteInfo::ready_at`]), so between a core's
    /// own events nothing on the memory side can concern it. The method
    /// stays only because `benchmark/src/replays.rs` implements it;
    /// remove that override and this method together.
    fn next_mem_event_at(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }

    /// Snapshot of the port's in-flight memory state at `now`, taken
    /// when a core's quiet tick at `now` leaves it with no next event, so
    /// [`SimError::Deadlock`] can name what the stall was waiting on.
    /// Purely observational —
    /// implementations must not mutate timing state. Timing-only mocks
    /// can rely on this default.
    ///
    /// [`SimError::Deadlock`]: crate::pipeline::SimError::Deadlock
    fn stall_diagnostics(&self, now: u64) -> PortDiagnostics {
        let _ = now;
        PortDiagnostics::default()
    }
}
