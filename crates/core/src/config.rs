//! Core configuration (Table 1 of the paper).
//!
//! The uncore knobs a machine configuration combines with [`CoreConfig`]
//! are re-exported here for discoverability: [`L3Geometry`] (banking of
//! the shared last-level cache), [`DramTiming`] (row-buffer timing of
//! the memory channel), and [`CoherenceProtocol`]/[`CoherenceConfig`] (the
//! inter-core protocol of the shared backside: a directory slice per L3
//! bank serves registered shared ranges from one copy under MSI, MESI —
//! the default — MOESI or MESIF, while every other line stays private
//! to its core). The DRAM
//! defaults decompose the paper's flat 200-cycle DRAM latency
//! (`t_rcd + t_cas`), so a cold access to a closed row costs exactly
//! that.

pub use hsim_mem::{CoherenceConfig, CoherenceMode, CoherenceProtocol, DramTiming, L3Geometry};

/// Configuration of the out-of-order core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Fetch/decode/dispatch width (Table 1: 4 instructions wide).
    pub fetch_width: usize,
    /// Issue width (total instructions issued per cycle).
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Fetch-queue capacity (fetched, not yet dispatched instructions).
    pub fetch_queue: usize,
    /// Integer physical registers (Table 1: 256).
    pub int_phys_regs: usize,
    /// Floating-point physical registers (Table 1: 256).
    pub fp_phys_regs: usize,
    /// Integer ALUs (Table 1: 3).
    pub int_alus: usize,
    /// Floating-point ALUs (Table 1: 3).
    pub fp_alus: usize,
    /// Load/store units (Table 1: 2).
    pub ls_units: usize,
    /// Maximum in-flight loads.
    pub lsq_loads: usize,
    /// Maximum in-flight stores.
    pub lsq_stores: usize,
    /// Store-to-load forwarding latency in cycles.
    pub forward_latency: u64,
    /// Front-end refill penalty after a branch resolves a misprediction.
    pub redirect_penalty: u64,
    /// Extra fetch bubble when a predicted-taken branch misses the BTB.
    pub btb_miss_penalty: u64,
    /// gshare table entries (Table 1: 4K).
    pub gshare_entries: usize,
    /// Bimodal table entries (Table 1: 4K).
    pub bimodal_entries: usize,
    /// Selector table entries (Table 1: 4K).
    pub selector_entries: usize,
    /// Global-history bits for gshare.
    pub ghist_bits: u32,
    /// BTB entries (Table 1: 4K, 4-way).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack entries (Table 1: 32).
    pub ras_entries: usize,
    /// Issued-instruction replays charged per load miss below L1 (models
    /// PTLsim's speculative-scheduling replays; energy-only effect).
    pub replay_per_miss: u64,
    /// Hard cycle limit: `run` aborts beyond this (deadlock guard).
    pub max_cycles: u64,
    /// Disables the event-horizon cycle skipper: `run` walks every cycle
    /// through the per-stage `tick` loop. Timing and statistics are
    /// identical either way — skipping only fast-forwards provably idle
    /// cycles — and the equivalence tests pin that claim against this
    /// escape hatch.
    pub lockstep: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 224,
            fetch_queue: 16,
            int_phys_regs: 256,
            fp_phys_regs: 256,
            int_alus: 3,
            fp_alus: 3,
            ls_units: 2,
            lsq_loads: 64,
            lsq_stores: 64,
            forward_latency: 1,
            redirect_penalty: 4,
            btb_miss_penalty: 2,
            gshare_entries: 4096,
            bimodal_entries: 4096,
            selector_entries: 4096,
            ghist_bits: 12,
            btb_entries: 4096,
            btb_ways: 4,
            ras_entries: 32,
            replay_per_miss: 2,
            max_cycles: u64::MAX,
            lockstep: false,
        }
    }
}

impl CoreConfig {
    /// In-flight instructions with an integer destination the rename
    /// stage can sustain (physical registers minus architectural state).
    pub fn int_rename_budget(&self) -> usize {
        self.int_phys_regs - hsim_isa::reg::NUM_INT_REGS
    }

    /// In-flight instructions with an FP destination the rename stage can
    /// sustain.
    pub fn fp_rename_budget(&self) -> usize {
        self.fp_phys_regs - hsim_isa::reg::NUM_FP_REGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.int_alus, 3);
        assert_eq!(c.fp_alus, 3);
        assert_eq!(c.ls_units, 2);
        assert_eq!(c.int_phys_regs, 256);
        assert_eq!(c.ras_entries, 32);
        assert_eq!(c.gshare_entries, 4096);
    }

    #[test]
    fn rename_budgets() {
        let c = CoreConfig::default();
        assert_eq!(c.int_rename_budget(), 256 - 32);
        assert_eq!(c.fp_rename_budget(), 256 - 32);
    }
}
