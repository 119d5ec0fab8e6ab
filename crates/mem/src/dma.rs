//! DMA controller (DMAC) timing model.
//!
//! The DMAC offers the three operations of §2.1: `dma-get` (SM → LM),
//! `dma-put` (LM → SM) and `dma-synch` (wait for tagged transfers).
//! Software triggers them with memory instructions; the machine routes the
//! ISA's DMA pseudo-instructions here. Transfers are **coherent with the
//! system memory**: every bus request of a `dma-get` snoops the cache
//! hierarchy for the line, and every `dma-put` bus request invalidates
//! matching cache lines — the hierarchy performs those lookups; this type
//! models command timing and tag bookkeeping.
//!
//! Timing model: a single engine processes transfers in issue order and
//! is *pipelined*: each command pays a programming/setup latency and a
//! first-data latency (DRAM access), but the engine accepts the next
//! command as soon as the previous one finishes streaming, so the
//! first-data latencies of back-to-back transfers overlap — the behavior
//! of a command-queue DMA engine like the Cell's MFC.
//!
//! ## Invariants
//!
//! * **Channel accounting stays with the backside** — the DMAC times
//!   its own streaming; the DRAM *line counts* its transfers move are
//!   attributed per core by the shared backside (`note_dram_read` /
//!   `note_dram_write`), so DMA traffic partitions the channel totals
//!   like demand traffic does. DMA lines are deliberately not
//!   row-classified: block transfers stream whole rows, and their
//!   bandwidth cost is already modeled here.

use crate::fault::{backoff_delay, FaultConfig, FaultEscalation, FaultRoller, FaultSite};

/// DMA transfer direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaOp {
    /// SM → LM (`dma-get`).
    Get,
    /// LM → SM (`dma-put`).
    Put,
}

/// Number of synchronization tags supported (the ISA encodes tags 0–7).
pub const NUM_TAGS: usize = 8;

/// DMAC configuration.
#[derive(Clone, Debug)]
pub struct DmaConfig {
    /// Cycles to program one command via the MMIO registers.
    pub setup_latency: u64,
    /// First-data latency (memory access before streaming starts).
    pub first_data_latency: u64,
    /// Streaming bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            setup_latency: 10,
            first_data_latency: 100,
            bytes_per_cycle: 32,
        }
    }
}

/// DMA activity counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DmaStats {
    /// `dma-get` commands issued.
    pub gets: u64,
    /// `dma-put` commands issued.
    pub puts: u64,
    /// `dma-synch` commands executed.
    pub synchs: u64,
    /// Bytes moved SM → LM.
    pub bytes_get: u64,
    /// Bytes moved LM → SM.
    pub bytes_put: u64,
    /// Cycles the engine spent transferring.
    pub busy_cycles: u64,
    /// Transfer timeouts injected by the fault plan and recovered by
    /// re-streaming after an exponential backoff.
    pub retries: u64,
    /// Transfers whose timeouts exhausted the retry budget: counted as
    /// structured [`FaultEscalation`]s (the transfer still completes —
    /// escalation is a diagnosis, not a wedge).
    pub escalations: u64,
}

/// The DMA controller.
pub struct Dmac {
    /// Configuration.
    pub cfg: DmaConfig,
    /// Completion cycle of the last transfer issued per tag.
    tag_done_at: [u64; NUM_TAGS],
    /// When the single transfer engine becomes free.
    engine_free_at: u64,
    /// Deterministic transfer-timeout roller (disabled by default:
    /// `new` builds a fault-free engine).
    faults: FaultRoller,
    /// Retry budget per timing-out transfer (from the fault plan).
    fault_max_retries: u32,
    /// Base backoff delay between retries (from the fault plan).
    fault_backoff_base: u64,
    /// The most recent retry-budget exhaustion, if any (surfaced by
    /// deadlock diagnostics and reports).
    last_escalation: Option<FaultEscalation>,
    /// Activity counters.
    pub stats: DmaStats,
}

impl Dmac {
    /// Builds an idle, fault-free DMAC.
    pub fn new(cfg: DmaConfig) -> Self {
        Self::with_faults(cfg, &FaultConfig::none(), 0)
    }

    /// Builds an idle DMAC under a fault plan. `instance` is the tile's
    /// core id, so every tile's engine draws an independent fault
    /// stream.
    pub fn with_faults(cfg: DmaConfig, fault: &FaultConfig, instance: u64) -> Self {
        Dmac {
            cfg,
            tag_done_at: [0; NUM_TAGS],
            engine_free_at: 0,
            faults: FaultRoller::new(fault, FaultSite::DmaTimeout, instance),
            fault_max_retries: fault.max_retries,
            fault_backoff_base: fault.backoff_base,
            last_escalation: None,
            stats: DmaStats::default(),
        }
    }

    /// Issues a transfer at cycle `now`; returns its completion cycle.
    ///
    /// The functional copy is performed immediately by the machine (DMA
    /// transfers are coherent, and the program must `dma-synch` before
    /// touching the data); this method provides the completion time used
    /// by `dma-synch` and by the directory presence bits.
    pub fn issue(&mut self, op: DmaOp, bytes: u64, tag: u8, now: u64) -> u64 {
        let start = (now + self.cfg.setup_latency).max(self.engine_free_at);
        let stream = bytes.div_ceil(self.cfg.bytes_per_cycle.max(1));
        let mut done = start + self.cfg.first_data_latency + stream;
        // Pipelined engine: streaming of the next command may overlap the
        // first-data latency of this one.
        self.engine_free_at = start + stream;
        self.stats.busy_cycles += stream;
        // Fault site: the transfer may time out. Each timeout waits an
        // exponential backoff and re-streams; past the retry budget the
        // timeout escalates (structured, counted) and the transfer is
        // completed as-is — recovery is bounded, never a wedge.
        let mut attempt: u32 = 0;
        while self.faults.roll() {
            if attempt >= self.fault_max_retries {
                self.stats.escalations += 1;
                self.last_escalation = Some(FaultEscalation {
                    site: FaultSite::DmaTimeout,
                    attempts: attempt,
                    cycle: done,
                });
                break;
            }
            let backoff = backoff_delay(self.fault_backoff_base, attempt);
            attempt += 1;
            self.stats.retries += 1;
            done += backoff + stream;
            self.engine_free_at += stream;
            self.stats.busy_cycles += stream;
        }
        let t = &mut self.tag_done_at[tag as usize % NUM_TAGS];
        *t = (*t).max(done);
        match op {
            DmaOp::Get => {
                self.stats.gets += 1;
                self.stats.bytes_get += bytes;
            }
            DmaOp::Put => {
                self.stats.puts += 1;
                self.stats.bytes_put += bytes;
            }
        }
        done
    }

    /// Cycle at which all transfers with `tag` issued so far complete.
    pub fn tag_done_at(&self, tag: u8) -> u64 {
        self.tag_done_at[tag as usize % NUM_TAGS]
    }

    /// Executes a `dma-synch` at `now`: returns the cycle when the wait
    /// ends (`now` if the tagged transfers already finished).
    pub fn synch(&mut self, tag: u8, now: u64) -> u64 {
        self.stats.synchs += 1;
        self.tag_done_at(tag).max(now)
    }

    /// True when every issued transfer has completed by `now`.
    pub fn idle_at(&self, now: u64) -> bool {
        self.engine_free_at <= now
    }

    /// Bitmask of tags with transfers still in flight at `now` (bit
    /// *t* set ⇔ tag *t* completes after `now`) — deadlock diagnostics.
    pub fn in_flight_tags(&self, now: u64) -> u8 {
        self.tag_done_at
            .iter()
            .enumerate()
            .filter(|&(_, &done)| done > now)
            .fold(0u8, |m, (t, _)| m | (1 << t))
    }

    /// The most recent retry-budget exhaustion, if any.
    pub fn last_escalation(&self) -> Option<FaultEscalation> {
        self.last_escalation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dmac() -> Dmac {
        Dmac::new(DmaConfig {
            setup_latency: 10,
            first_data_latency: 100,
            bytes_per_cycle: 16,
        })
    }

    #[test]
    fn single_transfer_timing() {
        let mut d = dmac();
        // 1024 bytes at 16 B/cycle = 64 cycles streaming.
        let done = d.issue(DmaOp::Get, 1024, 0, 0);
        assert_eq!(done, 10 + 100 + 64);
        assert_eq!(d.tag_done_at(0), done);
        assert_eq!(d.stats.gets, 1);
        assert_eq!(d.stats.bytes_get, 1024);
    }

    #[test]
    fn transfers_pipeline_on_engine() {
        let mut d = dmac();
        let a = d.issue(DmaOp::Get, 1024, 0, 0);
        let b = d.issue(DmaOp::Get, 1024, 0, 0);
        // The second transfer streams right after the first: it completes
        // one stream-time later, not one full latency later.
        assert_eq!(b, a + 64);
    }

    #[test]
    fn tags_track_independently() {
        let mut d = dmac();
        let a = d.issue(DmaOp::Get, 64, 0, 0);
        let b = d.issue(DmaOp::Put, 64, 1, 0);
        assert_eq!(d.tag_done_at(0), a);
        assert_eq!(d.tag_done_at(1), b);
        assert_eq!(d.synch(0, 0), a);
        assert_eq!(d.synch(1, 0), b);
        // Synch after completion returns `now`.
        assert_eq!(d.synch(0, b + 50), b + 50);
        assert_eq!(d.stats.synchs, 3);
    }

    #[test]
    fn idle_detection() {
        // "Idle" means the engine can accept a new command immediately;
        // with pipelining that happens once streaming ends, before the
        // in-flight data lands.
        let mut d = dmac();
        assert!(d.idle_at(0));
        let done = d.issue(DmaOp::Put, 256, 2, 5);
        let stream_end = 5 + 10 + 256u64.div_ceil(16);
        assert!(!d.idle_at(stream_end - 1));
        assert!(d.idle_at(stream_end));
        assert!(done > stream_end, "completion includes the data latency");
    }

    #[test]
    fn zero_byte_transfer_costs_setup_only() {
        let mut d = dmac();
        let done = d.issue(DmaOp::Get, 0, 0, 0);
        assert_eq!(done, 10 + 100);
    }

    #[test]
    fn in_flight_tags_track_completions() {
        let mut d = dmac();
        let a = d.issue(DmaOp::Get, 64, 0, 0);
        let b = d.issue(DmaOp::Put, 64, 3, 0);
        assert_eq!(d.in_flight_tags(0), 0b1001);
        assert_eq!(d.in_flight_tags(a), 0b1000, "tag 0 landed at {a}");
        assert_eq!(d.in_flight_tags(b), 0, "all transfers landed");
    }

    #[test]
    fn timeouts_retry_with_exponential_backoff_then_escalate() {
        use crate::fault::FaultConfig;
        // Rate 1.0: the transfer times out on every draw, retries
        // max_retries times (backoff 8, 16), then escalates and
        // completes anyway.
        let plan = FaultConfig {
            max_retries: 2,
            backoff_base: 8,
            ..FaultConfig::uniform(5, 1.0)
        };
        let cfg = DmaConfig {
            setup_latency: 10,
            first_data_latency: 100,
            bytes_per_cycle: 16,
        };
        let mut d = Dmac::with_faults(cfg.clone(), &plan, 0);
        let stream = 1024u64 / 16; // 64 cycles
        let done = d.issue(DmaOp::Get, 1024, 0, 0);
        assert_eq!(done, 10 + 100 + 64 + (8 + 64) + (16 + 64));
        assert_eq!(d.stats.retries, 2);
        assert_eq!(d.stats.escalations, 1);
        let esc = d.last_escalation().expect("budget exhausted");
        assert_eq!(esc.attempts, 2);
        assert_eq!(esc.cycle, done);
        assert_eq!(d.stats.busy_cycles, 3 * stream, "each retry re-streams");
        // Same plan, fresh engine: identical replay. Zero-rate plan:
        // bit-identical to the fault-free engine.
        let mut e = Dmac::with_faults(cfg.clone(), &plan, 0);
        assert_eq!(e.issue(DmaOp::Get, 1024, 0, 0), done);
        let mut z = Dmac::with_faults(cfg, &FaultConfig::none(), 0);
        assert_eq!(z.issue(DmaOp::Get, 1024, 0, 0), 10 + 100 + 64);
        assert_eq!(z.stats.retries, 0);
        assert!(z.last_escalation().is_none());
    }
}
