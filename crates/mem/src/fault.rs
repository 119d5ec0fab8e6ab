//! Deterministic fault injection for the memory fabric.
//!
//! A seeded [`FaultConfig`] drives three recoverable fault sites:
//! transient DRAM read errors (ECC retry, `backing.rs`), DMA transfer
//! timeouts (exponential backoff, `dma.rs`) and directory/bank message
//! NACKs under port contention (`backside.rs`). Each site owns a
//! [`FaultRoller`] — a **counter-based** xorshift generator keyed on
//! `(seed, site, instance)` — so whether the *k*-th event at a site
//! faults depends only on the seed and on `k`, never on host thread
//! scheduling, wall-clock time or allocation order. Replaying a run
//! with the same seed replays the same faults.
//!
//! ## Invariants
//!
//! * **Timing-only** — injected faults delay accesses and bump retry
//!   counters; they never touch architectural state. Final memory
//!   images, kernel results and coherence-tracker cleanliness are
//!   identical at any fault rate (pinned by the `fault_injection`
//!   proptests).
//! * **Zero-rate transparency** — a roller built from a zero rate
//!   short-circuits before drawing: [`FaultConfig::none`] is
//!   bit-identical to a machine with no fault plan at all, timing and
//!   statistics included.
//! * **Bounded recovery** — every retry loop is capped at
//!   [`FaultConfig::max_retries`]; a site that keeps faulting past the
//!   cap escalates to a structured [`FaultEscalation`] (counted, never
//!   a hang), which is how livelock is ruled out even at rate 1.0.

/// The three recoverable fault sites of the memory fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A transient DRAM read error: the column access replays with an
    /// ECC-retry penalty (`DramStats::ecc_retries`).
    DramRead,
    /// A DMA transfer timeout: the transfer re-streams after an
    /// exponential backoff (`DmaStats::retries`), escalating after
    /// `max_retries` (`DmaStats::escalations`).
    DmaTimeout,
    /// A directory/bank message NACK under L3 port contention: the
    /// request re-arbitrates after a bounded backoff
    /// (`CoherenceStats::dir_nacks`), with the retry cap as the
    /// livelock watchdog.
    DirNack,
}

impl FaultSite {
    /// Per-site key salt: distinct sites draw from unrelated streams
    /// even under one seed.
    fn salt(self) -> u64 {
        match self {
            FaultSite::DramRead => 0x85EB_CA6B_27D4_EB2F,
            FaultSite::DmaTimeout => 0xC2B2_AE3D_27D4_EB4F,
            FaultSite::DirNack => 0x2545_F491_4F6C_DD1D,
        }
    }
}

/// A seeded fault-injection plan, carried by `MemConfig::fault` and
/// threaded to every site of the memory fabric.
///
/// Rates are probabilities in `[0, 1]` per *event* (per DRAM read, per
/// DMA command, per contended port arbitration). The plan is pure
/// configuration: two machines built from equal plans inject equal
/// fault sequences.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of every site's counter-based generator.
    pub seed: u64,
    /// Probability that a DRAM line read takes a transient error and
    /// pays an ECC retry.
    pub dram_read_error_rate: f64,
    /// Probability that a DMA command times out and re-streams after a
    /// backoff.
    pub dma_timeout_rate: f64,
    /// Probability that a *contended* directory/bank port arbitration
    /// is NACKed and re-arbitrates after a backoff.
    pub dir_nack_rate: f64,
    /// Retry budget per faulting event; past it the site escalates
    /// (DMA) or the livelock watchdog stops injecting (NACKs).
    pub max_retries: u32,
    /// Base backoff delay in cycles; retry `k` (0-based) waits
    /// `backoff_base << k` (see [`backoff_delay`]).
    pub backoff_base: u64,
}

impl FaultConfig {
    /// The empty plan: all rates zero. Bit-identical to running with no
    /// plan at all.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            dram_read_error_rate: 0.0,
            dma_timeout_rate: 0.0,
            dir_nack_rate: 0.0,
            max_retries: 4,
            backoff_base: 8,
        }
    }

    /// A plan injecting at one uniform `rate` across all three sites.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            dram_read_error_rate: rate,
            dma_timeout_rate: rate,
            dir_nack_rate: rate,
            ..Self::none()
        }
    }

    /// Whether the plan injects nothing (every rate is zero).
    pub fn is_none(&self) -> bool {
        self.dram_read_error_rate == 0.0
            && self.dma_timeout_rate == 0.0
            && self.dir_nack_rate == 0.0
    }

    /// The injection rate configured for `site`.
    pub fn rate_of(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::DramRead => self.dram_read_error_rate,
            FaultSite::DmaTimeout => self.dma_timeout_rate,
            FaultSite::DirNack => self.dir_nack_rate,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A structured record of a fault that exhausted its retry budget —
/// the escalation path out of a retry loop. Escalations are counted
/// and surfaced in reports; the underlying operation still completes
/// (faults are timing-only), so an escalation is a diagnosis, never a
/// wedge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEscalation {
    /// The site that escalated.
    pub site: FaultSite,
    /// Retries spent before escalating (`max_retries`).
    pub attempts: u32,
    /// Simulated cycle of the escalation.
    pub cycle: u64,
}

/// Exponential backoff delay for retry `attempt` (0-based):
/// `base << attempt`, saturating so pathological retry budgets cannot
/// wrap.
pub fn backoff_delay(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(32))
}

/// One fault site's deterministic event roller.
///
/// `roll()` is a pure function of `(seed, site, instance, counter)`:
/// the counter advances once per draw, and the draw is an xorshift mix
/// of the keyed counter compared against the rate threshold. Zero-rate
/// rollers return `false` without drawing (or advancing), so an empty
/// plan perturbs nothing.
pub struct FaultRoller {
    key: u64,
    /// `rate` scaled to `[0, 2^64]`; 0 disables the site, `2^64`
    /// (rate ≥ 1.0) fires on every draw.
    threshold: u128,
    counter: u64,
}

impl FaultRoller {
    /// Builds the roller for `site` under `cfg`. `instance`
    /// distinguishes replicated owners of one site (DRAM channel index,
    /// tile id) so they draw from independent streams.
    pub fn new(cfg: &FaultConfig, site: FaultSite, instance: u64) -> Self {
        let rate = cfg.rate_of(site).clamp(0.0, 1.0);
        let threshold = if rate <= 0.0 {
            0
        } else {
            // 2^64 * rate, exact at the endpoints: rate 1.0 always
            // fires (the escalation paths are exercised, not hung).
            (rate * 18_446_744_073_709_551_616.0) as u128
        };
        FaultRoller {
            key: mix(cfg.seed ^ site.salt() ^ mix(instance.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            threshold,
            counter: 0,
        }
    }

    /// A roller that never fires (the no-plan default).
    pub fn disabled() -> Self {
        FaultRoller {
            key: 0,
            threshold: 0,
            counter: 0,
        }
    }

    /// Whether this site can ever inject.
    pub fn enabled(&self) -> bool {
        self.threshold != 0
    }

    /// Draws the next event: `true` injects a fault. Deterministic in
    /// the draw index alone.
    #[inline]
    pub fn roll(&mut self) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let c = self.counter;
        self.counter += 1;
        (mix(self.key ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as u128) < self.threshold
    }
}

/// The xorshift64* mixer behind every draw: full-period xorshift step
/// plus a multiplicative finalizer, seeded away from the zero fixed
/// point.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_plans_replay_equal_sequences() {
        let cfg = FaultConfig::uniform(42, 0.3);
        let mut a = FaultRoller::new(&cfg, FaultSite::DramRead, 0);
        let mut b = FaultRoller::new(&cfg, FaultSite::DramRead, 0);
        let sa: Vec<bool> = (0..256).map(|_| a.roll()).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.roll()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "rate 0.3 fires somewhere in 256");
        assert!(!sa.iter().all(|&f| f), "rate 0.3 is not rate 1.0");
    }

    #[test]
    fn sites_and_instances_draw_independent_streams() {
        let cfg = FaultConfig::uniform(7, 0.5);
        let seq = |site, instance| {
            let mut r = FaultRoller::new(&cfg, site, instance);
            (0..128).map(|_| r.roll()).collect::<Vec<bool>>()
        };
        assert_ne!(
            seq(FaultSite::DramRead, 0),
            seq(FaultSite::DmaTimeout, 0),
            "sites must not alias"
        );
        assert_ne!(
            seq(FaultSite::DramRead, 0),
            seq(FaultSite::DramRead, 1),
            "instances must not alias"
        );
    }

    #[test]
    fn zero_rate_never_draws() {
        let mut r = FaultRoller::new(&FaultConfig::none(), FaultSite::DirNack, 0);
        assert!(!r.enabled());
        for _ in 0..64 {
            assert!(!r.roll());
        }
        assert_eq!(r.counter, 0, "zero-rate rollers must not even count");
    }

    #[test]
    fn rate_one_always_fires() {
        let mut r = FaultRoller::new(&FaultConfig::uniform(1, 1.0), FaultSite::DmaTimeout, 3);
        for _ in 0..64 {
            assert!(r.roll(), "rate 1.0 fires on every draw");
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let seq = |seed| {
            let mut r = FaultRoller::new(&FaultConfig::uniform(seed, 0.5), FaultSite::DirNack, 0);
            (0..128).map(|_| r.roll()).collect::<Vec<bool>>()
        };
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn backoff_is_exponential_and_saturates() {
        assert_eq!(backoff_delay(8, 0), 8);
        assert_eq!(backoff_delay(8, 1), 16);
        assert_eq!(backoff_delay(8, 4), 128);
        assert_eq!(backoff_delay(u64::MAX / 2, 40), u64::MAX);
        assert_eq!(backoff_delay(0, 10), 0);
    }

    #[test]
    fn none_is_none() {
        assert!(FaultConfig::none().is_none());
        assert!(FaultConfig::default().is_none());
        assert!(!FaultConfig::uniform(0, 0.01).is_none());
        assert!(FaultConfig::uniform(9, 0.0).is_none());
    }
}
