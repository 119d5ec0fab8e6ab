//! Run reports: the measurements every experiment consumes.

use crate::machine::{Machine, MultiMachine, SysMode};
use hsim_compiler::CompiledKernel;
use hsim_core::CoreStats;
use hsim_energy::{Activity, EnergyBreakdown, EnergyModel};
use hsim_isa::Phase;

/// Everything measured in one run — the union of what Table 3 and
/// Figures 7–10 need, per core.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub name: String,
    /// System mode.
    pub mode: SysMode,
    /// Which core of its machine produced this report (0 on a
    /// single-core machine).
    pub core_id: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Idle cycles the event-horizon scheduler fast-forwarded in bulk
    /// (included in `cycles`; 0 on lockstep runs). The simulated timing
    /// is identical either way — this measures how much dead time the
    /// workload had, and how much host work skipping saved.
    pub skipped_cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Cycles per phase `[other, control, synch, work]`.
    pub phase_cycles: [u64; 4],
    /// Average memory access time over timed loads.
    pub amat: f64,
    /// L1D demand hit ratio (%).
    pub l1d_hit_ratio: f64,
    /// Total L1D accesses (Table 3 accounting).
    pub l1_accesses: u64,
    /// Total L2 accesses.
    pub l2_accesses: u64,
    /// This core's share of shared-L3 accesses.
    pub l3_accesses: u64,
    /// Total LM accesses (CPU + DMA blocks).
    pub lm_accesses: u64,
    /// Directory accesses (lookups + updates; coherent mode only).
    pub dir_accesses: u64,
    /// Arbitrated backside (shared L3/DRAM) requests issued by this core.
    pub bus_requests: u64,
    /// Cycles this core's backside requests spent waiting on their L3
    /// bank port — the multi-core contention signal (0 when
    /// uncontended).
    pub bus_wait_cycles: u64,
    /// Backside requests of this core that found their L3 bank's port
    /// busy (0 when the port is ideal or uncontended).
    pub l3_bank_conflicts: u64,
    /// DRAM lines read on behalf of this core.
    pub dram_reads: u64,
    /// DRAM lines written on behalf of this core.
    pub dram_writes: u64,
    /// This core's DRAM accesses that hit an open row.
    pub dram_row_hits: u64,
    /// This core's DRAM accesses to a bank with no open row.
    pub dram_row_misses: u64,
    /// This core's DRAM accesses that closed another row first.
    pub dram_row_conflicts: u64,
    /// This core's posted DRAM writes that found the write queue full.
    /// Directory-aware attribution: a stall whose drained victim was an
    /// M-intervention write-back is charged to the recalled owner, not
    /// the posting core (see `dram_intervention_drain_stalls`).
    pub dram_queue_stalls: u64,
    /// The subset of this core's `dram_queue_stalls` whose drained
    /// victim was an M-intervention write-back of *this core's* dirty
    /// data (shared lines only).
    pub dram_intervention_drain_stalls: u64,
    /// L3 hits this core scored on shared, directory-tracked lines also
    /// held or brought in by another core.
    pub coh_shared_hits: u64,
    /// Invalidation messages this core's writes/evictions sent to other
    /// cores' upper levels (shared lines only).
    pub coh_invalidations: u64,
    /// Dirty-owner interventions this core's requests triggered
    /// (shared lines only).
    pub coh_interventions: u64,
    /// MSHR merges that stalled on a fill lengthened by an intervention
    /// (shared lines only).
    pub coh_intervention_stalls: u64,
    /// Back-invalidations that recalled a *dirty* line out of this
    /// core's L1/L2, each charging the tile-side recall port occupancy
    /// (shared lines only).
    pub coh_dirty_recalls: u64,
    /// Injected transient DRAM read errors recovered by ECC replay on
    /// behalf of this core (0 without a fault plan; timing-only).
    pub ecc_retries: u64,
    /// This core's DMA transfers re-streamed after an injected timeout
    /// (0 without a fault plan).
    pub dma_retries: u64,
    /// Injected directory/bank NACKs this core's contended backside
    /// arbitrations absorbed (0 without a fault plan).
    pub dir_nacks: u64,
    /// This core's fault events that exhausted their retry budget and
    /// escalated (the operation still completed — see
    /// `hsim_mem::FaultEscalation`).
    pub escalations: u64,
    /// Static guarded/total reference counts of the compiled kernel.
    pub guarded_refs: usize,
    /// Static total reference count.
    pub total_refs: usize,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Coherence violations recorded (tracking runs only).
    pub violations: usize,
    /// Full core statistics.
    pub core: CoreStats,
}

impl RunReport {
    /// Collects a report from a finished machine.
    pub fn collect(m: &Machine, ck: &CompiledKernel) -> RunReport {
        let core = m.core.stats.clone();
        let w = &m.world;
        let coherent = matches!(m.cfg.mode, SysMode::HybridCoherent);
        let dir_accesses = match (&w.dir, coherent) {
            (Some(d), true) => d.stats.lookups + d.stats.updates,
            _ => 0,
        };
        let energy = EnergyModel::new().evaluate(&activity(m));
        let backside = w.mem.backside_stats();
        RunReport {
            name: ck.name.clone(),
            mode: m.cfg.mode,
            core_id: w.mem.core_id(),
            cycles: core.cycles,
            skipped_cycles: core.skipped_cycles,
            committed: core.committed,
            phase_cycles: core.phase_cycles,
            amat: core.amat(),
            l1d_hit_ratio: w.mem.l1d.stats.hit_ratio(),
            l1_accesses: w.mem.l1d.stats.total_accesses(),
            l2_accesses: w.mem.l2.stats.total_accesses(),
            l3_accesses: backside.l3.total_accesses(),
            lm_accesses: w.mem.lm_total_accesses(),
            dir_accesses,
            bus_requests: backside.bus_requests,
            bus_wait_cycles: backside.bus_wait_cycles,
            l3_bank_conflicts: backside.bank_conflicts,
            dram_reads: backside.dram.reads,
            dram_writes: backside.dram.writes,
            dram_row_hits: backside.dram.row_hits,
            dram_row_misses: backside.dram.row_misses,
            dram_row_conflicts: backside.dram.row_conflicts,
            dram_queue_stalls: backside.dram.queue_stalls,
            dram_intervention_drain_stalls: backside.dram.intervention_drain_stalls,
            coh_shared_hits: backside.coh.shared_hits,
            coh_invalidations: backside.coh.invalidations_sent,
            coh_interventions: backside.coh.interventions,
            coh_intervention_stalls: w.mem.mshr.stats.intervention_stalls,
            coh_dirty_recalls: backside.coh.dirty_recalls,
            ecc_retries: backside.dram.ecc_retries,
            dma_retries: w.mem.dmac.stats.retries,
            dir_nacks: backside.coh.dir_nacks,
            escalations: w.mem.dmac.stats.escalations,
            guarded_refs: ck.guarded_refs(),
            total_refs: ck.total_refs(),
            energy,
            violations: m.violations(),
            core,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles.max(1) as f64
    }

    /// Cycles in a phase.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_cycles[hsim_core::stats::phase_index(p)]
    }

    /// Total on-chip energy (nJ).
    pub fn energy_total(&self) -> f64 {
        self.energy.total()
    }
}

/// The measurements of one N-core machine run: one [`RunReport`] per
/// core plus machine-level aggregates.
#[derive(Clone, Debug)]
pub struct MultiRunReport {
    /// Per-core reports, indexed by core id.
    pub per_core: Vec<RunReport>,
    /// Parallel makespan: the cycle the last core halted.
    pub makespan: u64,
    /// Shared-marked arrays that could not be registered as coherent
    /// shared ranges because the shards' layouts diverged (uneven
    /// weighted shards): each core caches its own lines of them
    /// instead of sharing. Their storage is not
    /// replicated. 0 on evenly-sharded machines.
    pub replication_fallbacks: u64,
}

impl MultiRunReport {
    /// Collects per-core reports from a finished multi-core machine.
    /// `cks[i]` must be the kernel core `i` executed.
    pub fn collect(m: &MultiMachine, cks: &[CompiledKernel]) -> MultiRunReport {
        assert_eq!(m.tiles.len(), cks.len(), "one compiled kernel per core");
        let per_core: Vec<RunReport> = m
            .tiles
            .iter()
            .zip(cks)
            .map(|(tile, ck)| RunReport::collect(tile, ck))
            .collect();
        let makespan = per_core.iter().map(|r| r.cycles).max().unwrap_or(0);
        MultiRunReport {
            per_core,
            makespan,
            replication_fallbacks: m.replication_fallbacks(),
        }
    }

    /// Whether the tiles run more than one `SysMode` (a mixed
    /// hybrid/cache-based chip).
    pub fn is_mixed_chip(&self) -> bool {
        self.per_core
            .iter()
            .any(|r| r.mode != self.per_core[0].mode)
    }

    /// A compact per-mode tile census, e.g. `"2xHybrid coherent + 2xCache-based"`.
    pub fn mode_summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for mode in SysMode::ALL {
            let n = self.per_core.iter().filter(|r| r.mode == mode).count();
            if n > 0 {
                parts.push(format!("{}x{}", n, mode.name()));
            }
        }
        parts.join(" + ")
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Sums one per-core counter (or any per-core value) over the
    /// machine: `m.total(|r| r.dram_reads)`. The per-core shares of the
    /// shared backside partition its totals exactly, so this is the
    /// machine-level figure of every [`RunReport`] counter.
    pub fn total<T: std::iter::Sum>(&self, f: impl Fn(&RunReport) -> T) -> T {
        self.per_core.iter().map(f).sum()
    }

    /// Machine-wide DRAM row-buffer hit rate in percent
    /// ([`dram_row_hit_rate`] over all cores).
    pub fn dram_row_hit_rate(&self) -> f64 {
        dram_row_hit_rate(&self.per_core)
    }

    /// Aggregate instructions per cycle of the machine (total committed
    /// over the makespan).
    pub fn aggregate_ipc(&self) -> f64 {
        self.total(|r| r.committed) as f64 / self.makespan.max(1) as f64
    }
}

/// The DRAM row-buffer hit rate in percent over the row-classified
/// accesses of `cores` — one core, one machine or every cluster of a
/// clustered run (100.0 when there were none; the convention is
/// [`hsim_mem::DramStats::row_hit_rate`]'s).
pub fn dram_row_hit_rate<'a>(cores: impl IntoIterator<Item = &'a RunReport>) -> f64 {
    let mut rows = hsim_mem::DramStats::default();
    for r in cores {
        rows.row_hits += r.dram_row_hits;
        rows.row_misses += r.dram_row_misses;
        rows.row_conflicts += r.dram_row_conflicts;
    }
    rows.row_hit_rate()
}

/// Nominal tile clock used to convert simulated cycles into wall-clock
/// service figures (requests/sec) in the request-serving reports. The
/// simulator itself is clockless — everything is cycles — so this is a
/// presentation constant, chosen to match the class of chip the paper
/// evaluates; using one fixed constant keeps every requests/sec figure
/// comparable across runs and exactly reproducible (integer math only).
pub const NOMINAL_CLOCK_HZ: u64 = 2_000_000_000;

/// A power-of-two-bucketed latency histogram: cheap to record into
/// (one shift per sample), mergeable across cores, and with
/// **integer-only** percentile interpolation so that reports rendered
/// from equal histograms are byte-identical across hosts and runs —
/// the property the open-loop determinism proptest pins.
///
/// Bucket `b` (1‥63) holds samples in `[2^(b-1), 2^b)`; bucket 0 holds
/// the value 0. Within a bucket, percentiles interpolate linearly by
/// rank, clamped to the observed `min`/`max`, so exact small counts
/// (the common case for per-request latencies) stay tight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one latency sample (cycles).
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one (e.g. per-core partials).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (cycles).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 on an empty histogram).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded to the nearest cycle (0 on an empty
    /// histogram). Integer math — deterministic across hosts.
    pub fn mean(&self) -> u64 {
        (self.sum + self.count / 2)
            .checked_div(self.count)
            .unwrap_or(0)
    }

    /// The latency at the given permille rank (`500` → p50, `950` →
    /// p95, `990` → p99), interpolated within its power-of-two bucket
    /// by rank and clamped to the observed extremes. Integer-only:
    /// equal histograms give equal percentiles on every host.
    pub fn percentile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = (permille * self.count).div_ceil(1000).max(1);
        let mut before = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n >= need {
                // Sample `need` falls in bucket `b`, spanning
                // [2^(b-1), 2^b) (or exactly {0} for b == 0).
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let width = if b == 0 { 1 } else { 1u64 << (b - 1) };
                let rank_in = need - before - 1;
                let v = lo + (rank_in * width) / n;
                return v.clamp(self.min, self.max);
            }
            before += n;
        }
        self.max
    }

    /// Median latency (cycles).
    pub fn p50(&self) -> u64 {
        self.percentile_permille(500)
    }

    /// 95th-percentile latency (cycles).
    pub fn p95(&self) -> u64 {
        self.percentile_permille(950)
    }

    /// 99th-percentile latency (cycles).
    pub fn p99(&self) -> u64 {
        self.percentile_permille(990)
    }
}

/// The outcome of one request-serving run: the open-loop queueing
/// measurements layered over the underlying machine run. Produced by
/// `experiments::request_serving_on`; rendered deterministically (integer
/// math only) so equal seeds give byte-identical reports.
#[derive(Clone, Debug)]
pub struct RequestServingReport {
    /// Workload name.
    pub name: String,
    /// System mode of the serving tiles.
    pub mode: SysMode,
    /// Number of serving cores.
    pub cores: usize,
    /// Arrival-process seed (drives the open-loop inter-arrival draws).
    pub seed: u64,
    /// Requests served.
    pub requests: u64,
    /// Per-request service time in cycles, as measured on the simulated
    /// machine (core busy time per request, contention included).
    pub service_cycles: u64,
    /// Mean offered inter-arrival gap in cycles (open loop: arrivals
    /// don't wait for completions).
    pub mean_interarrival: u64,
    /// First arrival to last completion, in cycles.
    pub span_cycles: u64,
    /// Sojourn-time histogram (arrival → completion), all requests.
    pub latency: LatencyHistogram,
}

impl RequestServingReport {
    /// Served throughput in requests per second at the
    /// [`NOMINAL_CLOCK_HZ`] presentation clock (integer math).
    pub fn requests_per_sec(&self) -> u64 {
        if self.span_cycles == 0 {
            return 0;
        }
        // requests * hz / span, reordered to avoid overflow for any
        // realistic span (requests and hz both fit well inside u128).
        ((self.requests as u128 * NOMINAL_CLOCK_HZ as u128) / self.span_cycles as u128) as u64
    }

    /// Offered load in percent of capacity: service time over
    /// inter-arrival gap, per core (integer permille → one decimal).
    pub fn offered_load_permille(&self) -> u64 {
        if self.mean_interarrival == 0 || self.cores == 0 {
            return 0;
        }
        self.service_cycles * 1000 / (self.mean_interarrival * self.cores as u64)
    }

    /// Renders the report as a deterministic multi-line string: only
    /// integers appear, so equal runs are **byte-identical** (the
    /// property `tests/comm_workloads.rs` pins across seeds).
    pub fn render(&self) -> String {
        format!(
            "request-serving {name} mode={mode} cores={cores} seed={seed}\n\
             requests={req} service_cycles={svc} mean_interarrival={gap} span_cycles={span}\n\
             latency_cycles p50={p50} p95={p95} p99={p99} mean={mean} min={min} max={max}\n\
             throughput={rps} req/s @{ghz}GHz load={load}permille\n",
            name = self.name,
            mode = self.mode.name(),
            cores = self.cores,
            seed = self.seed,
            req = self.requests,
            svc = self.service_cycles,
            gap = self.mean_interarrival,
            span = self.span_cycles,
            p50 = self.latency.p50(),
            p95 = self.latency.p95(),
            p99 = self.latency.p99(),
            mean = self.latency.mean(),
            min = self.latency.min(),
            max = self.latency.max(),
            rps = self.requests_per_sec(),
            ghz = NOMINAL_CLOCK_HZ / 1_000_000_000,
            load = self.offered_load_permille(),
        )
    }
}

/// Converts a finished machine's counters into the energy model's
/// activity vector. Shared-L3 and DRAM activity is this core's share of
/// the backside, so per-core energies of a multi-core machine partition
/// the chip total.
pub fn activity(m: &Machine) -> Activity {
    let c = &m.core.stats;
    let w = &m.world;
    let mem = &w.mem;
    let coherent = matches!(m.cfg.mode, SysMode::HybridCoherent);
    let (dir_lookups, dir_updates) = match (&w.dir, coherent) {
        (Some(d), true) => (d.stats.lookups, d.stats.updates),
        _ => (0, 0),
    };
    let line = mem.cfg.l1d.line_bytes;
    let lm = mem.lm.as_ref();
    let dma = &mem.dmac.stats;
    let backside = mem.backside_stats();
    let bus_lines = mem.l1d.stats.fills
        + mem.l1i.stats.fills
        + mem.l2.stats.fills
        + backside.l3.fills
        + mem.l1d.stats.writebacks_out
        + mem.l2.stats.writebacks_out
        + backside.l3.writebacks_out;
    Activity {
        cycles: c.cycles,
        fetched: c.fetched,
        dispatched: c.dispatched,
        issued: c.issued,
        replayed: c.replay_issues,
        committed: c.committed,
        fp_ops: c.fp_ops,
        memops: c.loads + c.stores,
        bpred_events: m.core.bp.lookups + m.core.bp.updates,
        btb_lookups: m.core.btb.lookups,
        l1_accesses: mem.l1d.stats.total_accesses() + mem.l1i.stats.total_accesses(),
        l2_accesses: mem.l2.stats.total_accesses(),
        l3_accesses: backside.l3.total_accesses(),
        bus_lines,
        lm_accesses: lm.map(|l| l.stats.cpu_accesses()).unwrap_or(0),
        lm_dma_blocks: lm
            .map(|l| (l.stats.dma_bytes_in + l.stats.dma_bytes_out).div_ceil(line))
            .unwrap_or(0),
        tlb_lookups: mem.tlb.lookups(),
        prefetch_obs: mem.prefetcher.stats.observations,
        dir_lookups,
        dir_updates,
        dma_blocks: (dma.bytes_get + dma.bytes_put).div_ceil(line),
        dram_lines: backside.dram.reads + backside.dram.writes,
        has_lm: lm.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::LatencyHistogram;

    #[test]
    fn histogram_percentiles_are_ordered_and_clamped() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max());
        assert!(p50 >= h.min());
        // p50 of 1..=1000 must land in the 512-element bucket
        // containing the true median.
        assert!((256..1024).contains(&p50), "{p50}");
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [3u64, 17, 100, 255, 256, 4096] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 2, 9000, 77] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p99(), 0);
    }
}
