//! Hierarchical clusters: groups of tiles, each group in front of its
//! **own** backside slice, advanced in epoch-synchronized host threads.
//!
//! A [`ClusterTopology`] splits the machine's cores into `clusters`
//! groups of `cores_per_cluster` tiles. Each cluster is a full
//! [`MultiMachine`] — per-core tiles sharing one banked L3 + DRAM
//! backside — and the clusters' backsides are *disjoint*: the
//! CC-NUMA design point where each coherence island owns its last-level
//! cache and memory channel(s), joined only by an explicit inter-island
//! link.
//!
//! ## Cross-cluster shared data (v1: counted replication)
//!
//! Within a cluster, read-only shared arrays are served as usual
//! (directory-tracked shared lines under `CoherenceMode::Mesi`,
//! per-core replicas under `Replicate`). *Across* clusters, v1 does not
//! model a home-directory hop: a shared range whose sharers span
//! clusters falls back to one replica per cluster. That fallback is
//! never silent — [`cross_cluster_fallbacks`] counts the extra replicas
//! at plan-build time and the count travels through
//! [`ClusterRunReport::cross_cluster_fallbacks`] into the `coherence`
//! and `clusters` bench outputs, mirroring how intra-cluster layout
//! divergence is surfaced via `MultiMachine::replication_fallbacks`.
//!
//! ## Epoch-synchronized host parallelism
//!
//! Because the clusters' simulated state is disjoint, each can advance
//! on its own host thread. The drivers advance every cluster with the
//! same call sequence — `run_until(e)`, `run_until(2e)`, … with
//! `e = max(inter_cluster_latency, 1)` — and barrier between epochs
//! (the earliest cycle a cross-cluster message could matter is one
//! inter-cluster latency away, so an epoch never outruns it). The
//! scheduler state [`MultiMachine::run_until`] persists between calls
//! makes the chunked run *bit-identical* to one monolithic
//! [`MultiMachine::run`] per cluster, so:
//!
//! * threaded vs [`ClusterConfig::serial_clusters`] is bit-identical
//!   (every statistic, skip counters included), and
//! * both are bit-identical to running each cluster's `MultiMachine`
//!   standalone — which the equivalence tests pin against the
//!   `lockstep` oracle as well.
//!
//! The thread protocol uses a double barrier per epoch: each thread
//! runs its epoch, publishes its done flag, waits; every thread then
//! reads *all* flags (no thread mutates between the barriers, so they
//! agree), waits again, and either exits or starts the next epoch. A
//! cluster that halts or errors early keeps joining the barriers —
//! without simulating — until every cluster is done, so no thread ever
//! waits on an absent peer.
//!
//! ## Host-level degradation
//!
//! The barrier protocol makes a *vanished* peer fatal: a cluster thread
//! that panicked mid-epoch would leave every other thread blocked on
//! `Barrier::wait` forever. The drivers therefore contain faults
//! instead of hanging on them:
//!
//! * every epoch body (and the machine build, and the report
//!   collection) runs under `catch_unwind` — a panicking cluster marks
//!   itself done and **keeps joining the barriers**, so its peers run
//!   their course;
//! * an epoch watchdog bounds the barrier loop: a cluster still running
//!   past [`ClusterConfig::max_epochs`] epochs (derived from the cycle
//!   budget by default) is failed with [`ClusterFailure::Watchdog`]
//!   rather than spinning;
//! * the run then terminates with a structured [`ClusterError`] naming
//!   every failed cluster and carrying the *completed* clusters'
//!   reports — partial results instead of a poisoned hang.

use crate::machine::{MachineConfig, MultiMachine};
use crate::metrics::{MultiRunReport, RunReport};
use hsim_compiler::{CompiledKernel, Kernel, ShardError};
use hsim_core::pipeline::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// How a machine's cores are grouped into clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of clusters (each with its own backside slice).
    pub clusters: usize,
    /// Tiles per cluster (sharing that cluster's backside).
    pub cores_per_cluster: usize,
}

impl ClusterTopology {
    /// A `clusters × cores_per_cluster` topology (both must be ≥ 1).
    pub fn new(clusters: usize, cores_per_cluster: usize) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        assert!(cores_per_cluster >= 1, "need at least one core per cluster");
        ClusterTopology {
            clusters,
            cores_per_cluster,
        }
    }

    /// Total cores across all clusters.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }
}

/// Configuration of a clustered run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The cluster shape.
    pub topology: ClusterTopology,
    /// Cycles an inter-cluster hop would cost. v1 models no such hops
    /// (cross-cluster sharing falls back to counted replication), but
    /// the value still sets the epoch length: clusters synchronize at
    /// least this often, so a future home-directory hop can never be
    /// outrun by a cluster that advanced too far.
    pub inter_cluster_latency: u64,
    /// Escape hatch: advance the clusters round-robin on the calling
    /// thread instead of one thread each. Bit-identical to the threaded
    /// path (the determinism tests pin this); useful for debugging and
    /// single-CPU hosts.
    pub serial_clusters: bool,
    /// Epoch watchdog bound: a cluster still running after this many
    /// epochs fails with [`ClusterFailure::Watchdog`] instead of
    /// looping. `None` (the default) derives the bound from the cycle
    /// budget — `max_cycles / epoch_len + 2` — which a healthy run can
    /// never reach (the per-core cycle limit fires first), so the
    /// watchdog only catches a host-level wedge.
    pub max_epochs: Option<u64>,
    /// Robustness test hook: panic the given cluster's host driver at
    /// its first epoch, exercising the containment path (the panic is
    /// caught, the peers complete, the run fails with a structured
    /// [`ClusterError`] instead of hanging on the barrier).
    pub inject_panic: Option<usize>,
}

impl ClusterConfig {
    /// Default inter-cluster hop latency (cycles) — also the epoch
    /// length. Roughly two DRAM round trips: far enough to amortize
    /// barrier overhead, close enough that a future inter-cluster
    /// protocol stays conservative.
    pub const DEFAULT_INTER_CLUSTER_LATENCY: u64 = 500;

    /// A threaded configuration with the default inter-cluster latency.
    pub fn new(topology: ClusterTopology) -> Self {
        ClusterConfig {
            topology,
            inter_cluster_latency: Self::DEFAULT_INTER_CLUSTER_LATENCY,
            serial_clusters: false,
            max_epochs: None,
            inject_panic: None,
        }
    }

    /// Switches to the serial (single-thread) cluster driver.
    pub fn serial(mut self) -> Self {
        self.serial_clusters = true;
        self
    }

    /// The epoch length in cycles (at least 1).
    pub fn epoch_len(&self) -> u64 {
        self.inter_cluster_latency.max(1)
    }

    /// The effective epoch watchdog bound under `cfg`:
    /// [`ClusterConfig::max_epochs`] when set, otherwise derived from
    /// the cycle budget so a healthy run can never trip it.
    pub fn effective_max_epochs(&self, cfg: &MachineConfig) -> u64 {
        self.max_epochs.unwrap_or_else(|| {
            cfg.core
                .max_cycles
                .div_ceil(self.epoch_len())
                .saturating_add(2)
        })
    }
}

/// Why one cluster of a clustered run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterFailure {
    /// The cluster's machine could not be built: a communication
    /// array's layouts diverge across its kernels
    /// ([`ShardError::CommLayoutDiverged`]).
    Shard(ShardError),
    /// The cluster's simulation returned an error (deadlock, cycle
    /// limit, …).
    Sim(SimError),
    /// The cluster's host thread panicked; the payload is rendered to a
    /// string. The panic was contained — its peers ran their course.
    Panic(String),
    /// The epoch watchdog fired: the cluster was still running after
    /// the configured epoch bound (see [`ClusterConfig::max_epochs`]).
    Watchdog {
        /// Epochs the cluster had run when the watchdog fired.
        epochs: u64,
    },
}

impl std::fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterFailure::Shard(e) => write!(f, "shard: {e}"),
            ClusterFailure::Sim(e) => write!(f, "simulation error: {e}"),
            ClusterFailure::Panic(msg) => write!(f, "host thread panicked: {msg}"),
            ClusterFailure::Watchdog { epochs } => {
                write!(
                    f,
                    "epoch watchdog fired after {epochs} epochs without completion"
                )
            }
        }
    }
}

/// Structured failure of a clustered run: every failed cluster with its
/// cause, plus the reports of the clusters that *did* complete —
/// graceful degradation instead of a hang or an all-or-nothing error.
///
/// Equality (`==`, used by the determinism tests to pin threaded
/// against serial) compares the failure list only: `completed` carries
/// [`MultiRunReport`]s, which are data payloads, not part of the
/// error's identity.
#[derive(Clone, Debug)]
pub struct ClusterError {
    /// `(cluster id, cause)` for every failed cluster, ordered by id.
    pub failures: Vec<(usize, ClusterFailure)>,
    /// `(cluster id, report)` for every cluster that completed its run,
    /// ordered by id — partial results of the degraded run.
    pub completed: Vec<(usize, MultiRunReport)>,
}

impl PartialEq for ClusterError {
    fn eq(&self, other: &Self) -> bool {
        self.failures == other.failures
    }
}

impl Eq for ClusterError {}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cluster(s) failed:", self.failures.len())?;
        for (c, cause) in &self.failures {
            write!(f, " [cluster {c}: {cause}]")?;
        }
        write!(f, "; {} cluster(s) completed", self.completed.len())
    }
}

impl std::error::Error for ClusterError {}

impl From<SimError> for ClusterFailure {
    fn from(e: SimError) -> Self {
        ClusterFailure::Sim(e)
    }
}

/// Renders a caught panic payload for [`ClusterFailure::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Aggregated results of a clustered run.
#[derive(Clone, Debug)]
pub struct ClusterRunReport {
    /// Per-cluster reports, indexed by cluster id (each covering that
    /// cluster's cores).
    pub per_cluster: Vec<MultiRunReport>,
    /// Machine makespan: the cycle the last core of any cluster halted.
    pub makespan: u64,
    /// Epoch-barrier rounds the run took.
    pub epochs: u64,
    /// Cycles per epoch (`ClusterConfig::epoch_len`).
    pub epoch_cycles: u64,
    /// Extra per-cluster replicas of shared arrays whose sharers span
    /// clusters (see [`cross_cluster_fallbacks`]) — cross-cluster
    /// traffic that v1 replicates instead of modeling, surfaced so it
    /// is never silently free.
    pub cross_cluster_fallbacks: u64,
}

impl ClusterRunReport {
    /// Every core's report, cluster-major.
    pub fn cores(&self) -> impl Iterator<Item = &RunReport> {
        self.per_cluster.iter().flat_map(|m| &m.per_core)
    }

    /// Sums one per-core counter over every core of every cluster (and
    /// so over all DRAM channels): `r.total(|c| c.dram_reads)`.
    pub fn total<T: std::iter::Sum>(&self, f: impl Fn(&RunReport) -> T) -> T {
        self.cores().map(f).sum()
    }
}

/// Extra replicas a clustered run creates for shared arrays whose
/// sharers span clusters: each of the kernel's shared-marked arrays is
/// replicated once per cluster instead of being served through an
/// inter-cluster home directory, so `spanning_arrays × (clusters − 1)`
/// replicas exist beyond the single-cluster machine's. 0 for one
/// cluster. Counted at plan-build time and reported through
/// [`ClusterRunReport::cross_cluster_fallbacks`].
pub fn cross_cluster_fallbacks(kernel: &Kernel, clusters: usize) -> u64 {
    if clusters <= 1 {
        return 0;
    }
    // The sharder marks replicated-whole read-only arrays `shared` on
    // the shards (never on the source kernel), so ask it directly: the
    // arrays shared across cluster-level superslices are exactly the
    // ones whose sharers would span clusters. A kernel that cannot
    // shard across clusters has no clustered run to pay for.
    match kernel.shard(clusters) {
        Ok(superslices) => {
            let spanning = superslices[0].arrays.iter().filter(|a| a.shared).count() as u64;
            spanning * (clusters as u64 - 1)
        }
        Err(_) => 0,
    }
}

/// What one cluster's driver returns: its report and the epoch count.
type LaneResult = Result<(MultiRunReport, u64), ClusterFailure>;

/// One cluster's host-side driver state, shared by [`run_serial`] and
/// [`run_threaded`] so the two perform the same build / epoch step /
/// finish sequence and fail identically. Every fallible step runs
/// under `catch_unwind`; `machine` is `None` after a failed build or a
/// contained epoch panic (the machine may be mid-mutation; it is never
/// touched again).
struct ClusterLane {
    id: usize,
    machine: Option<(MultiMachine, Vec<CompiledKernel>)>,
    failure: Option<ClusterFailure>,
    done: bool,
}

impl ClusterLane {
    /// Builds cluster `id`'s machine; diverging comm-array layouts fail
    /// the lane with [`ClusterFailure::Shard`]. Machines hold `Rc`
    /// backside handles, so the threaded driver calls this — and
    /// everything else on the lane — inside the cluster's own thread;
    /// only plain data crosses the boundary.
    fn build(id: usize, cfg: &MachineConfig, shards: &[(CompiledKernel, Kernel)]) -> Self {
        let built = catch_unwind(AssertUnwindSafe(|| {
            let m = MultiMachine::try_for_kernels_hetero(vec![cfg.clone(); shards.len()], shards)?;
            Ok((m, shards.iter().map(|(ck, _)| ck.clone()).collect()))
        }));
        let mut lane = ClusterLane {
            id,
            machine: None,
            failure: None,
            done: false,
        };
        match built {
            Ok(Ok(m)) => lane.machine = Some(m),
            Ok(Err(e)) => lane.fail(ClusterFailure::Shard(e)),
            Err(p) => lane.fail(ClusterFailure::Panic(panic_message(p))),
        }
        lane
    }

    fn fail(&mut self, failure: ClusterFailure) {
        self.failure = Some(failure);
        self.done = true;
    }

    /// Advances a running lane through the epoch ending at `epoch_end`
    /// (`epochs` epochs ran before it), then applies the watchdog; a
    /// lane that is already done does nothing.
    fn step(&mut self, epoch_end: u64, epochs: u64, max_epochs: u64, inject_panic: Option<usize>) {
        if self.done {
            return;
        }
        let id = self.id;
        let (m, _) = self.machine.as_mut().expect("running lane has a machine");
        let inject = inject_panic == Some(id) && epochs == 0;
        match catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected cluster-thread panic (cluster {id})");
            }
            m.run_until(epoch_end)
        })) {
            Err(p) => {
                self.machine = None;
                self.fail(ClusterFailure::Panic(panic_message(p)));
            }
            Ok(Err(e)) => self.fail(ClusterFailure::Sim(e)),
            Ok(Ok(())) => self.done = m.all_halted(),
        }
        if !self.done && epochs + 1 >= max_epochs {
            self.fail(ClusterFailure::Watchdog { epochs: epochs + 1 });
        }
    }

    /// The lane's failure, or its collected report with the run's epoch
    /// count.
    fn finish(self, epochs: u64) -> LaneResult {
        if let Some(f) = self.failure {
            return Err(f);
        }
        let (m, cks) = self.machine.as_ref().expect("completed lane has a machine");
        catch_unwind(AssertUnwindSafe(|| MultiRunReport::collect(m, cks)))
            .map(|r| (r, epochs))
            .map_err(|p| ClusterFailure::Panic(panic_message(p)))
    }
}

/// Runs a clustered machine: cluster `c` is a [`MultiMachine`] over
/// `shards[c]` (one `(CompiledKernel, Kernel)` per core) built from
/// `cfg`, with its own backside. Dispatches to the epoch-synchronized
/// threaded driver, or the bit-identical serial one when
/// [`ClusterConfig::serial_clusters`] is set (a single cluster always
/// runs serially — there is nothing to overlap). `fallbacks` is the
/// plan's [`cross_cluster_fallbacks`] count, carried into the report.
///
/// On failure — a cluster's simulation error, a contained host-thread
/// panic, or the epoch watchdog — every other cluster still runs its
/// course, then a structured [`ClusterError`] is returned naming every
/// failed cluster and carrying the completed clusters' reports. The
/// same answer regardless of host thread timing (threaded and serial
/// drivers fail identically; the containment tests pin this).
pub fn run_clusters(
    cfg: &MachineConfig,
    cluster: &ClusterConfig,
    shards: &[Vec<(CompiledKernel, Kernel)>],
    fallbacks: u64,
) -> Result<ClusterRunReport, ClusterError> {
    let topo = cluster.topology;
    assert_eq!(shards.len(), topo.clusters, "one shard list per cluster");
    for (c, s) in shards.iter().enumerate() {
        assert_eq!(
            s.len(),
            topo.cores_per_cluster,
            "cluster {c}: one shard per core"
        );
    }
    let epoch_len = cluster.epoch_len();
    let max_epochs = cluster.effective_max_epochs(cfg);
    let inject_panic = cluster.inject_panic;
    let results = if cluster.serial_clusters || topo.clusters == 1 {
        run_serial(cfg, shards, epoch_len, max_epochs, inject_panic)
    } else {
        run_threaded(cfg, shards, epoch_len, max_epochs, inject_panic)
    };
    let mut failures = Vec::new();
    let mut completed = Vec::new();
    let mut epochs = 0u64;
    for (c, r) in results.into_iter().enumerate() {
        match r {
            Ok((report, e)) => {
                epochs = epochs.max(e);
                completed.push((c, report));
            }
            Err(f) => failures.push((c, f)),
        }
    }
    if !failures.is_empty() {
        return Err(ClusterError {
            failures,
            completed,
        });
    }
    let per_cluster: Vec<MultiRunReport> = completed.into_iter().map(|(_, r)| r).collect();
    let makespan = per_cluster.iter().map(|r| r.makespan).max().unwrap_or(0);
    Ok(ClusterRunReport {
        per_cluster,
        makespan,
        epochs,
        epoch_cycles: epoch_len,
        cross_cluster_fallbacks: fallbacks,
    })
}

/// The serial oracle: all clusters on the calling thread, advanced
/// round-robin one epoch at a time — the exact [`ClusterLane`] call
/// sequence per cluster that each thread of [`run_threaded`] performs,
/// so the two drivers fail identically too.
fn run_serial(
    cfg: &MachineConfig,
    shards: &[Vec<(CompiledKernel, Kernel)>],
    epoch_len: u64,
    max_epochs: u64,
    inject_panic: Option<usize>,
) -> Vec<LaneResult> {
    let mut lanes: Vec<ClusterLane> = shards
        .iter()
        .enumerate()
        .map(|(c, s)| ClusterLane::build(c, cfg, s))
        .collect();
    let mut epoch_end = epoch_len;
    let mut epochs = 0u64;
    loop {
        for l in &mut lanes {
            l.step(epoch_end, epochs, max_epochs, inject_panic);
        }
        epochs += 1;
        if lanes.iter().all(|l| l.done) {
            break;
        }
        epoch_end += epoch_len;
    }
    lanes.into_iter().map(|l| l.finish(epochs)).collect()
}

/// The threaded driver: one scoped `std::thread` per cluster, epochs
/// synchronized with a double barrier (see the module docs for why two
/// waits make the done decision consistent without a race).
///
/// A lane that panicked, failed or tripped the watchdog is done and
/// keeps joining the barriers so no peer ever blocks on a vanished
/// thread.
fn run_threaded(
    cfg: &MachineConfig,
    shards: &[Vec<(CompiledKernel, Kernel)>],
    epoch_len: u64,
    max_epochs: u64,
    inject_panic: Option<usize>,
) -> Vec<LaneResult> {
    let n = shards.len();
    let barrier = Barrier::new(n);
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(c, cluster_shards)| {
                let barrier = &barrier;
                let done = &done;
                s.spawn(move || -> LaneResult {
                    let mut lane = ClusterLane::build(c, cfg, cluster_shards);
                    let mut epoch_end = epoch_len;
                    let mut epochs = 0u64;
                    loop {
                        lane.step(epoch_end, epochs, max_epochs, inject_panic);
                        epochs += 1;
                        if lane.done {
                            done[c].store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        // No thread stores a flag between the barriers,
                        // so every thread computes the same answer.
                        let all_done = done.iter().all(|d| d.load(Ordering::SeqCst));
                        barrier.wait();
                        if all_done {
                            break;
                        }
                        epoch_end += epoch_len;
                    }
                    lane.finish(epochs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(ClusterFailure::Panic(panic_message(p))))
            })
            .collect()
    })
}
