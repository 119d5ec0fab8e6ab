//! Hierarchical clusters: groups of tiles, each group in front of its
//! **own** backside slice, each run to completion on its own.
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
//! Within a cluster, read-only shared arrays are served as usual, from
//! directory-tracked shared lines. *Across* clusters, v1 does not
//! model a home-directory hop: a shared range whose sharers span
//! clusters falls back to one replica per cluster: each cluster caches
//! its own lines of it, while its storage stays the one init buffer
//! every tile borrows. That fallback is never silent — [`cross_cluster_fallbacks`] counts the extra replicas
//! at plan-build time and the count travels through
//! [`ClusterRunReport::cross_cluster_fallbacks`] into the `coherence`
//! and `clusters` bench outputs, mirroring how intra-cluster layout
//! divergence is surfaced via `MultiMachine::replication_fallbacks`.
//!
//! ## Each cluster runs on its own
//!
//! No cluster sends a message to another, so nothing synchronizes
//! them: [`run_clusters`] builds each cluster's machine, runs it to
//! completion with one [`MultiMachine::run`] and collects its report —
//! one host thread per cluster (through [`parallel_map`]), or one
//! cluster after another on the calling thread
//! ([`ClusterConfig::serial_clusters`]). Both drivers perform the same
//! calls per cluster, so they are bit-identical (every statistic, skip
//! counters included), and both equal running each cluster's
//! `MultiMachine` standalone — which the equivalence tests pin against
//! the `lockstep` oracle as well. When an inter-cluster directory
//! lands, its messages bring the synchronization they need.
//!
//! ## Failure containment
//!
//! A failed cluster never touches its peers. Building, running and
//! collecting a cluster all happen under `catch_unwind`, so a panic, a
//! simulation error (the per-core `max_cycles` budget bounds a runaway
//! run) or a diverging comm-array layout becomes that cluster's
//! [`ClusterFailure`] while the others run their course. The run then
//! ends with a structured [`ClusterError`] naming every failed cluster
//! and carrying the *completed* clusters' reports — partial results
//! instead of an all-or-nothing error.

use crate::experiments::parallel_map;
use crate::machine::{MachineConfig, MultiMachine};
use crate::metrics::{MultiRunReport, RunReport};
use hsim_compiler::{CompiledKernel, Kernel, ShardError};
use hsim_core::pipeline::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    /// Escape hatch: run the clusters one after another on the calling
    /// thread instead of on host threads. Bit-identical to the threaded
    /// path (the determinism tests pin this); useful for debugging and
    /// single-CPU hosts.
    pub serial_clusters: bool,
}

impl ClusterConfig {
    /// A threaded configuration.
    pub fn new(topology: ClusterTopology) -> Self {
        ClusterConfig {
            topology,
            serial_clusters: false,
        }
    }

    /// Switches to the serial (single-thread) cluster driver.
    pub fn serial(mut self) -> Self {
        self.serial_clusters = true;
        self
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
    /// The cluster's driver panicked; the payload is rendered to a
    /// string. The panic was contained — its peers ran their course.
    Panic(String),
}

impl std::fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterFailure::Shard(e) => write!(f, "shard: {e}"),
            ClusterFailure::Sim(e) => write!(f, "simulation error: {e}"),
            ClusterFailure::Panic(msg) => write!(f, "host thread panicked: {msg}"),
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
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterRunReport {
    /// Per-cluster reports, indexed by cluster id (each covering that
    /// cluster's cores).
    pub per_cluster: Vec<MultiRunReport>,
    /// Machine makespan: the cycle the last core of any cluster halted.
    pub makespan: u64,
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

/// Runs one cluster to completion on the calling thread: builds its
/// machine over `shards` (one `(CompiledKernel, Kernel)` per core), runs
/// it and collects its report, all under `catch_unwind`, then hands the
/// machine to `done`. Diverging comm-array layouts fail the cluster with
/// [`ClusterFailure::Shard`]. The machine holds `Rc` backside handles,
/// so it lives and dies on this thread; only plain data crosses a
/// thread boundary.
fn run_lane(
    cfg: &MachineConfig,
    shards: &[(CompiledKernel, Kernel)],
    done: &mut Vec<MultiMachine>,
) -> Result<MultiRunReport, ClusterFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        let cfgs = vec![cfg.clone(); shards.len()];
        let mut m =
            MultiMachine::try_for_kernels_hetero(cfgs, shards).map_err(ClusterFailure::Shard)?;
        m.run()?;
        let cks: Vec<CompiledKernel> = shards.iter().map(|(ck, _)| ck.clone()).collect();
        let report = MultiRunReport::collect(&m, &cks);
        done.push(m);
        Ok(report)
    }))
    .unwrap_or_else(|p| Err(ClusterFailure::Panic(panic_message(p))))
}

/// Runs a clustered machine: cluster `c` is a [`MultiMachine`] over
/// `shards[c]` (one `(CompiledKernel, Kernel)` per core) built from
/// `cfg`, with its own backside. Each cluster runs to completion on its
/// own — on a host thread through [`parallel_map`], or one after
/// another on the calling thread when [`ClusterConfig::serial_clusters`]
/// is set. `fallbacks` is the plan's [`cross_cluster_fallbacks`] count,
/// carried into the report.
///
/// On failure — a cluster's build or simulation error, or a contained
/// panic — every other cluster still runs its course, then a structured
/// [`ClusterError`] is returned naming every failed cluster and
/// carrying the completed clusters' reports. Threaded and serial
/// drivers fail identically (the containment tests pin this).
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
    // The serial driver frees its machines together once every cluster
    // has run. Freeing each one after its report lowers peak memory, but
    // hands the caller's next set-up a colder heap: on a 2-CPU host,
    // set-up of the next benchmark point then took a third longer.
    let mut machines = Vec::new();
    let results: Vec<_> = if cluster.serial_clusters {
        shards
            .iter()
            .map(|s| run_lane(cfg, s, &mut machines))
            .collect()
    } else {
        parallel_map(shards.iter().collect(), |s| {
            run_lane(cfg, s, &mut Vec::new())
        })
    };
    let mut failures = Vec::new();
    let mut completed = Vec::new();
    for (c, r) in results.into_iter().enumerate() {
        match r {
            Ok(report) => completed.push((c, report)),
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
        cross_cluster_fallbacks: fallbacks,
    })
}
