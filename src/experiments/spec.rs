//! [`RunSpec`]: the one way to build and run a machine of any shape,
//! with the compile policy ([`compile_for_tile`]) and the error type
//! ([`MultiRunError`]) every shape shares.

use crate::cluster::{
    cross_cluster_fallbacks, run_clusters, ClusterConfig, ClusterError, ClusterRunReport,
};
use crate::machine::{Machine, MachineConfig, MultiMachine, SysMode};
use crate::metrics::{MultiRunReport, RunReport};
use hsim_compiler::{compile, compile_with_lm, interpret, CompiledKernel, Kernel, ShardError};
use hsim_core::pipeline::SimError;

/// What one [`RunSpec::run`] produced. Exactly one of `single`,
/// `multi`, `clusters` is populated, matching the machine shape the
/// spec requested; `verify_mismatches` accompanies them when
/// verification was enabled.
#[derive(Debug)]
pub struct RunOutcome {
    /// The report of a single-machine run ([`RunSpec::new`] without
    /// [`RunSpec::cores`]).
    pub single: Option<RunReport>,
    /// The report of a flat multicore run (sharded, heterogeneous or
    /// per-core kernel sets).
    pub multi: Option<MultiRunReport>,
    /// The report of a clustered run ([`RunSpec::clustered`]).
    pub clusters: Option<ClusterRunReport>,
    /// Mismatching array elements against the reference interpreter
    /// when [`RunSpec::verified`] was set (0 = clean).
    pub verify_mismatches: Option<usize>,
}

impl RunOutcome {
    /// The single-machine report; panics if the spec built a multicore
    /// or clustered machine.
    pub fn into_single(self) -> RunReport {
        self.single
            .expect("this RunSpec built a single-core machine")
    }

    /// The flat-multicore report; panics if the spec built a
    /// single-core or clustered machine.
    pub fn into_multi(self) -> MultiRunReport {
        self.multi
            .expect("this RunSpec built a flat multicore machine")
    }

    /// The clustered report; panics unless the spec was clustered.
    pub fn into_clusters(self) -> ClusterRunReport {
        self.clusters
            .expect("this RunSpec built a clustered machine")
    }
}

/// The one way to run kernels: a builder covering every machine shape
/// the simulator supports.
///
/// ```
/// use hsim::prelude::*;
///
/// let mut kb = KernelBuilder::new("axpy");
/// let a = kb.array_f64("a", 1024);
/// kb.begin_loop(1024);
/// let ra = kb.ref_affine(a, 1, 0);
/// kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::ConstF(1.0)));
/// kb.end_loop();
/// let kernel = kb.build().unwrap();
///
/// // Single core, default hybrid-coherent machine.
/// let r = RunSpec::new(&kernel).run().unwrap().into_single();
/// assert!(r.cycles > 0);
///
/// // The same kernel sharded across 2 cores of one machine.
/// let m = RunSpec::new(&kernel).cores(2).run().unwrap().into_multi();
/// assert_eq!(m.n_cores(), 2);
/// ```
///
/// Machine shapes, by builder calls:
///
/// | calls | machine |
/// |---|---|
/// | `new(k)` | one [`Machine`] |
/// | `new(k).cores(n)` | `k` sharded over an n-core [`MultiMachine`] (note: `cores(1)` still builds the 1-core *multicore* machine — shared-L3 port arbitration included) |
/// | `new(k).hetero(cfgs)` | weighted shards on per-tile configurations |
/// | `many(&kernels)` | one kernel **per core** (communication workloads) |
/// | `...clustered(topo)` | disjoint clusters, each run to completion on its own |
///
/// Configuration: [`RunSpec::mode`]/[`RunSpec::track`] adjust the
/// default machine; [`RunSpec::config`] replaces it wholesale
/// (`track` still applies afterwards). [`RunSpec::verified`] checks the
/// final memory image against the reference interpreter
/// (single-machine shapes only).
#[derive(Clone)]
pub struct RunSpec<'a> {
    single: Option<&'a Kernel>,
    many: Option<&'a [Kernel]>,
    cores: Option<usize>,
    mode: SysMode,
    track: Option<bool>,
    cfg: Option<MachineConfig>,
    hetero: Option<Vec<MachineConfig>>,
    weights: Option<Vec<u64>>,
    cluster: Option<ClusterConfig>,
    verified: bool,
}

impl<'a> RunSpec<'a> {
    /// A spec running `kernel` — on one core until [`RunSpec::cores`] /
    /// [`RunSpec::hetero`] / [`RunSpec::clustered`] reshape it.
    pub fn new(kernel: &'a Kernel) -> Self {
        RunSpec {
            single: Some(kernel),
            many: None,
            cores: None,
            mode: SysMode::HybridCoherent,
            track: None,
            cfg: None,
            hetero: None,
            weights: None,
            cluster: None,
            verified: false,
        }
    }

    /// A spec running one kernel **per core**: `kernels[i]` on tile
    /// `i`. This is the communication-workload shape — the kernels may
    /// deliberately overlap on `mark_comm`ed arrays, which are
    /// registered as directory-tracked shared ranges (diverging comm
    /// layouts are a hard [`ShardError::CommLayoutDiverged`]).
    pub fn many(kernels: &'a [Kernel]) -> Self {
        let mut s = RunSpec::new(&kernels[0]);
        s.single = None;
        s.many = Some(kernels);
        s
    }

    /// Shards the kernel across `n` cores of one [`MultiMachine`].
    /// `cores(1)` builds the 1-core multicore machine (shared-L3 port
    /// arbitration included), *not* the plain single machine — the
    /// distinction the scaling baselines rely on.
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = Some(n);
        self
    }

    /// Selects the [`SysMode`] of the default machine configuration
    /// (ignored after [`RunSpec::config`]).
    pub fn mode(mut self, mode: SysMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables/disables the runtime coherence tracker (applies on top
    /// of [`RunSpec::config`] too).
    pub fn track(mut self, track: bool) -> Self {
        self.track = Some(track);
        self
    }

    /// Replaces the machine configuration wholesale (all tiles on
    /// homogeneous shapes).
    pub fn config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Per-tile machine configurations: with [`RunSpec::new`] the
    /// kernel is shard-weighted across `cfgs.len()` tiles (see
    /// [`RunSpec::weights`]); with [`RunSpec::many`] tile `i` runs
    /// `kernels[i]` under `cfgs[i]`.
    pub fn hetero(mut self, cfgs: Vec<MachineConfig>) -> Self {
        self.hetero = Some(cfgs);
        self
    }

    /// Per-tile iteration weights for the heterogeneous sharded shape
    /// (defaults to even shares). One weight per tile.
    pub fn weights(mut self, weights: &[u64]) -> Self {
        self.weights = Some(weights.to_vec());
        self
    }

    /// Runs on a clustered machine: the kernel is sharded two-level
    /// across `cluster.topology` (or, with [`RunSpec::many`], kernel
    /// `i` runs on core `i % cores_per_cluster` of cluster
    /// `i / cores_per_cluster`), each cluster owning its backside
    /// slice and run to completion on its own
    /// ([`crate::cluster::run_clusters`]).
    pub fn clustered(mut self, cluster: &ClusterConfig) -> Self {
        self.cluster = Some(cluster.clone());
        self
    }

    /// Also checks the final memory image against the reference
    /// interpreter ([`RunOutcome::verify_mismatches`]). Single-machine
    /// shapes only.
    pub fn verified(mut self) -> Self {
        self.verified = true;
        self
    }

    fn effective_cfg(&self) -> MachineConfig {
        let mut cfg = self
            .cfg
            .clone()
            .unwrap_or_else(|| MachineConfig::for_mode(self.mode));
        if let Some(track) = self.track {
            cfg.track_coherence = track;
        }
        cfg
    }

    /// Builds the machine the spec describes, runs it, and returns the
    /// outcome. Sharding failures (including diverging comm-array
    /// layouts) surface as [`MultiRunError::Shard`].
    pub fn run(self) -> Result<RunOutcome, MultiRunError> {
        let cfg = self.effective_cfg();
        let mut out = RunOutcome {
            single: None,
            multi: None,
            clusters: None,
            verify_mismatches: None,
        };
        if self.cluster.is_some() {
            assert!(!self.verified, "verified clustered runs are not supported");
            out.clusters = Some(self.run_clustered_shape(&cfg)?);
            return Ok(out);
        }
        if let Some(tiles) = self.flat_tiles(&cfg)? {
            assert!(!self.verified, "verification covers single-machine shapes");
            let (cfgs, compiled): (Vec<MachineConfig>, Vec<(CompiledKernel, Kernel)>) = tiles
                .into_iter()
                .map(|(c, k)| {
                    let ck = compile_for_tile(&k, &c);
                    (c, (ck, k))
                })
                .unzip();
            let mut m = MultiMachine::try_for_kernels_hetero(cfgs, &compiled)?;
            m.run()?;
            let cks: Vec<_> = compiled.into_iter().map(|(ck, _)| ck).collect();
            out.multi = Some(MultiRunReport::collect(&m, &cks));
            return Ok(out);
        }
        let kernel = self.single.expect("RunSpec always holds kernels");
        // Single machine.
        let ck = compile_for_tile(kernel, &cfg);
        let mut m = Machine::for_kernel(cfg, &ck, kernel);
        m.run()?;
        let report = RunReport::collect(&m, &ck);
        if self.verified {
            let want = interpret(kernel).expect("kernel must interpret");
            let mut mismatches = 0;
            for (id, expect) in want.iter().enumerate() {
                let got = m.read_array(&ck, kernel, id);
                mismatches += got.iter().zip(expect).filter(|(g, w)| g != w).count();
            }
            out.verify_mismatches = Some(mismatches);
        }
        out.single = Some(report);
        Ok(out)
    }

    /// The `(configuration, kernel)` of every tile of a flat multicore
    /// shape — one kernel per core ([`RunSpec::many`]), weighted shards
    /// on per-tile configurations ([`RunSpec::hetero`] /
    /// [`RunSpec::weights`]) or even shards ([`RunSpec::cores`]) — or
    /// `None` for the single-machine shape.
    fn flat_tiles(
        &self,
        cfg: &MachineConfig,
    ) -> Result<Option<Vec<(MachineConfig, Kernel)>>, MultiRunError> {
        let cfgs = |n: usize| self.hetero.clone().unwrap_or_else(|| vec![cfg.clone(); n]);
        let (cfgs, kernels) = if let Some(kernels) = self.many {
            assert!(
                self.weights.is_none(),
                "weights shard a single kernel; RunSpec::many runs one kernel per core"
            );
            (cfgs(kernels.len()), kernels.to_vec())
        } else {
            let kernel = self.single.expect("RunSpec always holds kernels");
            if self.hetero.is_some() || self.weights.is_some() {
                let cfgs = cfgs(self.weights.as_ref().map_or(0, Vec::len));
                let weights = self.weights.clone().unwrap_or_else(|| vec![1; cfgs.len()]);
                assert_eq!(cfgs.len(), weights.len(), "one weight per tile");
                let shards = kernel.shard_weighted(&weights)?;
                (cfgs, shards)
            } else if let Some(n) = self.cores {
                (cfgs(n), kernel.shard(n)?)
            } else {
                return Ok(None);
            }
        };
        assert_eq!(cfgs.len(), kernels.len(), "one configuration per tile");
        Ok(Some(cfgs.into_iter().zip(kernels).collect()))
    }

    fn run_clustered_shape(&self, cfg: &MachineConfig) -> Result<ClusterRunReport, MultiRunError> {
        let cluster = self.cluster.as_ref().expect("clustered shape");
        let topo = cluster.topology;
        // The kernel of every core, grouped cluster-major.
        let (kernels, fallbacks): (Vec<Vec<Kernel>>, u64) = match self.many {
            None => {
                let kernel = self.single.expect("RunSpec always holds kernels");
                (
                    kernel.shard_clustered(topo.clusters, topo.cores_per_cluster)?,
                    cross_cluster_fallbacks(kernel, topo.clusters),
                )
            }
            Some(kernels) => {
                // Comm sets are built with cluster-local pairs, so
                // there is nothing to replicate across clusters:
                // another cluster's comm arrays are declared (layout
                // agreement) but never touched.
                assert_eq!(
                    kernels.len(),
                    topo.clusters * topo.cores_per_cluster,
                    "one kernel per core of the clustered machine"
                );
                let per_cluster = kernels.chunks(topo.cores_per_cluster);
                (per_cluster.map(<[Kernel]>::to_vec).collect(), 0)
            }
        };
        let shards: Vec<Vec<(CompiledKernel, Kernel)>> = kernels
            .into_iter()
            .map(|cluster| {
                let compiled = cluster.into_iter().map(|k| (compile_for_tile(&k, cfg), k));
                compiled.collect()
            })
            .collect();
        Ok(run_clusters(cfg, cluster, &shards, fallbacks)?)
    }
}

/// Compiles one kernel (or shard) for one tile: for the tile's
/// `SysMode`, against the tile's own LM budget when it has a local
/// memory (`compile_with_lm`), plainly otherwise. The single compile
/// policy of every machine shape [`RunSpec`] builds — change it here
/// and every machine follows.
pub fn compile_for_tile(shard: &Kernel, cfg: &MachineConfig) -> CompiledKernel {
    match cfg.mem.lm.as_ref() {
        Some(lm) => compile_with_lm(shard, cfg.mode.codegen(), lm.size_bytes),
        None => compile(shard, cfg.mode.codegen()),
    }
}

/// What can go wrong in a sharded multicore run: the split itself, the
/// simulation of one of the cores, or — for clustered runs — a
/// cluster failure (a contained panic, or a cluster's own build or
/// simulation error) with the surviving clusters' partial reports
/// attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiRunError {
    /// The kernel could not be sharded, or a communication array's
    /// layouts diverged across the per-core kernels
    /// ([`ShardError::CommLayoutDiverged`]).
    Shard(ShardError),
    /// A core's simulation failed.
    Sim(SimError),
    /// A clustered run degraded: one or more clusters failed (see
    /// [`ClusterError`] for causes and the completed clusters' reports).
    Cluster(ClusterError),
}

impl std::fmt::Display for MultiRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiRunError::Shard(e) => write!(f, "shard: {e}"),
            MultiRunError::Sim(e) => write!(f, "simulation: {e}"),
            MultiRunError::Cluster(e) => write!(f, "clusters: {e}"),
        }
    }
}

impl std::error::Error for MultiRunError {}

impl From<ShardError> for MultiRunError {
    fn from(e: ShardError) -> Self {
        MultiRunError::Shard(e)
    }
}

impl From<SimError> for MultiRunError {
    fn from(e: SimError) -> Self {
        MultiRunError::Sim(e)
    }
}

impl From<ClusterError> for MultiRunError {
    fn from(e: ClusterError) -> Self {
        MultiRunError::Cluster(e)
    }
}

impl MultiRunError {
    /// The sweep-point policy: a kernel that cannot shard to a point's
    /// shape (indirect indexing, a weight starving a shard) skips the
    /// point — `Ok(None)` — while every other error fails the sweep.
    pub fn skip_unshardable<T>(run: Result<T, Self>) -> Result<Option<T>, Self> {
        match run {
            Ok(v) => Ok(Some(v)),
            Err(MultiRunError::Shard(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}
