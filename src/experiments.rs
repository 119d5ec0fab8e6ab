//! Experiment drivers: one function per paper table/figure, plus the
//! communication-workload and request-serving drivers.
//!
//! The bench driver (`hsim-bench <name>`) prints these results in the
//! paper's format; the integration tests assert the qualitative shapes
//! at small scale. Each driver compiles the workload for the modes it
//! compares, runs the machine(s), and returns structured rows.
//!
//! **Running kernels.** [`RunSpec`] is the single entry point for
//! simulating kernels: a builder that covers every machine shape —
//! single core, sharded homogeneous multicore, heterogeneous tiles with
//! weighted shards, per-core kernel sets (communication workloads),
//! clustered machines — plus verification against the reference
//! interpreter and host-time profiling.
//!
//! **Sweeps.** Every sweep driver takes a [`Parallelism`] knob:
//! `Serial` runs the independent simulation points sequentially,
//! `HostThreads` fans them across host threads with [`parallel_map`] —
//! same results either way (each point is deterministic and
//! self-contained), a fraction of the wall-clock on multi-core hosts.
//! This host threading is unrelated to the *simulated* multicore: one
//! sweep point may itself be an N-core [`MultiMachine`].

use crate::cluster::{
    cross_cluster_fallbacks, run_clusters, ClusterConfig, ClusterError, ClusterRunReport,
};
use crate::machine::{Machine, MachineConfig, MultiMachine, SysMode};
use crate::metrics::{LatencyHistogram, MultiRunReport, RequestServingReport, RunReport};
use hsim_compiler::{compile, compile_with_lm, interpret, CompiledKernel, Kernel, ShardError};
use hsim_core::config::CoherenceMode;
use hsim_core::pipeline::SimError;
use hsim_workloads::comm as commw;
use hsim_workloads::{microbench, MicroMode, MicrobenchConfig, Scale};

/// Runs `f` over `items` on a pool of host threads (scoped; no
/// dependencies beyond `std`) and returns the outputs in input order.
///
/// The worker count is `min(available_parallelism, items)`; on a
/// single-CPU host this degenerates to the sequential loop. Ordering and
/// results are independent of the schedule because every job is
/// self-contained.
pub fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let jobs: Vec<std::sync::Mutex<Option<I>>> = items
        .into_iter()
        .map(|i| std::sync::Mutex::new(Some(i)))
        .collect();
    let slots: Vec<std::sync::Mutex<Option<O>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("job claimed once");
                *slots[i].lock().unwrap() = Some(f(job));
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// How a sweep driver executes its independent simulation points. The
/// results are identical either way — every point is deterministic and
/// self-contained — so this is purely a wall-clock knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Points run sequentially on the calling thread.
    #[default]
    Serial,
    /// Points fan out across host threads via [`parallel_map`]
    /// (`min(available_parallelism, points)` workers).
    HostThreads,
}

impl Parallelism {
    /// Maps `f` over `items` under this execution policy, preserving
    /// input order.
    pub fn map<I, O, F>(self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        match self {
            Parallelism::Serial => items.into_iter().map(f).collect(),
            Parallelism::HostThreads => parallel_map(items, f),
        }
    }
}

/// What one [`RunSpec::run`] produced. Exactly one of `single`,
/// `multi`, `clusters` is populated, matching the machine shape the
/// spec requested; `profile` and `verify_mismatches` accompany them
/// when profiling/verification was enabled.
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
    /// Host-time attribution when [`RunSpec::profiled`] was set.
    pub profile: Option<hsim_core::HostProfile>,
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
/// | `...clustered(topo)` | epoch-synchronized clusters |
///
/// Configuration: [`RunSpec::mode`]/[`RunSpec::track`] adjust the
/// default machine; [`RunSpec::config`] replaces it wholesale
/// (`track` still applies afterwards). [`RunSpec::profiled`] attributes
/// host time; [`RunSpec::verified`] checks the final memory image
/// against the reference interpreter (single-machine shapes only).
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
    profiled: bool,
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
            profiled: false,
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
    /// slice, epoch-synchronized ([`crate::cluster::run_clusters`]).
    pub fn clustered(mut self, cluster: &ClusterConfig) -> Self {
        self.cluster = Some(cluster.clone());
        self
    }

    /// Attributes host time to scheduler phases
    /// ([`hsim_core::HostProfile`]); simulated results are
    /// bit-identical to the unprofiled run. Not supported on clustered
    /// shapes.
    pub fn profiled(mut self) -> Self {
        self.profiled = true;
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
            profile: None,
            verify_mismatches: None,
        };
        if self.cluster.is_some() {
            assert!(
                !self.profiled && !self.verified,
                "profiled/verified clustered runs are not supported"
            );
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
            if self.profiled {
                let mut prof = hsim_core::HostProfile::default();
                m.run_profiled(&mut prof)?;
                out.profile = Some(prof);
            } else {
                m.run()?;
            }
            let cks: Vec<_> = compiled.into_iter().map(|(ck, _)| ck).collect();
            out.multi = Some(MultiRunReport::collect(&m, &cks));
            return Ok(out);
        }
        let kernel = self.single.expect("RunSpec always holds kernels");
        // Single machine.
        let ck = compile(kernel, cfg.mode.codegen());
        let mut m = Machine::for_kernel(cfg, &ck, kernel);
        if self.profiled {
            let mut prof = hsim_core::HostProfile::default();
            m.run_profiled(&mut prof)?;
            out.profile = Some(prof);
        } else {
            m.run()?;
        }
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
        let (shards, fallbacks): (Vec<Vec<(CompiledKernel, Kernel)>>, u64) = match self.many {
            None => {
                let kernel = self.single.expect("RunSpec always holds kernels");
                let sliced = kernel.shard_clustered(topo.clusters, topo.cores_per_cluster)?;
                let shards = sliced
                    .into_iter()
                    .map(|superslice| {
                        superslice
                            .into_iter()
                            .map(|s| (compile(&s, cfg.mode.codegen()), s))
                            .collect()
                    })
                    .collect();
                (shards, cross_cluster_fallbacks(kernel, topo.clusters))
            }
            Some(kernels) => {
                // One kernel per core, grouped cluster-major. Comm sets
                // are built with cluster-local pairs, so there is
                // nothing to replicate across clusters: another
                // cluster's comm arrays are declared (layout agreement)
                // but never touched.
                assert_eq!(
                    kernels.len(),
                    topo.clusters * topo.cores_per_cluster,
                    "one kernel per core of the clustered machine"
                );
                let shards = kernels
                    .chunks(topo.cores_per_cluster)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .map(|k| (compile_for_tile(k, cfg), k.clone()))
                            .collect()
                    })
                    .collect();
                (shards, 0)
            }
        };
        Ok(run_clusters(cfg, cluster, &shards, fallbacks)?)
    }
}

/// Compiles one shard for one tile of a heterogeneous machine: for the
/// tile's `SysMode`, against the tile's own LM budget when it has a
/// local memory (`compile_with_lm`), plainly otherwise. The single
/// compile policy shared by every heterogeneous and per-core-kernel
/// machine [`RunSpec`] builds — change it here and every such machine
/// follows.
pub fn compile_for_tile(shard: &Kernel, cfg: &MachineConfig) -> CompiledKernel {
    match cfg.mem.lm.as_ref() {
        Some(lm) => compile_with_lm(shard, cfg.mode.codegen(), lm.size_bytes),
        None => compile(shard, cfg.mode.codegen()),
    }
}

/// What can go wrong in a sharded multicore run: the split itself, the
/// simulation of one of the cores, or — for clustered runs — a
/// host-level cluster failure (contained panic, epoch watchdog, or a
/// cluster's own simulation error) with the surviving clusters'
/// partial reports attached.
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

/// Runs `point` over the cartesian grid `outer × inner` (outer-major
/// order), one job per point under `par`, and collects the rows of the
/// points that were not skipped (`Ok(None)`).
fn sweep_grid<A: Sync, B: Sync, R: Send>(
    outer: &[A],
    inner: &[B],
    par: Parallelism,
    point: impl Fn(&A, &B) -> Result<Option<R>, MultiRunError> + Sync,
) -> Result<Vec<R>, MultiRunError> {
    let points: Vec<(&A, &B)> = outer
        .iter()
        .flat_map(|a| inner.iter().map(move |b| (a, b)))
        .collect();
    let results: Result<Vec<Option<R>>, _> =
        par.map(points, |(a, b)| point(a, b)).into_iter().collect();
    Ok(results?.into_iter().flatten().collect())
}

/// One point of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Point {
    /// Microbenchmark mode.
    pub mode: MicroMode,
    /// Percentage of guarded references.
    pub pct: u32,
    /// Work-phase execution-time ratio against the Baseline mode.
    ///
    /// The work phase isolates the cost of the guards and double stores,
    /// which is what the paper's microbenchmark measures; the control
    /// phase additionally differs because a buffer that is only written
    /// through guarded stores is mapped read-only and skips its
    /// `dma-put`s (see EXPERIMENTS.md).
    pub overhead: f64,
    /// Instruction-count ratio against the Baseline mode.
    pub inst_ratio: f64,
}

/// Figure 7: microbenchmark overhead as the share of guarded references
/// grows, for the RD / WR / RD+WR modes. `n` is the iteration count;
/// `step` the sweep step in percent (multiple of 10). The Baseline-mode
/// run goes first (every point normalizes against it), then every
/// (mode, pct) point is an independent job under `par`.
pub fn fig7(n: u64, step: u32, par: Parallelism) -> Result<Vec<Fig7Point>, MultiRunError> {
    let run = |mode: MicroMode, guarded_pct: u32| {
        let k = microbench(&MicrobenchConfig {
            mode,
            guarded_pct,
            n,
        });
        RunSpec::new(&k).run().map(RunOutcome::into_single)
    };
    let base = run(MicroMode::Baseline, 0)?;
    let base_work = base.phase(hsim_isa::Phase::Work).max(1) as f64;
    let pcts: Vec<u32> = (0..=100).step_by(step.max(10) as usize).collect();
    sweep_grid(
        &[MicroMode::Rd, MicroMode::Wr, MicroMode::RdWr],
        &pcts,
        par,
        |&mode, &pct| {
            let r = run(mode, pct)?;
            Ok(Some(Fig7Point {
                mode,
                pct,
                overhead: r.phase(hsim_isa::Phase::Work) as f64 / base_work,
                inst_ratio: r.committed as f64 / base.committed as f64,
            }))
        },
    )
}

/// One row of Figure 8: coherence-protocol overhead on a real benchmark.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// Execution-time overhead vs the oracle baseline (ratio, 1.0 = no
    /// overhead).
    pub time_ratio: f64,
    /// Energy overhead vs the oracle baseline.
    pub energy_ratio: f64,
    /// Reports for deeper inspection (coherent, oracle).
    pub coherent: RunReport,
    /// The oracle baseline report.
    pub oracle: RunReport,
}

/// Runs one benchmark on the coherent and oracle machines.
fn fig8_row(k: &Kernel) -> Result<Fig8Row, MultiRunError> {
    let run = |mode: SysMode| {
        RunSpec::new(k)
            .mode(mode)
            .run()
            .map(RunOutcome::into_single)
    };
    let coherent = run(SysMode::HybridCoherent)?;
    let oracle = run(SysMode::HybridOracle)?;
    Ok(Fig8Row {
        name: k.name.clone(),
        time_ratio: coherent.cycles as f64 / oracle.cycles as f64,
        energy_ratio: coherent.energy_total() / oracle.energy_total(),
        coherent,
        oracle,
    })
}

/// Figure 8: hybrid-coherent vs hybrid-oracle on the given kernels, one
/// job per benchmark under `par`.
pub fn fig8(kernels: &[Kernel], par: Parallelism) -> Result<Vec<Fig8Row>, MultiRunError> {
    par.map(kernels.iter().collect(), fig8_row)
        .into_iter()
        .collect()
}

/// One row of Figures 9 and 10 plus Table 3: hybrid-coherent vs
/// cache-based.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// Speedup of the hybrid system (cache cycles / hybrid cycles).
    pub speedup: f64,
    /// Hybrid execution time normalized to cache-based (Figure 9 bar).
    pub time_norm: f64,
    /// Normalized phase split of the hybrid bar `[other, control,
    /// synch, work]`.
    pub phases_norm: [f64; 4],
    /// Hybrid energy normalized to cache-based (Figure 10 bar).
    pub energy_norm: f64,
    /// Hybrid run report.
    pub hybrid: RunReport,
    /// Cache-based run report.
    pub cache: RunReport,
}

/// Runs one benchmark on the hybrid-coherent and cache-based machines.
fn comparison_row(k: &Kernel) -> Result<ComparisonRow, MultiRunError> {
    let run = |mode: SysMode| {
        RunSpec::new(k)
            .mode(mode)
            .run()
            .map(RunOutcome::into_single)
    };
    let hybrid = run(SysMode::HybridCoherent)?;
    let cache = run(SysMode::CacheBased)?;
    let denom = cache.cycles.max(1) as f64;
    Ok(ComparisonRow {
        name: k.name.clone(),
        speedup: cache.cycles as f64 / hybrid.cycles.max(1) as f64,
        time_norm: hybrid.cycles as f64 / denom,
        phases_norm: [
            hybrid.phase_cycles[0] as f64 / denom,
            hybrid.phase_cycles[1] as f64 / denom,
            hybrid.phase_cycles[2] as f64 / denom,
            hybrid.phase_cycles[3] as f64 / denom,
        ],
        energy_norm: hybrid.energy_total() / cache.energy_total(),
        hybrid,
        cache,
    })
}

/// Figures 9/10 + Table 3: runs both systems on each kernel, one job
/// per benchmark under `par`.
pub fn compare_systems(
    kernels: &[Kernel],
    par: Parallelism,
) -> Result<Vec<ComparisonRow>, MultiRunError> {
    par.map(kernels.iter().collect(), comparison_row)
        .into_iter()
        .collect()
}

/// One row of the backside-sensitivity sweep: how one kernel at one
/// core count exercises the banked L3 and the DRAM row buffers.
/// Counters are machine totals (summed over the per-core shares, which
/// partition them exactly).
#[derive(Clone, Debug)]
pub struct BacksideSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// DRAM accesses that hit an open row.
    pub dram_row_hits: u64,
    /// DRAM accesses to a bank with no open row.
    pub dram_row_misses: u64,
    /// DRAM accesses that closed another row first.
    pub dram_row_conflicts: u64,
    /// Row-buffer hit rate in percent (100.0 with no row activity).
    pub dram_row_hit_rate: f64,
    /// Requests that found their L3 bank's port busy.
    pub bank_conflicts: u64,
    /// Cycles spent waiting on L3 bank ports.
    pub bus_wait_cycles: u64,
    /// Posted DRAM writes that found the write queue full.
    pub dram_queue_stalls: u64,
}

/// Runs one sweep point; `None` when the kernel does not shard to
/// `cores` (indirect indexing), which the sweep skips like the scaling
/// bench does.
fn backside_point(
    kernel: &Kernel,
    cores: usize,
    mode: SysMode,
) -> Result<Option<BacksideSweepRow>, MultiRunError> {
    let spec = RunSpec::new(kernel).config(MachineConfig::for_mode(mode));
    let (per_core, makespan) = if cores == 1 {
        let r = spec.run()?.into_single();
        let makespan = r.cycles;
        (vec![r], makespan)
    } else {
        let Some(out) = MultiRunError::skip_unshardable(spec.cores(cores).run())? else {
            return Ok(None);
        };
        let m = out.into_multi();
        (m.per_core, m.makespan)
    };
    let sum = |f: fn(&RunReport) -> u64| per_core.iter().map(f).sum::<u64>();
    // Route the hit-rate computation through `DramStats` so the sweep
    // shares one definition (including the empty-denominator
    // convention) with the report accessors.
    let rows = hsim_mem::DramStats {
        row_hits: sum(|r| r.dram_row_hits),
        row_misses: sum(|r| r.dram_row_misses),
        row_conflicts: sum(|r| r.dram_row_conflicts),
        ..Default::default()
    };
    Ok(Some(BacksideSweepRow {
        kernel: kernel.name.clone(),
        cores,
        makespan,
        dram_row_hits: rows.row_hits,
        dram_row_misses: rows.row_misses,
        dram_row_conflicts: rows.row_conflicts,
        dram_row_hit_rate: rows.row_hit_rate(),
        bank_conflicts: sum(|r| r.l3_bank_conflicts),
        bus_wait_cycles: sum(|r| r.bus_wait_cycles),
        dram_queue_stalls: sum(|r| r.dram_queue_stalls),
    }))
}

/// Backside-sensitivity sweep: row-buffer locality and L3 bank
/// contention for every kernel × core-count point, on the default
/// (banked, row-aware) backside. Points a kernel cannot shard to are
/// skipped; one job per point under `par`.
pub fn backside_sweep(
    kernels: &[Kernel],
    core_counts: &[usize],
    mode: SysMode,
    par: Parallelism,
) -> Result<Vec<BacksideSweepRow>, MultiRunError> {
    sweep_grid(kernels, core_counts, par, |k, &cores| {
        backside_point(k, cores, mode)
    })
}

/// One point of the scaling experiment: one kernel sharded over one
/// core count, with the speedup against its own 1-core run and the
/// bus-wait breakdown of where the scaling went.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Speedup against the same kernel's 1-core makespan.
    pub speedup: f64,
    /// Total committed instructions over all cores.
    pub committed: u64,
    /// Aggregate IPC (total committed over the makespan).
    pub aggregate_ipc: f64,
    /// Total cycles cores spent waiting on L3 bank ports — the
    /// contention share of the lost scaling.
    pub bus_wait_cycles: u64,
    /// Requests that found their L3 bank's port busy.
    pub bank_conflicts: u64,
    /// Machine-wide DRAM row-buffer hit rate in percent.
    pub dram_row_hit_rate: f64,
    /// Total DRAM line reads (replication traffic shows up here).
    pub dram_reads: u64,
}

/// Runs the scaling sweep for one kernel: its 1-core run (the speedup
/// denominator) followed by every requested core count. Core counts a
/// kernel cannot shard to are skipped, like the backside sweep does.
fn scaling_rows_for(
    kernel: &Kernel,
    core_counts: &[usize],
    cfg: &MachineConfig,
) -> Result<Vec<ScalingRow>, MultiRunError> {
    let run = |cores: usize| {
        let spec = RunSpec::new(kernel).cores(cores).config(cfg.clone());
        MultiRunError::skip_unshardable(spec.run().map(RunOutcome::into_multi))
    };
    let Some(base) = run(1)? else {
        return Ok(Vec::new());
    };
    let mut rows = Vec::new();
    for &cores in core_counts {
        let m = if cores == 1 {
            base.clone()
        } else {
            match run(cores)? {
                Some(m) => m,
                None => continue,
            }
        };
        rows.push(ScalingRow {
            kernel: kernel.name.clone(),
            cores,
            makespan: m.makespan,
            speedup: base.makespan as f64 / m.makespan.max(1) as f64,
            committed: m.total_committed(),
            aggregate_ipc: m.aggregate_ipc(),
            bus_wait_cycles: m.total_bus_wait_cycles(),
            bank_conflicts: m.total_bank_conflicts(),
            dram_row_hit_rate: m.dram_row_hit_rate(),
            dram_reads: m.total_dram_reads(),
        });
    }
    Ok(rows)
}

/// The scaling experiment (promoted from the `scaling` bench):
/// speedup-vs-cores curves per kernel with bus-wait breakdowns, on
/// machines built from `cfg`. Rows are grouped by kernel, core counts
/// ascending within a group when `core_counts` is ascending. One job
/// per kernel under `par` (each job runs that kernel's whole curve,
/// since every point normalizes against the kernel's own 1-core run).
pub fn scaling_sweep(
    kernels: &[Kernel],
    core_counts: &[usize],
    cfg: &MachineConfig,
    par: Parallelism,
) -> Result<Vec<ScalingRow>, MultiRunError> {
    let per_kernel = par.map(kernels.iter().collect(), |k| {
        scaling_rows_for(k, core_counts, cfg)
    });
    let mut rows = Vec::new();
    for r in per_kernel {
        rows.extend(r?);
    }
    Ok(rows)
}

/// One point of the coherence-mode comparison: the same sharded kernel
/// at the same core count under `Replicate` and under `Mesi`, side by
/// side.
#[derive(Clone, Debug)]
pub struct CoherenceSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Makespan under `CoherenceMode::Replicate`.
    pub makespan_replicate: u64,
    /// Makespan under `CoherenceMode::Mesi`.
    pub makespan_mesi: u64,
    /// Total DRAM line reads under `Replicate` (shared tables are
    /// fetched once per core).
    pub dram_reads_replicate: u64,
    /// Total DRAM line reads under `Mesi` (shared tables are fetched
    /// once per chip, directory permitting).
    pub dram_reads_mesi: u64,
    /// Shared-line L3 hits the directory served (Mesi run).
    pub shared_hits: u64,
    /// Invalidation messages sent (Mesi run).
    pub invalidations: u64,
    /// M-state interventions (Mesi run).
    pub interventions: u64,
    /// Total committed instructions (identical in both runs — the modes
    /// may only change timing, never architectural work).
    pub committed: u64,
    /// Shared-marked arrays that fell back to per-core replication
    /// because the shards' layouts diverged: under `Mesi` those arrays
    /// were *not* served from shared lines (0 on even shards).
    pub replication_fallbacks: u64,
    /// Shared-marked arrays that would fall back to per-cluster
    /// replication if this kernel were split across a 2-cluster
    /// machine ([`cross_cluster_fallbacks`]): cross-cluster sharing is
    /// never silently free, so the sweep surfaces the cost a clustered
    /// run of the same kernel would pay.
    pub cluster_fallbacks: u64,
}

/// Runs one coherence-comparison point; `None` when the kernel does not
/// shard to `cores`.
fn coherence_point(
    kernel: &Kernel,
    cores: usize,
    mode: SysMode,
) -> Result<Option<CoherenceSweepRow>, MultiRunError> {
    let run = |cm: CoherenceMode| {
        RunSpec::new(kernel)
            .cores(cores)
            .config(MachineConfig::for_mode(mode).with_coherence(cm))
            .run()
            .map(RunOutcome::into_multi)
    };
    let Some(rep) = MultiRunError::skip_unshardable(run(CoherenceMode::Replicate))? else {
        return Ok(None);
    };
    let mesi = run(CoherenceMode::Mesi)?;
    assert_eq!(
        rep.total_committed(),
        mesi.total_committed(),
        "{} x{cores}: coherence modes must not change committed work",
        kernel.name
    );
    Ok(Some(CoherenceSweepRow {
        kernel: kernel.name.clone(),
        cores,
        makespan_replicate: rep.makespan,
        makespan_mesi: mesi.makespan,
        dram_reads_replicate: rep.total_dram_reads(),
        dram_reads_mesi: mesi.total_dram_reads(),
        shared_hits: mesi.total_shared_hits(),
        invalidations: mesi.total_invalidations(),
        interventions: mesi.total_interventions(),
        committed: rep.total_committed(),
        replication_fallbacks: mesi.replication_fallbacks,
        cluster_fallbacks: cross_cluster_fallbacks(kernel, 2),
    }))
}

/// The coherence-mode comparison: every kernel × core-count point run
/// under `Replicate` and `Mesi` on otherwise identical machines. Points
/// a kernel cannot shard to are skipped; one job per point under `par`.
pub fn coherence_sweep(
    kernels: &[Kernel],
    core_counts: &[usize],
    mode: SysMode,
    par: Parallelism,
) -> Result<Vec<CoherenceSweepRow>, MultiRunError> {
    sweep_grid(kernels, core_counts, par, |k, &cores| {
        coherence_point(k, cores, mode)
    })
}

/// One point of the protocol-family comparison: one kernel at one core
/// count under one inter-core protocol (or the `Replicate` baseline),
/// with the directory-side aggregates that separate the family members.
#[derive(Clone, Debug)]
pub struct ProtocolSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Coherence-mode name (`"replicate"`, `"msi"`, `"mesi"`, `"moesi"`,
    /// `"mesif"`).
    pub protocol: String,
    /// Makespan of the run.
    pub makespan: u64,
    /// Total DRAM line reads: MSI re-reads memory on dirty recalls, so
    /// it upper-bounds MESI, which upper-bounds MOESI (dirty sharing
    /// skips the round-trip entirely).
    pub dram_reads: u64,
    /// Shared-line L3 hits the directory served (0 under `Replicate`).
    pub shared_hits: u64,
    /// Invalidation messages sent (0 under `Replicate`).
    pub invalidations: u64,
    /// Dirty-owner interventions (0 under `Replicate`).
    pub interventions: u64,
    /// Total committed instructions (identical across modes — protocols
    /// may only change timing, never architectural work).
    pub committed: u64,
}

/// Runs one kernel × core-count point under every [`CoherenceMode`];
/// `None` when the kernel does not shard to `cores`. Asserts that no
/// protocol changes the committed-instruction count.
fn protocol_point(
    kernel: &Kernel,
    cores: usize,
    mode: SysMode,
) -> Result<Option<Vec<ProtocolSweepRow>>, MultiRunError> {
    let mut rows = Vec::new();
    let mut committed = None;
    for cm in CoherenceMode::ALL {
        let spec = RunSpec::new(kernel)
            .cores(cores)
            .config(MachineConfig::for_mode(mode).with_coherence(cm));
        let Some(out) = MultiRunError::skip_unshardable(spec.run())? else {
            return Ok(None);
        };
        let report = out.into_multi();
        match committed {
            None => committed = Some(report.total_committed()),
            Some(c) => assert_eq!(
                c,
                report.total_committed(),
                "{} x{cores}: {} changed committed work",
                kernel.name,
                cm.name()
            ),
        }
        rows.push(ProtocolSweepRow {
            kernel: kernel.name.clone(),
            cores,
            protocol: cm.name().to_string(),
            makespan: report.makespan,
            dram_reads: report.total_dram_reads(),
            shared_hits: report.total_shared_hits(),
            invalidations: report.total_invalidations(),
            interventions: report.total_interventions(),
            committed: report.total_committed(),
        });
    }
    Ok(Some(rows))
}

/// The protocol-family comparison: every kernel × core-count point run
/// under the `Replicate` baseline and all four directory protocols on
/// otherwise identical machines. Points a kernel cannot shard to are
/// skipped; one job per point under `par`.
pub fn protocol_sweep(
    kernels: &[Kernel],
    core_counts: &[usize],
    mode: SysMode,
    par: Parallelism,
) -> Result<Vec<ProtocolSweepRow>, MultiRunError> {
    let points = sweep_grid(kernels, core_counts, par, |k, &cores| {
        protocol_point(k, cores, mode)
    })?;
    Ok(points.into_iter().flatten().collect())
}

/// One point of the heterogeneous-chip sweep: one kernel on one mixed
/// machine shape — a hybrid:cache tile ratio, an LM-size asymmetry, or
/// a weighted-shard split — with the chip-level aggregates the
/// homogeneous sweeps report.
#[derive(Clone, Debug)]
pub struct HeteroSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Human-readable machine shape, e.g. `"3H+1C"` (3 hybrid + 1
    /// cache-based tile), `"4H lm/4x2"` (all hybrid, two tiles at a
    /// quarter LM budget) or `"2H+2C w2:1"` (weighted shards).
    pub label: String,
    /// Simulated core count.
    pub cores: usize,
    /// Tiles running a hybrid (LM + directory) memory system.
    pub hybrid_tiles: usize,
    /// Hybrid tiles configured below the default LM budget.
    pub small_lm_tiles: usize,
    /// Per-tile shard weights (all 1 for even splits).
    pub weights: Vec<u64>,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Total committed instructions over all cores.
    pub committed: u64,
    /// Total DRAM line reads.
    pub dram_reads: u64,
    /// Total cycles cores spent waiting on L3 bank ports.
    pub bus_wait_cycles: u64,
    /// Shared-line L3 hits the directory served (0 under `Replicate`).
    pub shared_hits: u64,
    /// Shared-marked arrays that fell back to per-core replication
    /// because the weighted shards' layouts diverged.
    pub replication_fallbacks: u64,
}

/// One machine shape of the hetero sweep: a display label, the
/// per-tile configurations, and the per-tile shard weights.
type HeteroShape = (String, Vec<MachineConfig>, Vec<u64>);

/// The machine shapes [`hetero_sweep`] visits at one core count: every
/// hybrid:cache ratio with even shards, an all-hybrid chip with half
/// the tiles at a quarter LM budget, and a weighted mixed chip whose
/// hybrid tiles take double iteration shares. Default-configured tiles
/// inherit the `HSIM_COHERENCE` environment mode like every other
/// sweep.
fn hetero_shapes(cores: usize) -> Vec<HeteroShape> {
    let hybrid = || MachineConfig::for_mode(SysMode::HybridCoherent);
    let cache = || MachineConfig::for_mode(SysMode::CacheBased);
    let mixed = |h: usize| -> Vec<MachineConfig> {
        (0..cores)
            .map(|i| if i < h { hybrid() } else { cache() })
            .collect()
    };
    let mut shapes = Vec::new();
    for h in (0..=cores).rev() {
        shapes.push((format!("{h}H+{}C", cores - h), mixed(h), vec![1; cores]));
    }
    if cores >= 2 {
        // LM-size asymmetry: big/little hybrid tiles. The little tiles
        // compile their shards against the smaller budget, so they pay
        // more DMA round trips per array.
        let small = cores / 2;
        let cfgs: Vec<MachineConfig> = (0..cores)
            .map(|i| {
                let mut c = hybrid();
                if i >= cores - small {
                    let lm = c.mem.lm.as_mut().expect("hybrid tiles have an LM");
                    lm.size_bytes /= 4;
                }
                c
            })
            .collect();
        shapes.push((format!("{cores}H lm/4x{small}"), cfgs, vec![1; cores]));
        // Weighted shards on a mixed chip: hybrid tiles are faster, so
        // they take double shares; the uneven slices can diverge the
        // shard layouts, exercising the replication-fallback
        // accounting.
        let h = cores - small;
        let weights: Vec<u64> = (0..cores).map(|i| u64::from(i < h) + 1).collect();
        shapes.push((format!("{h}H+{small}C w2:1"), mixed(h), weights));
    }
    shapes
}

/// Runs one hetero point; `None` when the kernel does not shard to the
/// shape (indirect indexing, or a weight starving a shard).
fn hetero_point(
    kernel: &Kernel,
    label: &str,
    cfgs: &[MachineConfig],
    weights: &[u64],
) -> Result<Option<HeteroSweepRow>, MultiRunError> {
    let spec = RunSpec::new(kernel).hetero(cfgs.to_vec()).weights(weights);
    let Some(out) = MultiRunError::skip_unshardable(spec.run())? else {
        return Ok(None);
    };
    let m = out.into_multi();
    let default_lm = hsim_mem::LmConfig::default().size_bytes;
    Ok(Some(HeteroSweepRow {
        kernel: kernel.name.clone(),
        label: label.to_string(),
        cores: cfgs.len(),
        hybrid_tiles: cfgs
            .iter()
            .filter(|c| !matches!(c.mode, SysMode::CacheBased))
            .count(),
        small_lm_tiles: cfgs
            .iter()
            .filter(|c| c.mem.lm.as_ref().is_some_and(|l| l.size_bytes < default_lm))
            .count(),
        weights: weights.to_vec(),
        makespan: m.makespan,
        committed: m.total_committed(),
        dram_reads: m.total_dram_reads(),
        bus_wait_cycles: m.total_bus_wait_cycles(),
        shared_hits: m.total_shared_hits(),
        replication_fallbacks: m.replication_fallbacks,
    }))
}

/// The heterogeneous-chip sweep: every kernel × machine shape (see
/// `hetero_shapes`) at one core count. The all-hybrid shape (`"4H+0C"`)
/// is built from default configurations, so it reproduces the
/// homogeneous sharded machine bit for bit — the anchor the mixed
/// shapes are compared against. Shapes a kernel cannot shard to are
/// skipped; one job per (kernel, shape) point under `par`.
pub fn hetero_sweep(
    kernels: &[Kernel],
    cores: usize,
    par: Parallelism,
) -> Result<Vec<HeteroSweepRow>, MultiRunError> {
    sweep_grid(
        kernels,
        &hetero_shapes(cores),
        par,
        |k, (label, cfgs, weights)| hetero_point(k, label, cfgs, weights),
    )
}

/// One row of the communication-workload sweep: one workload family at
/// one core count on one system × inter-core protocol, with the
/// per-hand-off cost and the directory traffic that produced it.
#[derive(Clone, Debug)]
pub struct CommSweepRow {
    /// Workload family (`"pingpong"`, `"queue"`, `"lock"`,
    /// `"barrier"`).
    pub workload: String,
    /// Simulated core count (pair workloads use `cores/2` pairs).
    pub cores: usize,
    /// System mode of every tile.
    pub mode: SysMode,
    /// Inter-core protocol name (`"replicate"`, `"msi"`, ...).
    pub protocol: String,
    /// Modeled hand-offs per core (the normalization denominator).
    pub rounds: u64,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Cycles per hand-off: `makespan / rounds` — the round-trip
    /// headline the hybrid LM+DMA path should win.
    pub round_cycles: f64,
    /// Total DRAM line reads (dirty hand-offs recalled through DRAM
    /// show up here — the MSI-vs-MOESI/MESIF separator).
    pub dram_reads: u64,
    /// Shared-line L3 hits the directory served.
    pub shared_hits: u64,
    /// Invalidation messages sent (flag/line ping-pong).
    pub invalidations: u64,
    /// Dirty-owner interventions (payload hand-offs).
    pub interventions: u64,
    /// Dirty lines recalled out of an owner's upper levels.
    pub dirty_recalls: u64,
    /// Total committed instructions (protocol-invariant).
    pub committed: u64,
}

/// Builds one comm workload family by name at one core count.
fn comm_workload(scale: Scale, cores: usize, name: &str) -> commw::CommWorkload {
    match name {
        "pingpong" => commw::ping_pong(scale, cores),
        "queue" => commw::queue(scale, cores, 64),
        "lock" => commw::lock(scale, cores),
        "barrier" => commw::barrier(scale, cores),
        other => unreachable!("unknown comm workload {other}"),
    }
}

/// Runs one comm sweep point.
fn comm_point(
    scale: Scale,
    name: &str,
    cores: usize,
    mode: SysMode,
    cm: CoherenceMode,
) -> Result<CommSweepRow, MultiRunError> {
    let w = comm_workload(scale, cores, name);
    let m = RunSpec::many(&w.kernels)
        .config(MachineConfig::for_mode(mode).with_coherence(cm))
        .run()
        .map(RunOutcome::into_multi)?;
    Ok(CommSweepRow {
        workload: w.name.clone(),
        cores,
        mode,
        protocol: cm.name().to_string(),
        rounds: w.rounds,
        makespan: m.makespan,
        round_cycles: m.makespan as f64 / w.rounds.max(1) as f64,
        dram_reads: m.total_dram_reads(),
        shared_hits: m.total_shared_hits(),
        invalidations: m.total_invalidations(),
        interventions: m.total_interventions(),
        dirty_recalls: m.total_dirty_recalls(),
        committed: m.total_committed(),
    })
}

/// The communication-workload sweep: every family
/// (ping-pong/queue/lock/barrier) × core count on hybrid-coherent and
/// cache-based chips under the environment's inter-core protocol, plus
/// the full protocol family on the cache-based queue (the dirty
/// hand-off point where MSI/MESI/MOESI/MESIF separate). Core counts
/// must be even (pair workloads). One job per point under `par`.
pub fn comm_sweep(
    scale: Scale,
    core_counts: &[usize],
    par: Parallelism,
) -> Result<Vec<CommSweepRow>, MultiRunError> {
    let env_cm = MachineConfig::for_mode(SysMode::HybridCoherent)
        .mem
        .coherence
        .mode;
    let mut points: Vec<(&'static str, usize, SysMode, CoherenceMode)> = Vec::new();
    for &cores in core_counts {
        for name in ["pingpong", "queue", "lock", "barrier"] {
            for mode in [SysMode::HybridCoherent, SysMode::CacheBased] {
                points.push((name, cores, mode, env_cm));
            }
        }
        for cm in CoherenceMode::ALL {
            if cm != env_cm {
                points.push(("queue", cores, SysMode::CacheBased, cm));
            }
        }
    }
    par.map(points, |(name, cores, mode, cm)| {
        comm_point(scale, name, cores, mode, cm)
    })
    .into_iter()
    .collect()
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The request-serving macro-workload: `cores` server tiles gather from
/// one shared read-mostly table ([`hsim_workloads::comm::request_serving`]),
/// then a **deterministic open-loop arrival process** replays the
/// measured per-core service times against seeded inter-arrival gaps:
///
/// 1. The machine run measures each core's mean service time per
///    request (`core cycles / requests`, backside contention included).
/// 2. Arrivals are drawn open-loop (they never wait for completions)
///    from a seeded xorshift64 stream, uniform in `[1, 2·gap]` where
///    `gap` is set so the offered load is `load_permille`/1000 of the
///    measured chip capacity.
/// 3. Requests dispatch round-robin to per-core FIFOs; completion is
///    `max(arrival, core free) + service`, and `completion − arrival`
///    is the recorded sojourn latency.
///
/// Everything after the machine run is integer math on a seeded
/// stream: the same seed gives a byte-identical
/// [`RequestServingReport::render`] (pinned by proptest).
pub fn request_serving(
    scale: Scale,
    cores: usize,
    mode: SysMode,
    seed: u64,
    load_permille: u64,
) -> Result<RequestServingReport, MultiRunError> {
    let w = commw::request_serving(scale, cores);
    let m = RunSpec::many(&w.kernels)
        .config(MachineConfig::for_mode(mode))
        .run()
        .map(RunOutcome::into_multi)?;
    let service: Vec<u64> = m
        .per_core
        .iter()
        .map(|r| (r.cycles / w.requests_per_core).max(1))
        .collect();
    let avg_service = (service.iter().sum::<u64>() / service.len().max(1) as u64).max(1);
    let mean_gap = (avg_service * 1000 / (load_permille.max(1) * cores as u64)).max(1);
    let requests = w.requests_per_core * cores as u64;
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 1;
    }
    let mut latency = LatencyHistogram::new();
    let mut free = vec![0u64; cores];
    let mut arrival = 0u64;
    let mut first_arrival = None;
    let mut last_completion = 0u64;
    for i in 0..requests {
        arrival += 1 + xorshift64(&mut state) % (2 * mean_gap);
        if first_arrival.is_none() {
            first_arrival = Some(arrival);
        }
        let c = (i % cores as u64) as usize;
        let start = arrival.max(free[c]);
        let done = start + service[c];
        free[c] = done;
        last_completion = last_completion.max(done);
        latency.record(done - arrival);
    }
    Ok(RequestServingReport {
        name: "serve".into(),
        mode,
        cores,
        seed,
        requests,
        service_cycles: avg_service,
        mean_interarrival: mean_gap,
        span_cycles: last_completion - first_arrival.unwrap_or(0),
        latency,
    })
}

/// [`request_serving`] on hybrid-coherent and cache-based chips at
/// every requested core count, one job per point under `par`.
pub fn request_serving_sweep(
    scale: Scale,
    core_counts: &[usize],
    seed: u64,
    load_permille: u64,
    par: Parallelism,
) -> Result<Vec<RequestServingReport>, MultiRunError> {
    let points: Vec<(usize, SysMode)> = core_counts
        .iter()
        .flat_map(|&c| [SysMode::HybridCoherent, SysMode::CacheBased].map(|m| (c, m)))
        .collect();
    par.map(points, |(cores, mode)| {
        request_serving(scale, cores, mode, seed, load_permille)
    })
    .into_iter()
    .collect()
}

/// Geometric-mean helper used when averaging ratios across benchmarks.
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}
