//! The paper's figures and the later tiers' sweeps: each driver runs
//! its grid of [`RunSpec`] points under a [`Parallelism`] policy and
//! returns rows that carry their labels, their derived ratios and the
//! report(s) they came from. Which counters a table shows is decided
//! by the bench driver's column declarations, not here.

use super::spec::{MultiRunError, RunOutcome, RunSpec};
use crate::cluster::cross_cluster_fallbacks;
use crate::machine::{MachineConfig, SysMode};
use crate::metrics::{MultiRunReport, RunReport};
use hsim_compiler::Kernel;
use hsim_core::config::CoherenceMode;
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
    /// `dma-put`s.
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
#[derive(Clone, Debug)]
pub struct BacksideSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// The run's report; the 1-core point is the plain single machine,
    /// wrapped as a one-core report.
    pub report: MultiRunReport,
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
    let report = if cores == 1 {
        let r = spec.run()?.into_single();
        MultiRunReport {
            makespan: r.cycles,
            per_core: vec![r],
            replication_fallbacks: 0,
        }
    } else {
        match MultiRunError::skip_unshardable(spec.cores(cores).run())? {
            Some(out) => out.into_multi(),
            None => return Ok(None),
        }
    };
    Ok(Some(BacksideSweepRow {
        kernel: kernel.name.clone(),
        cores,
        report,
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
/// core count, with the speedup against its own 1-core run; the report
/// holds the bus-wait breakdown of where the scaling went.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Speedup against the same kernel's 1-core makespan.
    pub speedup: f64,
    /// The run's report.
    pub report: MultiRunReport,
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
            speedup: base.makespan as f64 / m.makespan.max(1) as f64,
            report: m,
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
/// side ([`coherence_rows`] of a [`protocol_sweep`]).
#[derive(Clone, Debug)]
pub struct CoherenceSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// The run under `CoherenceMode::Replicate` (shared tables are
    /// fetched once per core).
    pub replicate: MultiRunReport,
    /// The run under `CoherenceMode::Mesi` (shared tables are fetched
    /// once per chip, directory permitting). Commits exactly the
    /// instructions of `replicate` — the modes may only change timing.
    pub mesi: MultiRunReport,
    /// Shared-marked arrays that would fall back to per-cluster
    /// replication if this kernel were split across a 2-cluster
    /// machine ([`cross_cluster_fallbacks`]): cross-cluster sharing is
    /// never silently free, so the sweep surfaces the cost a clustered
    /// run of the same kernel would pay.
    pub cluster_fallbacks: u64,
}

/// One point of the protocol-family comparison: one kernel at one core
/// count under one inter-core protocol (or the `Replicate` baseline);
/// the report holds the directory-side counters that separate the
/// family members.
#[derive(Clone, Debug)]
pub struct ProtocolSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated core count.
    pub cores: usize,
    /// Coherence-mode name (`"replicate"`, `"msi"`, `"mesi"`, `"moesi"`,
    /// `"mesif"`).
    pub protocol: String,
    /// The run's report.
    pub report: MultiRunReport,
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
        let c = report.total(|r| r.committed);
        assert_eq!(
            *committed.get_or_insert(c),
            c,
            "{} x{cores}: {} changed committed work",
            kernel.name,
            cm.name()
        );
        rows.push(ProtocolSweepRow {
            kernel: kernel.name.clone(),
            cores,
            protocol: cm.name().to_string(),
            report,
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

/// The Replicate-vs-Mesi view of a [`protocol_sweep`] over `kernels`:
/// one row per point, pairing the point's `replicate` and `mesi` runs,
/// so every point is simulated once whichever view reports it.
pub fn coherence_rows(kernels: &[Kernel], rows: &[ProtocolSweepRow]) -> Vec<CoherenceSweepRow> {
    rows.chunks(CoherenceMode::ALL.len())
        .map(|point| {
            let run = |cm: CoherenceMode| {
                let row = point.iter().find(|r| r.protocol == cm.name());
                row.expect("every mode ran").report.clone()
            };
            let kernel = kernels.iter().find(|k| k.name == point[0].kernel);
            let kernel = kernel.expect("the rows' kernel is in `kernels`");
            CoherenceSweepRow {
                kernel: kernel.name.clone(),
                cores: point[0].cores,
                replicate: run(CoherenceMode::Replicate),
                mesi: run(CoherenceMode::Mesi),
                cluster_fallbacks: cross_cluster_fallbacks(kernel, 2),
            }
        })
        .collect()
}

/// One point of the heterogeneous-chip sweep: one kernel on one mixed
/// machine shape — a hybrid:cache tile ratio, an LM-size asymmetry, or
/// a weighted-shard split.
#[derive(Clone, Debug)]
pub struct HeteroSweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Human-readable machine shape, e.g. `"3H+1C"` (3 hybrid + 1
    /// cache-based tile), `"4H lm/4x2"` (all hybrid, two tiles at a
    /// quarter LM budget) or `"2H+2C w2:1"` (weighted shards).
    pub label: String,
    /// Tiles running a hybrid (LM + directory) memory system.
    pub hybrid_tiles: usize,
    /// Hybrid tiles configured below the default LM budget.
    pub small_lm_tiles: usize,
    /// Per-tile shard weights (all 1 for even splits).
    pub weights: Vec<u64>,
    /// The run's report.
    pub report: MultiRunReport,
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
    let default_lm = hsim_mem::LmConfig::default().size_bytes;
    Ok(Some(HeteroSweepRow {
        kernel: kernel.name.clone(),
        label: label.to_string(),
        hybrid_tiles: cfgs
            .iter()
            .filter(|c| !matches!(c.mode, SysMode::CacheBased))
            .count(),
        small_lm_tiles: cfgs
            .iter()
            .filter(|c| c.mem.lm.as_ref().is_some_and(|l| l.size_bytes < default_lm))
            .count(),
        weights: weights.to_vec(),
        report: out.into_multi(),
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
/// per-hand-off cost; the report holds the directory traffic that
/// produced it.
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
    /// Cycles per hand-off: `makespan / rounds` — the round-trip
    /// headline the hybrid LM+DMA path should win.
    pub round_cycles: f64,
    /// The run's report.
    pub report: MultiRunReport,
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
    let report = RunSpec::many(&w.kernels)
        .config(MachineConfig::for_mode(mode).with_coherence(cm))
        .run()
        .map(RunOutcome::into_multi)?;
    Ok(CommSweepRow {
        workload: w.name.clone(),
        cores,
        mode,
        protocol: cm.name().to_string(),
        rounds: w.rounds,
        round_cycles: report.makespan as f64 / w.rounds.max(1) as f64,
        report,
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

/// Geometric-mean helper used when averaging ratios across benchmarks.
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}
