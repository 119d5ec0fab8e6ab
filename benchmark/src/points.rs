//! Points — one kernel (or kernel set) on one machine shape — and the
//! two ways the benchmark runs them.
//!
//! [`run_phases`] drives a point through exactly the public calls
//! `RunSpec::run` composes (generate → shard → compile → build → run →
//! collect) with a span around each, so set-up and simulation time can
//! be told apart. [`run_reference`] hands the same point to
//! `RunSpec::run` itself; the validation pass requires both to produce
//! the same report digest.

use crate::spans::Spans;
use crate::stats::digest;
use hsim::cluster::{cross_cluster_fallbacks, run_clusters, ClusterConfig, ClusterTopology};
use hsim::compiler::{compile, CompiledKernel, Kernel};
use hsim::core::HostProfile;
use hsim::experiments::{compile_for_tile, request_serving, RunSpec};
use hsim::machine::{Machine, MachineConfig, MultiMachine};
use hsim::metrics::{MultiRunReport, RunReport};
use hsim::workloads::Scale;

/// The machine a point runs on.
#[derive(Clone, Debug)]
pub enum Shape {
    /// One kernel on one `Machine`.
    Single,
    /// One kernel sharded over the cores of one `MultiMachine`.
    Sharded(usize),
    /// One kernel per core of one `MultiMachine` (communication sets).
    PerCore,
    /// One kernel sharded two-level over epoch-synchronised clusters,
    /// run on the serial cluster driver.
    Clustered(ClusterTopology),
    /// The open-loop request-serving driver, called as one operation.
    Serving {
        /// Workload size.
        scale: Scale,
        /// Server tiles.
        cores: usize,
        /// Seed of the arrival process.
        seed: u64,
        /// Offered load in permille of measured capacity.
        load_permille: u64,
    },
}

/// One operation of a pass.
pub struct Point {
    /// Name printed in failure messages and span dumps.
    pub name: String,
    /// Generates the point's kernels (one, or one per core).
    pub gen: Box<dyn Fn() -> Vec<Kernel>>,
    /// Configuration of every tile, coherence mode pinned.
    pub cfg: MachineConfig,
    /// Machine shape.
    pub shape: Shape,
}

/// Simulated counters summed over the reports of one or more points.
/// All are exact and repeat between runs of one commit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Σ makespan over the points (the `sim_cycles` metric).
    pub makespan: u64,
    /// Σ per-core simulated cycles.
    pub core_cycles: u64,
    /// Σ per-core cycles the event-horizon scheduler skipped.
    pub skipped_cycles: u64,
    /// Σ committed instructions.
    pub committed: u64,
    /// Σ static instructions of the compiled programs.
    pub static_insts: u64,
    /// Σ L1D accesses.
    pub l1_accesses: u64,
    /// Σ L1D hit ratio (%) × L1D accesses, for the weighted mean.
    pub l1_hit_weight: f64,
    /// Σ L2 accesses.
    pub l2_accesses: u64,
    /// Σ LM accesses.
    pub lm_accesses: u64,
    /// Σ L3 accesses.
    pub l3_accesses: u64,
    /// Σ cycles requests waited on an L3 bank port.
    pub bus_wait_cycles: u64,
    /// Σ requests that found their bank port busy.
    pub bank_conflicts: u64,
    /// Σ DRAM line reads.
    pub dram_reads: u64,
    /// Σ DRAM line writes.
    pub dram_writes: u64,
    /// Σ DRAM accesses that hit an open row.
    pub dram_row_hits: u64,
    /// Σ row-classified DRAM accesses.
    pub dram_row_accesses: u64,
    /// Σ per-tile Figure-4 directory lookups and updates.
    pub dir_accesses: u64,
    /// Σ shared-line L3 hits the inter-core directory served.
    pub shared_hits: u64,
    /// Σ invalidation messages.
    pub invalidations: u64,
    /// Σ dirty-owner interventions.
    pub interventions: u64,
    /// Σ dirty lines recalled from an owner's upper levels.
    pub dirty_recalls: u64,
    /// p99 sojourn latency of the request-serving point, in cycles.
    pub serve_p99_cycles: u64,
}

impl Totals {
    fn add_core(&mut self, r: &RunReport) {
        self.core_cycles += r.cycles;
        self.skipped_cycles += r.skipped_cycles;
        self.committed += r.committed;
        self.l1_accesses += r.l1_accesses;
        self.l1_hit_weight += r.l1d_hit_ratio * r.l1_accesses as f64;
        self.l2_accesses += r.l2_accesses;
        self.lm_accesses += r.lm_accesses;
        self.l3_accesses += r.l3_accesses;
        self.bus_wait_cycles += r.bus_wait_cycles;
        self.bank_conflicts += r.l3_bank_conflicts;
        self.dram_reads += r.dram_reads;
        self.dram_writes += r.dram_writes;
        self.dram_row_hits += r.dram_row_hits;
        self.dram_row_accesses += r.dram_row_hits + r.dram_row_misses + r.dram_row_conflicts;
        self.dir_accesses += r.dir_accesses;
        self.shared_hits += r.coh_shared_hits;
        self.invalidations += r.coh_invalidations;
        self.interventions += r.coh_interventions;
        self.dirty_recalls += r.coh_dirty_recalls;
    }

    fn add_multi(&mut self, m: &MultiRunReport) {
        self.makespan += m.makespan;
        m.per_core.iter().for_each(|r| self.add_core(r));
    }
}

/// What one run of one point produced.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// Digest of the point's report (every counter in it).
    pub digest: u64,
    /// Host-time attribution, on profiled runs of non-clustered shapes.
    pub profile: Option<HostProfile>,
    /// Mismatches against the reference interpreter, on verified runs.
    pub verify_mismatches: Option<usize>,
}

impl PointRun {
    fn of<T: std::fmt::Debug>(report: &T) -> PointRun {
        PointRun {
            digest: digest(report),
            profile: None,
            verify_mismatches: None,
        }
    }
}

/// Builds, runs and reports a flat multicore machine over `compiled`.
fn run_multi(
    cfg: &MachineConfig,
    compiled: Vec<(CompiledKernel, Kernel)>,
    profiled: bool,
    sp: &mut Spans,
    totals: &mut Totals,
) -> Result<PointRun, String> {
    let cfgs = vec![cfg.clone(); compiled.len()];
    let mut m = sp
        .time("machine.build", || {
            MultiMachine::try_for_kernels_hetero(cfgs, &compiled)
        })
        .map_err(|e| format!("build: {e}"))?;
    let mut prof = HostProfile::default();
    sp.time("machine.run", || {
        if profiled {
            m.run_profiled(&mut prof)
        } else {
            m.run()
        }
    })
    .map_err(|e| format!("run: {e}"))?;
    let cks: Vec<CompiledKernel> = compiled.into_iter().map(|(ck, _)| ck).collect();
    let report = sp.time("metrics.collect", || MultiRunReport::collect(&m, &cks));
    totals.add_multi(&report);
    totals.static_insts += cks.iter().map(|ck| ck.program.len() as u64).sum::<u64>();
    Ok(PointRun {
        profile: profiled.then_some(prof),
        ..PointRun::of(&report)
    })
}

/// Runs `p` phase by phase, recording one span per phase under a
/// `"point"` span and adding the report's counters to `totals`.
/// `profiled` selects `run_profiled` (the traced pass); the simulated
/// outcome is the same either way.
pub fn run_phases(
    p: &Point,
    profiled: bool,
    sp: &mut Spans,
    totals: &mut Totals,
) -> Result<PointRun, String> {
    let id = sp.enter("point");
    let out = run_phases_inner(p, profiled, sp, totals);
    sp.exit(id);
    out.map_err(|e| format!("{}: {e}", p.name))
}

fn run_phases_inner(
    p: &Point,
    profiled: bool,
    sp: &mut Spans,
    totals: &mut Totals,
) -> Result<PointRun, String> {
    let kernels = sp.time("workloads.gen", || (p.gen)());
    let codegen = p.cfg.mode.codegen();
    match &p.shape {
        Shape::Single => {
            let kernel = &kernels[0];
            let ck = sp.time("compiler.compile", || compile(kernel, codegen));
            let mut m = sp.time("machine.build", || {
                Machine::for_kernel(p.cfg.clone(), &ck, kernel)
            });
            let mut prof = HostProfile::default();
            sp.time("machine.run", || {
                if profiled {
                    m.run_profiled(&mut prof)
                } else {
                    m.run()
                }
            })
            .map_err(|e| format!("run: {e}"))?;
            let report = sp.time("metrics.collect", || RunReport::collect(&m, &ck));
            totals.makespan += report.cycles;
            totals.static_insts += ck.program.len() as u64;
            totals.add_core(&report);
            Ok(PointRun {
                profile: profiled.then_some(prof),
                ..PointRun::of(&report)
            })
        }
        Shape::Sharded(n) => {
            let shards = sp
                .time("compiler.shard", || kernels[0].shard(*n))
                .map_err(|e| format!("shard: {e}"))?;
            let compiled = sp.time("compiler.compile", || {
                shards
                    .into_iter()
                    .map(|s| (compile(&s, codegen), s))
                    .collect()
            });
            run_multi(&p.cfg, compiled, profiled, sp, totals)
        }
        Shape::PerCore => {
            let compiled = sp.time("compiler.compile", || {
                kernels
                    .into_iter()
                    .map(|k| (compile_for_tile(&k, &p.cfg), k))
                    .collect()
            });
            run_multi(&p.cfg, compiled, profiled, sp, totals)
        }
        Shape::Clustered(topo) => {
            let (shards, fallbacks) = shard_and_compile_clustered(&kernels[0], p, *topo, sp)?;
            // `run_clusters` builds each cluster's machine and collects
            // its report itself, so for this shape build and collect
            // are inside the run span.
            let cluster = ClusterConfig::new(*topo).serial();
            let report = sp
                .time("cluster.run", || {
                    run_clusters(&p.cfg, &cluster, &shards, fallbacks)
                })
                .map_err(|e| format!("clusters: {e}"))?;
            totals.makespan += report.makespan;
            totals.static_insts += static_insts(&shards);
            for m in &report.per_cluster {
                m.per_core.iter().for_each(|r| totals.add_core(r));
            }
            Ok(PointRun::of(&report))
        }
        Shape::Serving {
            scale,
            cores,
            seed,
            load_permille,
        } => {
            // One opaque product call: kernel generation, compilation
            // and the machine run all happen inside it.
            let report = sp
                .time("machine.run", || {
                    request_serving(*scale, *cores, p.cfg.mode, *seed, *load_permille)
                })
                .map_err(|e| format!("serving: {e}"))?;
            // The report carries no makespan. Requests are dealt out
            // round-robin, so each core serves `requests / cores` of
            // them at the mean service time: that product is the
            // machine run's length, and unlike the arrival-driven
            // `span_cycles` it does not move with the seed.
            totals.makespan += report.service_cycles * report.requests / report.cores as u64;
            totals.serve_p99_cycles += report.latency.p99();
            Ok(PointRun::of(&report))
        }
    }
}

/// Per-cluster `(compiled, shard)` lists, cluster-major.
pub type ClusterShards = Vec<Vec<(CompiledKernel, Kernel)>>;

fn static_insts(shards: &ClusterShards) -> u64 {
    shards
        .iter()
        .flatten()
        .map(|(ck, _)| ck.program.len() as u64)
        .sum()
}

/// The set-up half of a clustered point: two-level shard, compile every
/// slice, count the cross-cluster replication fallbacks.
pub fn shard_and_compile_clustered(
    kernel: &Kernel,
    p: &Point,
    topo: ClusterTopology,
    sp: &mut Spans,
) -> Result<(ClusterShards, u64), String> {
    let codegen = p.cfg.mode.codegen();
    let sliced = sp
        .time("compiler.shard", || {
            kernel.shard_clustered(topo.clusters, topo.cores_per_cluster)
        })
        .map_err(|e| format!("shard: {e}"))?;
    let shards = sp.time("compiler.compile", || {
        sliced
            .into_iter()
            .map(|cluster| {
                cluster
                    .into_iter()
                    .map(|s| (compile(&s, codegen), s))
                    .collect()
            })
            .collect()
    });
    let fallbacks = sp.time("compiler.shard", || {
        cross_cluster_fallbacks(kernel, topo.clusters)
    });
    Ok((shards, fallbacks))
}

/// Runs `p` through `RunSpec::run`, the product's one run API, with the
/// reference-interpreter check on single-machine points. Clustered
/// points use the serial driver here too, so an end-to-end run starts
/// no thread (the traced run is where threaded == serial is checked).
pub fn run_reference(p: &Point) -> Result<PointRun, String> {
    let kernels = (p.gen)();
    let fail = |e: hsim::experiments::MultiRunError| format!("{}: reference run: {e}", p.name);
    match &p.shape {
        Shape::Single => {
            let out = RunSpec::new(&kernels[0])
                .config(p.cfg.clone())
                .verified()
                .run()
                .map_err(fail)?;
            let verify_mismatches = out.verify_mismatches;
            Ok(PointRun {
                verify_mismatches,
                ..PointRun::of(&out.into_single())
            })
        }
        Shape::Sharded(n) => RunSpec::new(&kernels[0])
            .config(p.cfg.clone())
            .cores(*n)
            .run()
            .map(|out| PointRun::of(&out.into_multi()))
            .map_err(fail),
        Shape::PerCore => RunSpec::many(&kernels)
            .config(p.cfg.clone())
            .run()
            .map(|out| PointRun::of(&out.into_multi()))
            .map_err(fail),
        Shape::Clustered(topo) => RunSpec::new(&kernels[0])
            .config(p.cfg.clone())
            .clustered(&ClusterConfig::new(*topo).serial())
            .run()
            .map(|out| PointRun::of(&out.into_clusters()))
            .map_err(fail),
        // The serving driver is already one product call; running it
        // again checks that the same seed gives the same report.
        Shape::Serving { .. } => run_phases(p, false, &mut Spans::new(), &mut Totals::default()),
    }
}
