//! One run of one workload: the reference pass, the timed passes or the
//! traced pass, and the metrics they produce.

use crate::points::{self, Point, PointRun, Shape, Totals};
use crate::replays::{self, ReplaySize};
use crate::spans::Spans;
use crate::stats::{digest, median, min_max};
use crate::workloads::Workload;
use hsim::cluster::{run_clusters, ClusterConfig, ClusterTopology};
use hsim::coherence::CoherenceProtocol;
use hsim::compiler::CompiledKernel;
use hsim::core::HostProfile;
use hsim::machine::MultiMachine;
use hsim::metrics::MultiRunReport;
use hsim::workloads::{self as w, Scale};
use std::time::Instant;

/// How one run is sized.
#[derive(Clone, Copy, Debug)]
pub struct RunPlan {
    /// Kernel scale of the workload's points.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Timed passes continue until this many seconds have been
    /// measured…
    pub seconds: f64,
    /// …and at least this many passes have run.
    pub min_passes: usize,
    /// Sizes of the layer-isolated replays.
    pub replay: ReplaySize,
}

/// Fewest timed passes of a measuring run: with fewer, a point's fastest
/// run is too easily a disturbed one.
pub const MIN_PASSES: usize = 3;

/// Counts operations and failures. One operation is one point run once,
/// in whichever pass; it fails if the run errs, if its report digest
/// differs from the first digest seen for that point, or if the
/// reference interpreter disagrees with the machine's memory image.
#[derive(Default)]
pub struct Checker {
    /// First digest seen per point index.
    baseline: std::collections::BTreeMap<usize, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checker {
    /// Records the outcome of running point `i` (named `name`) once.
    pub fn record(
        &mut self,
        i: usize,
        name: &str,
        outcome: Result<PointRun, String>,
    ) -> Option<PointRun> {
        self.attempted += 1;
        let failure = match &outcome {
            Err(e) => Some(e.clone()),
            Ok(r) if r.verify_mismatches.is_some_and(|n| n > 0) => Some(format!(
                "{name}: {} elements differ from the reference interpreter",
                r.verify_mismatches.unwrap_or(0)
            )),
            Ok(r) => match *self.baseline.entry(i).or_insert(r.digest) {
                d if d == r.digest => None,
                d => Some(format!(
                    "{name}: report digest {:016x} differs from the first run's {d:016x}",
                    r.digest
                )),
            },
        };
        if let Some(f) = failure {
            self.failed += 1;
            self.failures.push(f);
        }
        outcome.ok()
    }
}

/// A metric value with the spread of the passes behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The reported value. For host timings: the sum over the points of
    /// each point's fastest timed run (see [`end_to_end`]).
    pub value: f64,
    /// Median over whole passes.
    pub median: f64,
    /// Smallest whole pass.
    pub min: f64,
    /// Largest whole pass.
    pub max: f64,
    /// Passes.
    pub samples: usize,
}

impl Measured {
    fn timing(name: &'static str, value: f64, passes: &[f64]) -> Self {
        let (min, max) = min_max(passes);
        Measured {
            name,
            value,
            median: median(passes),
            min,
            max,
            samples: passes.len(),
        }
    }

    /// A value that is not a sample of anything: a count, or a single
    /// reading.
    pub fn exact(name: &'static str, value: f64) -> Self {
        Measured {
            name,
            value,
            median: value,
            min: value,
            max: value,
            samples: 1,
        }
    }
}

/// Host seconds of one point in one pass.
#[derive(Clone, Copy, Debug)]
struct PointTime {
    /// The whole point: generate → … → collect.
    wall_s: f64,
    /// The part inside `run` / `run_clusters` / `request_serving`.
    run_s: f64,
}

/// What one pass over a workload's points measured.
struct Pass {
    points: Vec<PointTime>,
    totals: Totals,
    profile: HostProfile,
    /// Index of the pass's first span.
    mark: usize,
}

/// Runs every point once. `traced` selects the profiled run (and, for
/// clustered points, the cluster-driver measurements).
fn one_pass(points: &[Point], traced: bool, sp: &mut Spans, check: &mut Checker) -> Pass {
    let mark = sp.mark();
    let mut totals = Totals::default();
    let mut profile = HostProfile::default();
    let mut times = Vec::with_capacity(points.len());
    let id = sp.enter("pass");
    for (i, p) in points.iter().enumerate() {
        // Both runners open a "point" span first, so it sits at `at`.
        let at = sp.mark();
        let outcome = match (&p.shape, traced) {
            (Shape::Clustered(topo), true) => cluster_trace(p, *topo, sp),
            _ => points::run_phases(p, traced, sp, &mut totals),
        };
        let span = &sp.all()[at];
        times.push(PointTime {
            wall_s: (span.end_ns - span.start_ns) as f64 * 1e-9,
            run_s: sp.total_s("machine.run", at) + sp.total_s("cluster.run", at),
        });
        if let Some(prof) = check.record(i, &p.name, outcome).and_then(|r| r.profile) {
            profile.merge(&prof);
        }
    }
    sp.exit(id);
    Pass {
        points: times,
        totals,
        profile,
        mark,
    }
}

/// The reference pass: every point through `RunSpec::run` (see
/// [`points::run_reference`]). It also warms the process up, so no
/// timed pass is the first to touch the allocator or the page cache.
fn reference_pass(points: &[Point], check: &mut Checker) {
    for (i, p) in points.iter().enumerate() {
        check.record(i, &p.name, points::run_reference(p));
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end run (`--trace 0`): reference pass, then timed passes
/// for `plan.seconds`.
///
/// Host noise on a shared sandbox is one-sided and comes in bursts: the
/// same code runs 2–2.5× slower for seconds at a time, so the median of
/// a handful of passes moves by tens of percent between runs. Each
/// point's time is therefore taken from its **fastest** timed run — the
/// one the host disturbed least — and `wall_s` / `setup_s` are the sums
/// of those over the points. The whole-pass median, minimum and maximum
/// are reported beside them.
pub fn end_to_end(
    wl: &Workload,
    plan: RunPlan,
    check: &mut Checker,
) -> Result<(Vec<Measured>, Spans), String> {
    let points = (wl.points)(plan.scale, plan.seed);
    reference_pass(&points, check);
    let mut sp = Spans::new();
    let mut passes: Vec<Vec<PointTime>> = Vec::new();
    let mut totals = Totals::default();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    loop {
        // Stop before a pass that, at the mean length of those so far,
        // would end after `seconds`: a run measures for `seconds`, not
        // for up to a pass longer, so the driver's time limit holds.
        let (done, elapsed) = (passes.len(), started.elapsed().as_secs_f64());
        if done >= plan.min_passes.max(1) && elapsed + elapsed / done as f64 > plan.seconds {
            break;
        }
        let pass = one_pass(&points, false, &mut sp, check);
        passes.push(pass.points);
        totals = pass.totals;
        // Read after a fixed number of passes: the heap creeps up with
        // every pass, and how many fit in `seconds` depends on the host.
        if passes.len() == plan.min_passes {
            peak_rss = peak_rss_mib()?;
        }
    }
    let wall = |t: &PointTime| t.wall_s;
    let setup = |t: &PointTime| t.wall_s - t.run_s;
    let best = |f: fn(&PointTime) -> f64| -> f64 {
        (0..points.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| f(&p[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let per_pass = |f: fn(&PointTime) -> f64| -> Vec<f64> {
        passes.iter().map(|p| p.iter().map(f).sum()).collect()
    };
    let (wall_s, pass_walls) = (best(wall), per_pass(wall));
    let rate = |count: u64, secs: f64| count as f64 / 1e6 / secs;
    let rates = |count: u64| -> Vec<f64> { pass_walls.iter().map(|&w| rate(count, w)).collect() };
    Ok((
        vec![
            Measured::timing("wall_s", wall_s, &pass_walls),
            Measured::timing("setup_s", best(setup), &per_pass(setup)),
            Measured::timing(
                "sim_minstr_per_s",
                rate(totals.committed, wall_s),
                &rates(totals.committed),
            ),
            Measured::timing(
                "sim_mcycles_per_s",
                rate(totals.core_cycles, wall_s),
                &rates(totals.core_cycles),
            ),
            Measured::exact("sim_cycles", totals.makespan as f64),
            Measured::exact("peak_rss_mb", peak_rss),
        ],
        sp,
    ))
}

/// The traced measurements of one clustered point, in place of its
/// plain run: every cluster driven directly through
/// `MultiMachine::run_until` (what the simulation costs without the
/// epoch loop), again through `run_profiled` (where that time goes),
/// and the whole point on the threaded driver.
fn cluster_trace(p: &Point, topo: ClusterTopology, sp: &mut Spans) -> Result<PointRun, String> {
    let id = sp.enter("point");
    let out = (|| {
        let kernels = sp.time("workloads.gen", || (p.gen)());
        let (shards, fallbacks) = points::shard_and_compile_clustered(&kernels[0], p, topo, sp)?;
        let mut direct = Vec::new();
        for cluster in &shards {
            let mut m = sp.time("machine.build", || {
                MultiMachine::for_kernels(p.cfg.clone(), cluster)
            });
            sp.time("cluster.direct_run", || m.run_until(u64::MAX))
                .map_err(|e| format!("direct run: {e}"))?;
            let cks: Vec<CompiledKernel> = cluster.iter().map(|(ck, _)| ck.clone()).collect();
            direct.push(sp.time("metrics.collect", || MultiRunReport::collect(&m, &cks)));
        }
        let mut profile = HostProfile::default();
        for cluster in &shards {
            let mut m = MultiMachine::for_kernels(p.cfg.clone(), cluster);
            sp.time("cluster.profiled_run", || m.run_profiled(&mut profile))
                .map_err(|e| format!("profiled run: {e}"))?;
        }
        let report = sp
            .time("cluster.threaded_run", || {
                run_clusters(&p.cfg, &ClusterConfig::new(topo), &shards, fallbacks)
            })
            .map_err(|e| format!("threaded clusters: {e}"))?;
        // One uninterrupted run of a cluster must equal its epoch-chunked
        // run on the cluster driver, statistic for statistic.
        if digest(&direct) != digest(&report.per_cluster) {
            return Err("direct run_until reports differ from the cluster driver's".into());
        }
        Ok(PointRun {
            digest: digest(&report),
            profile: Some(profile),
            verify_mismatches: None,
        })
    })();
    sp.exit(id);
    out.map_err(|e: String| format!("{}: {e}", p.name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run (`--trace 1`): one untraced pass, one traced pass,
/// then every layer-isolated replay. Returns every per-layer metric, in
/// table order.
pub fn per_layer(
    wl: &Workload,
    plan: RunPlan,
    check: &mut Checker,
) -> Result<(Vec<Measured>, Spans), String> {
    let points = (wl.points)(plan.scale, plan.seed);
    let mut sp = Spans::new();
    let plain = one_pass(&points, false, &mut sp, check);
    let traced = one_pass(&points, true, &mut sp, check);
    let t = &plain.totals;
    let prof = &traced.profile;
    let span = |name: &str| sp.total_s(name, traced.mark);

    // Clustered points replace their traced run with the cluster-driver
    // measurements; for them "the run" is the profiled direct drive.
    let clustered = span("cluster.profiled_run") > 0.0;
    let (traced_run, untraced_run) = if clustered {
        (span("cluster.profiled_run"), span("cluster.direct_run"))
    } else {
        (
            span("machine.run"),
            sp.total_s("machine.run", plain.mark) - span("machine.run"),
        )
    };
    let serial_s = sp.total_s("cluster.run", plain.mark);
    let direct_s = span("cluster.direct_run") + span("machine.build") + span("metrics.collect");

    let size = plan.replay;
    let seed = plan.seed;
    let hit_log = replays::record_accesses(&w::ep(size.scale), size);
    let miss_log = replays::record_accesses(&w::is(size.scale), size);
    let (dram_read, dram_write) = replays::dram_replay(seed, size);
    let dirline = replays::dirline_stream(seed, size.ops);
    let dirline_ns = |p: CoherenceProtocol| replays::dirline_replay(p, &dirline);

    let values = vec![
        ("workloads.gen_s", span("workloads.gen")),
        ("compiler.shard_s", span("compiler.shard")),
        ("compiler.compile_s", span("compiler.compile")),
        ("compiler.insts", t.static_insts as f64),
        ("machine.build_s", span("machine.build")),
        ("machine.run_s", traced_run),
        ("metrics.collect_s", span("metrics.collect")),
        ("core.tick_s", prof.tick_secs),
        ("core.ticks", prof.ticks as f64),
        (
            "core.ns_per_tick",
            ratio(prof.tick_secs * 1e9, prof.ticks as f64),
        ),
        ("core.advance_s", prof.advance_secs),
        ("core.advances", prof.advances as f64),
        ("machine.horizon_s", prof.horizon_secs),
        ("machine.horizon_scans", prof.horizon_scans as f64),
        ("core.committed", t.committed as f64),
        ("core.cycles", t.core_cycles as f64),
        (
            "core.skipped_fraction",
            ratio(t.skipped_cycles as f64, t.core_cycles as f64),
        ),
        ("mem.l1_accesses", t.l1_accesses as f64),
        (
            "mem.l1d_hit_ratio",
            ratio(t.l1_hit_weight, t.l1_accesses as f64),
        ),
        ("mem.l2_accesses", t.l2_accesses as f64),
        ("mem.lm_accesses", t.lm_accesses as f64),
        ("backside.l3_accesses", t.l3_accesses as f64),
        ("backside.bus_wait_cycles", t.bus_wait_cycles as f64),
        ("backside.bank_conflicts", t.bank_conflicts as f64),
        ("dram.reads", t.dram_reads as f64),
        ("dram.writes", t.dram_writes as f64),
        (
            "dram.row_hit_rate",
            100.0 * ratio(t.dram_row_hits as f64, t.dram_row_accesses as f64),
        ),
        ("coherence.dir_accesses", t.dir_accesses as f64),
        ("coherence.shared_hits", t.shared_hits as f64),
        ("coherence.invalidations", t.invalidations as f64),
        ("coherence.interventions", t.interventions as f64),
        ("coherence.dirty_recalls", t.dirty_recalls as f64),
        ("metrics.serve_p99_cycles", t.serve_p99_cycles as f64),
        (
            "core.ideal_port_minstr_per_s",
            replays::core_ideal_port(size)?,
        ),
        (
            "mem.replay_hit_ns_per_access",
            replays::mem_replay(&hit_log).0,
        ),
        (
            "mem.replay_miss_ns_per_access",
            replays::mem_replay(&miss_log).0,
        ),
        (
            "backside.read_ns_per_access",
            replays::backside_replay(&replays::backside_read_stream(size.ops)),
        ),
        (
            "backside.write_share_ns_per_access",
            replays::backside_replay(&replays::backside_share_stream(seed, size.ops)),
        ),
        ("dram.read_ns", dram_read),
        ("dram.write_posted_ns", dram_write),
        ("mem.paged_rw_ns", replays::paged_replay(seed, size)),
        (
            "coherence.dirline_ns_per_step.msi",
            dirline_ns(CoherenceProtocol::Msi),
        ),
        (
            "coherence.dirline_ns_per_step.mesi",
            dirline_ns(CoherenceProtocol::Mesi),
        ),
        (
            "coherence.dirline_ns_per_step.moesi",
            dirline_ns(CoherenceProtocol::Moesi),
        ),
        (
            "coherence.dirline_ns_per_step.mesif",
            dirline_ns(CoherenceProtocol::Mesif),
        ),
        (
            "coherence.dir_lookup_ns",
            replays::dir_lookup_replay(seed, size.ops),
        ),
        ("cluster.run_s", serial_s),
        (
            "cluster.epoch_overhead_s",
            if clustered { serial_s - direct_s } else { 0.0 },
        ),
        ("cluster.threaded_run_s", span("cluster.threaded_run")),
        (
            "cluster.thread_speedup",
            ratio(serial_s, span("cluster.threaded_run")),
        ),
        ("trace.overhead_ratio", ratio(traced_run, untraced_run)),
    ];
    let measured = values
        .into_iter()
        .map(|(name, value)| Measured::exact(name, value))
        .collect();
    Ok((measured, sp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn smoke_plan() -> RunPlan {
        RunPlan {
            scale: Scale::Test,
            seed: 11,
            seconds: 0.0,
            min_passes: 2,
            replay: ReplaySize::smoke(),
        }
    }

    fn run(digest: u64) -> Result<PointRun, String> {
        Ok(PointRun {
            digest,
            profile: None,
            verify_mismatches: None,
        })
    }

    #[test]
    fn checker_counts_errors_digest_drift_and_interpreter_mismatches() {
        let mut c = Checker::default();
        assert!(c.record(0, "a", run(7)).is_some());
        assert!(c.record(0, "a", run(7)).is_some());
        assert!(
            c.record(1, "b", run(9)).is_some(),
            "points have their own baselines"
        );
        assert_eq!((c.attempted, c.failed), (3, 0));
        c.record(0, "a", run(8));
        assert!(c.record(1, "b", Err("boom".into())).is_none());
        c.record(
            1,
            "b",
            Ok(PointRun {
                digest: 9,
                profile: None,
                verify_mismatches: Some(2),
            }),
        );
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert!(c.failures[0].contains("digest"));
        assert_eq!(c.failures[1], "boom");
        assert!(c.failures[2].contains("reference interpreter"));
    }

    /// Every workload at smoke size: no operation fails, the reference
    /// and phase-driven digests agree, and the run prints exactly the
    /// end-to-end metrics of the table, in order.
    #[test]
    fn every_workload_runs_end_to_end_at_smoke_size() {
        for wl in &WORKLOADS {
            let n = (wl.points)(Scale::Test, 11).len();
            let mut check = Checker::default();
            let (ms, _) = end_to_end(wl, smoke_plan(), &mut check).expect(wl.name);
            assert_eq!(check.failed, 0, "{}: {:?}", wl.name, check.failures);
            assert_eq!(
                check.attempted as usize,
                3 * n,
                "reference + 2 timed passes"
            );
            let names: Vec<_> = ms.iter().map(|m| m.name).collect();
            let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for m in &ms {
                assert!(m.value > 0.0, "{} {} is never 0", wl.name, m.name);
                assert!(m.min <= m.median && m.median <= m.max);
            }
            assert_eq!(ms[0].samples, 2);
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric_in_order() {
        for name in ["comm_dir_4c", "clusters_2x8"] {
            let wl = crate::workloads::find(name).unwrap();
            let mut check = Checker::default();
            let (vals, sp) = per_layer(wl, smoke_plan(), &mut check).expect(name);
            assert_eq!(check.failed, 0, "{name}: {:?}", check.failures);
            let names: Vec<_> = vals.iter().map(|m| m.name).collect();
            let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            assert!(vals.iter().all(|m| m.value.is_finite()));
            let get = |k: &str| vals.iter().find(|m| m.name == k).unwrap().value;
            assert!(get("trace.overhead_ratio") > 0.0);
            assert!(get("core.ticks") > 0.0);
            assert_eq!(get("cluster.run_s") > 0.0, name == "clusters_2x8");
            assert_eq!(get("metrics.serve_p99_cycles") > 0.0, name == "comm_dir_4c");
            assert!(sp.all().iter().all(|s| s.end_ns >= s.start_ns));
        }
    }

    #[test]
    fn same_seed_same_simulated_time_and_another_seed_another() {
        let wl = crate::workloads::find("nas_membound_4c").unwrap();
        let cycles = |seed: u64| {
            let plan = RunPlan {
                seed,
                min_passes: 1,
                ..smoke_plan()
            };
            let mut check = Checker::default();
            let (ms, _) = end_to_end(wl, plan, &mut check).unwrap();
            assert_eq!(check.failed, 0);
            ms.iter().find(|m| m.name == "sim_cycles").unwrap().value
        };
        assert_eq!(cycles(3), cycles(3));
        assert_ne!(cycles(3), cycles(4));
    }
}
