//! `comm`: the communication workloads (ping-pong, queue, lock,
//! barrier) hybrid vs cache-based plus the protocol family on the queue
//! hand-off, and the open-loop request-serving latency report.

use crate::shapes::comm_orderings;
use crate::{grid, print_table, ratio, sweep, Col, Flags, SweepJson, Val};
use hsim::prelude::*;
use hsim_workloads::comm as commw;

/// A `comm` point: `(workload family, cores, system, protocol)` and its
/// run with the workload's modeled hand-offs per core (pair workloads
/// use `cores/2` pairs).
pub type CommRow = (
    (&'static str, usize, SysMode, CoherenceProtocol),
    (MultiRunReport, u64),
);

/// Cycles per hand-off, `makespan / rounds`: the round-trip headline the
/// hybrid LM+DMA path should win.
pub fn round_cycles((_, (report, rounds)): &CommRow) -> f64 {
    ratio(report.makespan, *rounds)
}

/// The communication-workload grid: every family
/// (ping-pong/queue/lock/barrier) × core count on hybrid-coherent and
/// cache-based chips under the inter-core protocol `cm`, plus the rest
/// of the protocol family on the cache-based queue (the dirty hand-off
/// point where MSI/MESI/MOESI/MESIF separate). Core counts must be even
/// (pair workloads). One job per point.
pub fn comm_points(
    scale: Scale,
    core_counts: &[usize],
    cm: CoherenceProtocol,
) -> Result<Vec<CommRow>, MultiRunError> {
    let mut points = Vec::new();
    for &cores in core_counts {
        for name in ["pingpong", "queue", "lock", "barrier"] {
            for mode in [SysMode::HybridCoherent, SysMode::CacheBased] {
                points.push((name, cores, mode, cm));
            }
        }
        for other in CoherenceProtocol::ALL {
            if other != cm {
                points.push(("queue", cores, SysMode::CacheBased, other));
            }
        }
    }
    sweep(points, |&(name, cores, mode, cm)| {
        let w = match name {
            "pingpong" => commw::ping_pong(scale, cores),
            "queue" => commw::queue(scale, cores, 64),
            "lock" => commw::lock(scale, cores),
            "barrier" => commw::barrier(scale, cores),
            other => unreachable!("unknown comm workload {other}"),
        };
        let cfg = MachineConfig::for_mode(mode).with_coherence(cm);
        let report = RunSpec::many(&w.kernels).config(cfg).run()?.into_multi();
        Ok(Some((report, w.rounds)))
    })
}

/// [`request_serving_on`] hybrid-coherent and cache-based chips under
/// the inter-core protocol `cm` at every core count, one job per point.
/// A report carries its own axes (cores, system).
pub fn request_serving_points(
    scale: Scale,
    core_counts: &[usize],
    cm: CoherenceProtocol,
    seed: u64,
    load_permille: u64,
) -> Result<Vec<RequestServingReport>, MultiRunError> {
    let systems = [SysMode::HybridCoherent, SysMode::CacheBased];
    let points = grid(core_counts.iter().copied(), systems.into_iter());
    let reports = sweep(points, |&(cores, mode)| {
        let cfg = MachineConfig::for_mode(mode).with_coherence(cm);
        request_serving_on(&cfg, scale, cores, seed, load_permille).map(Some)
    })?;
    Ok(reports.into_iter().map(|(_, r)| r).collect())
}

/// Columns of the `comm` sweep's microbenchmark table.
pub fn comm_cols() -> Vec<Col<CommRow>> {
    type C = Col<CommRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1 .0, counter);
    vec![
        C::both("workload", 9, "workload", |((w, ..), _)| Val::text(w)),
        C::both("cores", 5, "cores", |((_, cores, ..), _)| (*cores).into()),
        C::table("system", 7, |((_, _, mode, _), _)| {
            Val::text(match mode {
                SysMode::CacheBased => "cache",
                _ => "hybrid",
            })
        }),
        C::json("mode", |((_, _, mode, _), _)| {
            Val::text(format!("{mode:?}"))
        }),
        C::both("proto", 9, "protocol", |((.., cm), _)| Val::text(cm.name())),
        C::json("rounds", |(_, (_, rounds))| (*rounds).into()),
        C::both("makespan", 10, "makespan", |(_, (r, _))| r.makespan.into()),
        C::both("rt/rnd", 8, "round_cycles", |r| round_cycles(r).into()).decimals(1, 2),
        total("dramR", 8, "dram_reads", |c| c.dram_reads),
        total("shrhits", 8, "shared_hits", |c| c.coh_shared_hits),
        total("invals", 8, "invalidations", |c| c.coh_invalidations),
        total("intervs", 8, "interventions", |c| c.coh_interventions),
        total("recalls", 8, "dirty_recalls", |c| c.coh_dirty_recalls),
        C::json("committed", |(_, (r, _))| r.total(|c| c.committed).into()),
    ]
}

/// Fields of the `comm` sweep's `request_serving` rows (the printed
/// form is [`RequestServingReport::render`]).
pub fn request_serving_cols() -> Vec<Col<RequestServingReport>> {
    type C = Col<RequestServingReport>;
    vec![
        C::json("cores", |r| r.cores.into()),
        C::json("mode", |r| Val::text(format!("{:?}", r.mode))),
        C::json("requests", |r| r.requests.into()),
        C::json("service_cycles", |r| r.service_cycles.into()),
        C::json("mean_interarrival", |r| r.mean_interarrival.into()),
        C::json("span_cycles", |r| r.span_cycles.into()),
        C::json("p50", |r| r.latency.p50().into()),
        C::json("p95", |r| r.latency.p95().into()),
        C::json("p99", |r| r.latency.p99().into()),
        C::json("mean", |r| r.latency.mean().into()),
        C::json("max", |r| r.latency.max().into()),
        C::json("requests_per_sec", |r| r.requests_per_sec().into()),
        C::json("load_permille", |r| r.offered_load_permille().into()),
    ]
}

/// Communication & request-serving workloads: the traffic *between*
/// cores as the measured quantity. First the comm microbenchmarks
/// ([`comm_points`]: ping-pong, multi-buffered queue, lock and barrier
/// contention on hybrid and cache-based chips, plus the full protocol
/// family on the cache-based queue hand-off) — the headline is cycles
/// per hand-off (`rt/rnd`); then request serving
/// ([`request_serving_points`]: many short gather kernels against one
/// shared read-mostly table, replayed through a deterministic open-loop
/// arrival process).
pub fn comm(flags: Flags) {
    /// Open-loop offered load as a fraction of measured chip capacity
    /// (permille). 700 keeps the system stable (ρ < 1) while producing
    /// a visible queueing tail.
    const LOAD_PERMILLE: u64 = 700;
    /// Arrival-stream seed; any nonzero value works, the report pins
    /// byte-identical output per seed.
    const SEED: u64 = 0xC0_FFEE;

    let scale = flags.sweep_scale();
    let core_counts: &[usize] = flags.pick(&[2, 4], &[2, 4, 8]);

    let rows = comm_points(scale, core_counts, flags.coherence).expect("comm sweep failed");

    println!("COMM: communication microbenchmarks ({scale:?} scale)");
    println!("(rt/rnd = cycles per hand-off; hybrid = LM+DMA payload, coherent flags)");
    println!();
    print_table(&comm_cols(), &rows);
    println!();

    for &cores in core_counts {
        let [hybrid, cache, ..] = comm_orderings(&rows, cores);
        println!(
            "pingpong x{cores}: hybrid {:.1} vs cache {:.1} cycles/round",
            round_cycles(hybrid),
            round_cycles(cache)
        );
    }
    println!();
    println!("comm shapes OK (hybrid RTT < cache RTT; MSI >= MOESI/MESIF queue dramR)");
    println!();

    let reports = request_serving_points(scale, core_counts, flags.coherence, SEED, LOAD_PERMILLE)
        .expect("request-serving sweep failed");

    println!(
        "REQUEST SERVING: open-loop gather service ({scale:?} scale, \
         load {LOAD_PERMILLE} permille, seed {SEED:#x})"
    );
    println!();
    for rep in &reports {
        print!("{}", rep.render());
        println!();
    }

    SweepJson::new(scale)
        .meta("seed", SEED)
        .meta("load_permille", LOAD_PERMILLE)
        .rows("rows", &comm_cols(), &rows)
        .rows("request_serving", &request_serving_cols(), &reports)
        .write("BENCH_comm.json");
}
