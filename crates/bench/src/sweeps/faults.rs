//! `faults`: fault rate × kernel makespan-degradation curves with the
//! recovery counters, every point replayed same-seed.

use crate::{jstr, print_table, ratio, Col, Flags, SweepJson};
use hsim::prelude::*;

/// A `faults` point: `(kernel, uniform fault probability of all three
/// sites)` and its `[run, fault-free run]`.
pub type FaultRow<'k> = ((&'k Kernel, f64), [MultiRunReport; 2]);

/// Columns of the `faults` sweep.
pub fn faults_cols<'k>() -> Vec<Col<FaultRow<'k>>> {
    type C<'k> = Col<FaultRow<'k>>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1[0], counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("rate", 7, "rate", |((_, rate), _)| (*rate).into()),
        C::both("makespan", 10, "makespan", |(_, [r, _])| r.makespan.into()),
        C::json("committed", |(_, [r, _])| r.total(|c| c.committed).into()),
        total("skipped", 7, "skipped_cycles", |c| c.skipped_cycles).after("degr"),
        total("eccRetry", 9, "ecc_retries", |c| c.ecc_retries),
        total("dmaRtry", 7, "dma_retries", |c| c.dma_retries),
        total("dirNack", 7, "dir_nacks", |c| c.dir_nacks),
        total("escal", 7, "escalations", |c| c.escalations),
        C::table("degr", 5, |(_, [r, clean])| {
            ratio(r.makespan, clean.makespan).into()
        })
        .decimals(3, 3)
        .suffix("x"),
    ]
}

/// Fault-injection sweep: for every NAS kernel and each uniform fault
/// rate (all three sites — DRAM ECC retries, DMA timeouts, directory
/// NACKs — at the same probability), runs a 4-core machine under a
/// seeded [`FaultConfig`] and reports the makespan degradation curve
/// plus the recovery counters. Asserted at every point: faults perturb
/// *when*, never *what* (committed totals equal the fault-free run's),
/// the same seed replays bit-identically, and rate 0.0 bit-identically
/// matches a machine with no fault plan at all. CI additionally runs
/// the sweep twice and `cmp`s the two artefacts byte for byte.
pub fn faults(flags: Flags) {
    /// Seed of every swept fault plan.
    const SEED: u64 = 0x5EED_FA17;
    const CORES: usize = 4;

    let run_point = |kernel: &Kernel, fault: FaultConfig| {
        let cfg = flags.config(SysMode::HybridCoherent).with_faults(fault);
        let spec = RunSpec::new(kernel).cores(CORES).config(cfg);
        MultiRunError::skip_unshardable(spec.run())
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
            .map(RunOutcome::into_multi)
    };

    let scale = flags.sweep_scale();
    // Smoke: one bandwidth-bound kernel (DRAM/ECC pressure) and one
    // DMA-heavy kernel (timeout/backoff pressure).
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let rates: &[f64] = flags.pick(&[0.0, 0.01, 0.2], &[0.0, 0.0001, 0.001, 0.01, 0.05, 0.2]);

    let mut rows = Vec::new();
    for kernel in &kernels {
        // The fault-free oracle: no plan object at all.
        let Some(clean) = run_point(kernel, FaultConfig::none()) else {
            println!(
                "note: {} does not shard to {CORES} cores; skipped",
                kernel.name
            );
            continue;
        };
        for &rate in rates {
            let fault = FaultConfig::uniform(SEED, rate);
            let report = run_point(kernel, fault.clone()).expect("shardability is fault-blind");
            let replay = run_point(kernel, fault).expect("shardability is fault-blind");

            // Determinism: same seed, same everything.
            assert_eq!(
                report.makespan, replay.makespan,
                "{} rate {rate}: replay changed the makespan",
                kernel.name
            );
            for counter in [
                |c: &RunReport| c.skipped_cycles,
                |c: &RunReport| c.ecc_retries,
                |c: &RunReport| c.dma_retries,
                |c: &RunReport| c.dir_nacks,
                |c: &RunReport| c.escalations,
            ] {
                assert_eq!(report.total(counter), replay.total(counter));
            }

            // Timing-only: faults never change architectural progress.
            assert_eq!(
                report.total(|c| c.committed),
                clean.total(|c| c.committed),
                "{} rate {rate}: faults changed the committed-instruction total",
                kernel.name
            );
            if rate == 0.0 {
                // A zero-rate plan is bit-identical to no plan.
                assert_eq!(report.makespan, clean.makespan);
                assert_eq!(
                    report.total(|c| c.skipped_cycles),
                    clean.total(|c| c.skipped_cycles)
                );
                assert_eq!(report.total(|c| c.ecc_retries), 0);
            }

            rows.push(((kernel, rate), [report, clean.clone()]));
        }
    }

    println!("FAULTS: fault rate x kernel degradation sweep ({scale:?} scale)");
    println!(
        "(every point replayed with the same seed and asserted \
         bit-identical; committed totals asserted fault-invariant)"
    );
    println!();
    print_table(&faults_cols(), &rows);
    println!();
    println!(
        "note: degr is makespan relative to the kernel's rate-0 run; \
         escalations count DMA transfers that exhausted the retry \
         budget (completed, flagged) — recovery is paid in cycles, \
         never in lost work."
    );

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .meta("cores", CORES)
        .meta("seed", SEED)
        .rows("rows", &faults_cols(), &rows)
        .write("BENCH_faults.json");
}
