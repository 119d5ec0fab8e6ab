//! `scaling`: speedup-vs-cores curves per kernel with the bus-wait
//! breakdown of where the scaling went.

use crate::{jstr, print_table, ratio, sweep, Col, Flags, SweepJson};
use hsim::prelude::*;

/// A `scaling` point: `(kernel, cores)` and its `[run, 1-core run]` —
/// the kernel's own 1-core run is the speedup's denominator.
pub type ScalingRow<'k> = ((&'k Kernel, usize), [MultiRunReport; 2]);

/// The speedup of a point against its kernel's 1-core run.
pub fn scaling_speedup((_, [run, one]): &ScalingRow) -> f64 {
    ratio(one.makespan, run.makespan)
}

/// The speedup-vs-cores curve of every kernel on machines built from
/// `cfg`. One job per kernel: it runs the kernel's 1-core point first
/// (every point is normalized by it), then every core count, in order;
/// core counts a kernel cannot shard to are skipped.
pub fn scaling_points<'k>(
    kernels: &'k [Kernel],
    core_counts: &[usize],
    cfg: &MachineConfig,
) -> Result<Vec<ScalingRow<'k>>, MultiRunError> {
    let curves = sweep(kernels.iter().collect(), |&kernel| {
        let run = |cores: usize| {
            let spec = RunSpec::new(kernel).cores(cores).config(cfg.clone());
            MultiRunError::skip_unshardable(spec.run().map(RunOutcome::into_multi))
        };
        let Some(one) = run(1)? else {
            return Ok(None);
        };
        let mut curve = Vec::new();
        for &cores in core_counts {
            let m = if cores == 1 {
                Some(one.clone())
            } else {
                run(cores)?
            };
            if let Some(m) = m {
                curve.push(((kernel, cores), [m, one.clone()]));
            }
        }
        Ok(Some(curve))
    })?;
    Ok(curves.into_iter().flat_map(|(_, curve)| curve).collect())
}

/// Columns of the `scaling` sweep.
pub fn scaling_cols<'k>() -> Vec<Col<ScalingRow<'k>>> {
    type C<'k> = Col<ScalingRow<'k>>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1[0], counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("cores", 5, "cores", |((_, cores), _)| (*cores).into()),
        C::both("makespan", 10, "makespan", |(_, [r, _])| r.makespan.into()),
        C::both("speedup", 7, "speedup", |r| scaling_speedup(r).into()).decimals(2, 3),
        C::json("committed", |(_, [r, _])| r.total(|c| c.committed).into()),
        C::both("ipc", 8, "aggregate_ipc", |(_, [r, _])| {
            r.aggregate_ipc().into()
        })
        .decimals(2, 3),
        total("buswait", 9, "bus_wait_cycles", |c| c.bus_wait_cycles),
        total("bankcfl", 9, "bank_conflicts", |c| c.l3_bank_conflicts),
        C::both("rowhit%", 8, "dram_row_hit_rate", |(_, [r, _])| {
            r.dram_row_hit_rate().into()
        })
        .decimals(1, 2),
        total("dramR", 9, "dram_reads", |c| c.dram_reads),
    ]
}

/// The scaling experiment: speedup-vs-cores curves per NAS kernel —
/// the makespan, the speedup against the kernel's own 1-core run, and
/// where the lost scaling went (L3 bank-port waits, bank conflicts,
/// DRAM row locality).
pub fn scaling(flags: Flags) {
    let scale = flags.sweep_scale();
    let kernels = flags.sweep_kernels(&["CG", "EP"]);
    let core_counts: &[usize] = flags.pick(&[1, 2, 4], &[1, 2, 4, 8]);

    let cfg = flags.config(SysMode::HybridCoherent);
    let rows = scaling_points(&kernels, core_counts, &cfg).expect("scaling sweep failed");

    println!(
        "SCALING: speedup vs cores per kernel ({scale:?} scale, {:?} coherence)",
        cfg.mem.coherence.mode
    );
    println!();
    print_table(&scaling_cols(), &rows);
    println!();

    // The 1-core point of every curve is exactly 1.0 by construction,
    // and the grid actually varies. Strict monotonicity only holds
    // below the memory-bandwidth knee (DRAM-bound kernels like CG and
    // IS degrade at high core counts on the single channel);
    // `figshapes` asserts the rising-curve shape on the grid where it
    // must hold.
    for r in rows.iter().filter(|((_, cores), _)| *cores == 1) {
        assert!(
            (scaling_speedup(r) - 1.0).abs() < 1e-12,
            "{}: 1-core speedup must be 1.0",
            r.0 .0.name
        );
    }
    assert!(
        rows.iter().any(|r| scaling_speedup(r) > 1.2),
        "someone must actually scale"
    );

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &scaling_cols(), &rows)
        .write("BENCH_scaling.json");
}
