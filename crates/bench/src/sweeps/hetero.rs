//! `hetero`: mixed hybrid/cache-based chips — tile ratios, LM-size
//! asymmetry and weighted shards.

use crate::shapes::{all_hybrid_is_homogeneous, mixed_chip_interpolates};
use crate::{grid, print_table, sweep, Col, Flags, SweepJson, Val};
use hsim::prelude::*;

/// One machine shape of the hetero sweep: a display label, the per-tile
/// configurations and the per-tile shard weights. Labels read `"3H+1C"`
/// (3 hybrid + 1 cache-based tile), `"4H lm/4x2"` (all hybrid, two tiles
/// at a quarter LM budget) or `"2H+2C w2:1"` (weighted shards).
pub type HeteroShape = (String, Vec<MachineConfig>, Vec<u64>);

/// A `hetero` point: `(kernel, shape)` and its run.
pub type HeteroRow<'k> = ((&'k Kernel, &'k HeteroShape), MultiRunReport);

/// The machine shapes of the hetero sweep at one core count: every
/// hybrid:cache ratio with even shards, an all-hybrid chip with half
/// the tiles at a quarter LM budget, and a weighted mixed chip whose
/// hybrid tiles take double iteration shares. Every tile runs the
/// inter-core protocol `cm`. The all-hybrid shape (`"4H+0C"`) is built
/// from default configurations, so it reproduces the homogeneous
/// sharded machine under `cm` bit for bit — the anchor the mixed shapes
/// are compared against.
pub fn hetero_shapes(cores: usize, cm: CoherenceProtocol) -> Vec<HeteroShape> {
    let hybrid = || MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
    let cache = || MachineConfig::for_mode(SysMode::CacheBased).with_coherence(cm);
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

/// Tiles of `cfgs` running a hybrid (LM + directory) memory system.
pub fn hybrid_tiles(cfgs: &[MachineConfig]) -> usize {
    let hybrid = |c: &&MachineConfig| !matches!(c.mode, SysMode::CacheBased);
    cfgs.iter().filter(hybrid).count()
}

/// Hybrid tiles of `cfgs` configured below the default LM budget.
pub fn small_lm_tiles(cfgs: &[MachineConfig]) -> usize {
    let default_lm = hsim_mem::LmConfig::default().size_bytes;
    let small = |c: &&MachineConfig| c.mem.lm.as_ref().is_some_and(|l| l.size_bytes < default_lm);
    cfgs.iter().filter(small).count()
}

/// Runs every kernel on every shape, one job per (kernel, shape);
/// shapes a kernel cannot shard to (indirect indexing, or a weight
/// starving a shard) are skipped.
pub fn hetero_points<'k>(
    kernels: &'k [Kernel],
    shapes: &'k [HeteroShape],
) -> Result<Vec<HeteroRow<'k>>, MultiRunError> {
    sweep(
        grid(kernels, shapes.iter()),
        |&(kernel, (_, cfgs, weights))| {
            let spec = RunSpec::new(kernel).hetero(cfgs.clone()).weights(weights);
            MultiRunError::skip_unshardable(spec.run().map(RunOutcome::into_multi))
        },
    )
}

/// Columns of the `hetero` sweep.
pub fn hetero_cols<'k>() -> Vec<Col<HeteroRow<'k>>> {
    type C<'k> = Col<HeteroRow<'k>>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1, counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("shape", 12, "shape", |((_, (label, ..)), _)| label.into()),
        C::json("hybrid_tiles", |((_, (_, cfgs, _)), _)| {
            hybrid_tiles(cfgs).into()
        }),
        C::json("small_lm_tiles", |((_, (_, cfgs, _)), _)| {
            small_lm_tiles(cfgs).into()
        }),
        C::json("weights", |((_, (.., weights)), _)| {
            let weights: Vec<String> = weights.iter().map(|w| w.to_string()).collect();
            Val::Json(format!("[{}]", weights.join(", ")))
        }),
        C::both("makespan", 10, "makespan", |(_, r)| r.makespan.into()),
        total("committed", 10, "committed", |c| c.committed),
        total("dramR", 10, "dram_reads", |c| c.dram_reads),
        total("buswait", 9, "bus_wait_cycles", |c| c.bus_wait_cycles),
        total("shrhits", 8, "shared_hits", |c| c.coh_shared_hits),
        C::both("replfall", 9, "replication_fallbacks", |(_, r)| {
            r.replication_fallbacks.into()
        }),
    ]
}

/// Heterogeneous-chip sweep: every NAS kernel on every machine shape of
/// [`hetero_shapes`] — all hybrid:cache tile ratios at one core count
/// (even shards), an all-hybrid chip with half the tiles at a quarter
/// LM budget, and a weighted mixed chip whose hybrid tiles take double
/// iteration shares.
pub fn hetero(flags: Flags) {
    let scale = flags.sweep_scale();
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let cores = 4;

    let shapes = hetero_shapes(cores, flags.coherence);
    let rows = hetero_points(&kernels, &shapes).expect("hetero sweep failed");

    println!("HETERO: mixed hybrid/cache chips, LM asymmetry, weighted shards ({scale:?} scale)");
    println!("(shape xH+yC = x hybrid + y cache-based tiles; lm/4xN = N tiles at a quarter LM)");
    println!();
    print_table(&hetero_cols(), &rows);
    println!();

    for k in &kernels {
        let run = |label: &str| {
            let row = rows
                .iter()
                .find(|((rk, (l, ..)), _)| rk.name == k.name && l == label);
            row.map(|(_, r)| r)
        };
        let (Some(all_h), Some(all_c)) =
            (run(&format!("{cores}H+0C")), run(&format!("0H+{cores}C")))
        else {
            continue; // kernel does not shard to this core count
        };

        // 1. The all-hybrid shape is the homogeneous machine, exactly.
        let homo = RunSpec::new(k)
            .cores(cores)
            .config(flags.config(SysMode::HybridCoherent))
            .run()
            .expect("homogeneous run")
            .into_multi();
        all_hybrid_is_homogeneous(&k.name, all_h.makespan, homo.makespan);
        assert_eq!(
            all_h.total(|c| c.committed),
            homo.total(|c| c.committed),
            "{}",
            k.name
        );

        // 2. Mixed ratios interpolate the endpoints.
        for h in 1..cores {
            let label = format!("{h}H+{}C", cores - h);
            if let Some(mix) = run(&label) {
                mixed_chip_interpolates(
                    &format!("{} {label}", k.name),
                    mix.makespan,
                    all_h.makespan,
                    all_c.makespan,
                );
            }
        }

        // 3. Weighted shards beat the even split on the mixed chip —
        //    but only where the weights actually match tile strength:
        //    the gate is the even split itself sitting well above the
        //    all-hybrid endpoint (the cache tiles are the long pole).
        //    On kernels where the even mixed chip already runs near
        //    the hybrid endpoint (compute-bound EP: per-tile speeds
        //    converge on the shared backside), a 2:1 split is the
        //    *wrong* weighting and legitimately loses.
        let h = cores - cores / 2;
        if let (Some(even), Some(weighted)) = (
            run(&format!("{h}H+{}C", cores - h)),
            run(&format!("{h}H+{}C w2:1", cores / 2)),
        ) {
            let (even, weighted) = (even.makespan, weighted.makespan);
            if even as f64 > all_h.makespan as f64 * 1.3 {
                assert!(
                    weighted < even,
                    "{}: 2:1 weights ({weighted}) must beat the even split ({even})",
                    k.name
                );
            }
        }
    }
    println!("hetero shapes OK (all-hybrid == homogeneous, mixed interpolates, weights help)");

    SweepJson::new(scale)
        .meta("cores", cores)
        .rows("rows", &hetero_cols(), &rows)
        .write("BENCH_hetero.json");
}
