//! The four workloads: which points make one pass of each, and why.
//!
//! Every machine configuration pins its inter-core coherence mode with
//! `with_coherence`; nothing is inherited from `HSIM_COHERENCE`.

use crate::points::{Point, Shape};
use crate::stats::Rng;
use hsim::cluster::ClusterTopology;
use hsim::compiler::{Expr, Kernel, KernelBuilder};
use hsim::core::config::CoherenceMode;
use hsim::machine::{MachineConfig, SysMode};
use hsim::workloads::{self as w, Scale};

/// One workload: a name, the reason it is in the benchmark, and the
/// points of one pass.
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    /// Builds the points of one pass for `(scale, seed)`.
    pub points: fn(Scale, u64) -> Vec<Point>,
}

/// Every workload, in the order they are reported.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nas_busy_1c",
        why: "compute-bound EP and MG on one hybrid tile: host time is Core::tick plus the L1/LM-hit path; backside, DRAM and scheduler nearly idle",
        points: nas_busy_1c,
    },
    Workload {
        name: "nas_membound_4c",
        why: "streaming FT and a seeded 16 MiB random gather on 4 cache-based cores under MESI: horizon heap, advance_to, backside, DRAM, PagedMem",
        points: nas_membound_4c,
    },
    Workload {
        name: "comm_dir_4c",
        why: "write-sharing on 4 tiles under MSI/MESI/MOESI/MESIF plus request serving: invalidations, interventions and DirLine steps while DRAM idles",
        points: comm_dir_4c,
    },
    Workload {
        name: "clusters_2x8",
        why: "CG, FT and EP sharded over 2 clusters of 8 hybrid cores on the serial epoch driver: 16-way shard+compile, run_until chunking, epoch loop",
        points: clusters_2x8,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn cfg(mode: SysMode, cm: CoherenceMode) -> MachineConfig {
    MachineConfig::for_mode(mode).with_coherence(cm)
}

fn nas_point(kernel: fn(Scale) -> Kernel, scale: Scale, cfg: MachineConfig, shape: Shape) -> Point {
    let probe = kernel(Scale::Test).name;
    Point {
        name: format!("{probe}/{}", cfg.mode.name()),
        gen: Box::new(move || vec![kernel(scale)]),
        cfg,
        shape,
    }
}

fn nas_busy_1c(scale: Scale, _seed: u64) -> Vec<Point> {
    [w::ep, w::mg]
        .into_iter()
        .map(|k| {
            nas_point(
                k,
                scale,
                cfg(SysMode::HybridCoherent, CoherenceMode::Mesi),
                Shape::Single,
            )
        })
        .collect()
}

/// Elements of the gathered table at each scale: 16 MiB of `f64` at
/// `Paper` (4× the 4 MiB L3), 128 KiB at `Test`.
pub fn gather_table_len(scale: Scale) -> u64 {
    scale.pick(16 * 1024, 2 * 1024 * 1024)
}

/// `y[i] += a[i] * x[idx[i]]` with `idx` uniform over a table four
/// times the L3, drawn from `seed`: nearly every gather misses to DRAM
/// on a random row, which no NAS kernel's banded or strided indices do.
pub fn seeded_gather(scale: Scale, seed: u64) -> Kernel {
    let n = scale.pick(4 * 1024, 48 * 1024);
    let table_len = gather_table_len(scale);
    let mut r = Rng::new(seed, 0x6A7);
    let idx: Vec<i64> = (0..n).map(|_| r.below(table_len) as i64).collect();
    let table: Vec<f64> = (0..table_len).map(|_| r.unit_f64()).collect();
    let coeff: Vec<f64> = (0..n).map(|_| r.unit_f64()).collect();
    let mut kb = KernelBuilder::new("seeded_gather");
    let a = kb.array_f64_init("a", &coeff);
    let ix = kb.array_i64_init("idx", &idx);
    let x = kb.array_f64_init("x", &table);
    let y = kb.array_f64("y", n);
    kb.begin_loop(n);
    let ra = kb.ref_affine(a, 1, 0);
    let ri = kb.ref_affine(ix, 1, 0);
    let rx = kb.ref_indirect(x, ri, 0);
    let ry = kb.ref_affine(y, 1, 0);
    kb.stmt(
        ry,
        Expr::add(Expr::Ref(ry), Expr::mul(Expr::Ref(ra), Expr::Ref(rx))),
    );
    kb.end_loop();
    kb.build().expect("seeded_gather kernel")
}

fn nas_membound_4c(scale: Scale, seed: u64) -> Vec<Point> {
    let cache = || cfg(SysMode::CacheBased, CoherenceMode::Mesi);
    let mut points = vec![nas_point(w::ft, scale, cache(), Shape::Sharded(4))];
    points.push(Point {
        name: "seeded_gather/cache".into(),
        gen: Box::new(move || vec![seeded_gather(scale, seed)]),
        cfg: cache(),
        shape: Shape::Sharded(4),
    });
    points
}

fn comm_point(family: &'static str, scale: Scale, mode: SysMode, cm: CoherenceMode) -> Point {
    let build = move || match family {
        "pingpong" => w::ping_pong(scale, 4),
        "queue" => w::queue(scale, 4, 64),
        "lock" => w::lock(scale, 4),
        "barrier" => w::barrier(scale, 4),
        other => unreachable!("unknown comm family {other}"),
    };
    Point {
        name: format!("{family}/{}/{}", mode.name(), cm.name()),
        gen: Box::new(move || build().kernels),
        cfg: cfg(mode, cm),
        shape: Shape::PerCore,
    }
}

fn comm_dir_4c(scale: Scale, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    // Queue (dirty payload hand-off) and lock (one contended word) are
    // where the four protocols' tables differ; ping-pong and barrier
    // behave alike under all four, so they run under MESI only.
    for cm in CoherenceMode::DIRECTORY {
        for family in ["queue", "lock"] {
            points.push(comm_point(family, scale, SysMode::CacheBased, cm));
        }
    }
    for family in ["pingpong", "barrier"] {
        points.push(comm_point(
            family,
            scale,
            SysMode::CacheBased,
            CoherenceMode::Mesi,
        ));
    }
    // Hybrid tiles hand payloads over LM+DMA and keep only flags in the
    // coherent caches. Hybrid `lock` deadlocks at Paper scale (see the
    // README's known failure) and is probed separately.
    for family in ["pingpong", "queue"] {
        points.push(comm_point(
            family,
            scale,
            SysMode::HybridCoherent,
            CoherenceMode::Mesi,
        ));
    }
    points.push(Point {
        name: "serve/cache".into(),
        gen: Box::new(Vec::new),
        // `request_serving` builds its own default configuration for the
        // mode; `main` sets HSIM_COHERENCE=mesi so that default is fixed.
        cfg: MachineConfig::for_mode(SysMode::CacheBased),
        shape: Shape::Serving {
            scale,
            cores: 4,
            seed,
            load_permille: 700,
        },
    });
    points
}

fn clusters_2x8(scale: Scale, _seed: u64) -> Vec<Point> {
    [w::cg, w::ft, w::ep]
        .into_iter()
        .map(|k| {
            nas_point(
                k,
                scale,
                cfg(SysMode::HybridCoherent, CoherenceMode::Mesi),
                Shape::Clustered(ClusterTopology::new(2, 8)),
            )
        })
        .collect()
}

/// The known failure kept out of the timed set: `lock` on four
/// hybrid-coherent tiles at `Paper` scale, under protocol `cm`.
pub fn hybrid_lock_probe(cm: CoherenceMode) -> Point {
    comm_point("lock", Scale::Paper, SysMode::HybridCoherent, cm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_inputs_follow_the_seed() {
        let a = seeded_gather(Scale::Test, 1);
        let b = seeded_gather(Scale::Test, 1);
        let c = seeded_gather(Scale::Test, 2);
        assert_eq!(a.init, b.init, "same seed, same inputs");
        assert_ne!(a.init[1], c.init[1], "another seed, another index stream");
        let bound = gather_table_len(Scale::Test);
        assert!(a.init[1].iter().all(|&i| i < bound));
    }

    #[test]
    fn serving_point_carries_the_seed() {
        let seeds: Vec<u64> = [5u64, 6]
            .iter()
            .map(|&s| {
                match comm_dir_4c(Scale::Test, s)
                    .last()
                    .expect("serving point")
                    .shape
                {
                    Shape::Serving { seed, .. } => seed,
                    ref other => panic!("last comm point is {other:?}"),
                }
            })
            .collect();
        assert_eq!(seeds, [5, 6]);
    }

    #[test]
    fn workload_and_point_names_are_plain_and_unique() {
        let mut names = std::collections::BTreeSet::new();
        for wl in &WORKLOADS {
            assert!(crate::metrics::is_plain_name(wl.name), "{}", wl.name);
            assert!(wl.why.len() <= 200 && !wl.why.contains('\n'));
            assert!(names.insert(wl.name));
            let points = (wl.points)(Scale::Test, 1);
            let mut seen = std::collections::BTreeSet::new();
            for p in &points {
                assert!(seen.insert(p.name.clone()), "duplicate point {}", p.name);
            }
        }
        assert!(find("comm_dir_4c").is_some());
        assert!(find("nope").is_none());
    }
}
