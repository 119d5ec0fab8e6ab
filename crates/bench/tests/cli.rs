//! The `hsim-bench` driver: name resolution, the `--coherence` flag,
//! the usage error, the environment's irrelevance, the artefact schema
//! pinned against the committed `BENCH_*.json` files, and the
//! one-cell-per-column rule of every table.

use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::prelude::*;
use hsim_bench::{
    commands, figures, json_keys, parse_args, sweeps, table_cells, table_headers, Col, Flags,
};
use std::process::{Command, Stdio};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_subcommand_name_resolves() {
    let names: Vec<&str> = commands().iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "table1",
            "table2",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablate",
            "backside",
            "scaling",
            "coherence",
            "hetero",
            "clusters",
            "faults",
            "comm",
            "figshapes",
            "all"
        ]
    );
    for name in names {
        let (_, flags) = parse_args(&args(&[name])).expect(name);
        assert_eq!(flags, Flags::default());
        let (_, flags) = parse_args(&args(&["--smoke", name, "--test-scale"])).expect(name);
        assert!(flags.smoke && flags.test_scale);
    }
    // `--coherence` selects the protocol of every machine a run builds;
    // the default is `Mesi`.
    assert_eq!(Flags::default().coherence, CoherenceProtocol::Mesi);
    for mode in CoherenceProtocol::ALL {
        let (_, flags) = parse_args(&args(&["scaling", "--coherence", mode.name()])).unwrap();
        assert_eq!(flags.coherence, mode);
        let cfg = flags.config(SysMode::CacheBased);
        assert_eq!(
            (cfg.mode, cfg.mem.coherence.mode),
            (SysMode::CacheBased, mode)
        );
    }
}

#[test]
fn flags_pick_the_grid_and_paper_values_cover_every_kernel() {
    let smoke = Flags {
        smoke: true,
        ..Flags::default()
    };
    assert_eq!(smoke.sweep_scale(), Scale::Test);
    assert_eq!(smoke.scale(), Scale::Paper, "figures have no smoke grid");
    let names: Vec<String> = smoke
        .sweep_kernels(&["IS", "CG"])
        .into_iter()
        .map(|k| k.name)
        .collect();
    assert_eq!(names, ["CG", "IS"]);
    let test_scale = Flags {
        test_scale: true,
        ..Flags::default()
    };
    for k in test_scale.sweep_kernels(&[]) {
        assert!(hsim_bench::paper_speedup(&k.name).is_finite());
        assert!(hsim_bench::paper_table3(&k.name).is_some());
    }
    assert!(hsim_bench::paper_speedup("XX").is_nan());
}

/// The process environment never changes a run: the same sweeps under
/// `HSIM_COHERENCE` (a protocol knob that predates `--coherence`)
/// unset, set to a real mode and set to garbage must all succeed and
/// write byte-identical tables and artefacts.
#[test]
fn the_environment_does_not_change_a_run() {
    let root = std::env::temp_dir().join(format!("hsim-bench-env-{}", std::process::id()));
    let legs: [Option<&str>; 3] = [None, Some("mesi"), Some("bogus")];
    let outputs: Vec<Vec<(String, Vec<u8>)>> = legs
        .iter()
        .map(|leg| {
            let dir = root.join(leg.unwrap_or("unset"));
            std::fs::create_dir_all(&dir).unwrap();
            // Both sweeps of a leg, spawned together; legs run in turn.
            let children = ["scaling", "hetero"].map(|name| {
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_hsim-bench"));
                cmd.args([name, "--smoke"])
                    .current_dir(&dir)
                    .stdout(Stdio::piped());
                match leg {
                    Some(v) => cmd.env("HSIM_COHERENCE", v),
                    None => cmd.env_remove("HSIM_COHERENCE"),
                };
                (name, cmd.spawn().expect("spawn hsim-bench"))
            });
            let mut files = Vec::new();
            for (name, child) in children {
                let out = child.wait_with_output().unwrap();
                assert!(out.status.success(), "{name} under {leg:?}");
                files.push((format!("{name} stdout"), out.stdout));
                let json = format!("BENCH_{name}.json");
                files.push((json.clone(), std::fs::read(dir.join(&json)).unwrap()));
            }
            files
        })
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    for (leg, files) in legs.iter().zip(&outputs).skip(1) {
        for ((name, got), (_, want)) in files.iter().zip(&outputs[0]) {
            assert!(got == want, "{name} differs under HSIM_COHERENCE={leg:?}");
        }
    }
}

#[test]
fn unknown_names_and_flags_are_usage_errors_listing_every_name() {
    for bad in [
        &["fig11"][..],
        &["fig9", "--profile"],
        &["fig9", "fig10"],
        &["--smoke"],
        &[],
        &["scaling", "--coherence", "nope"],
        &["scaling", "--coherence", "replicate"],
        &["scaling", "--coherence"],
    ] {
        let usage = parse_args(&args(bad)).expect_err("must be rejected");
        for (name, _) in commands() {
            assert!(usage.contains(name), "{bad:?}: usage must list {name}");
        }
        assert!(
            usage.contains("\nmodes: msi mesi moesi mesif"),
            "{bad:?}: usage must list the four protocols: {usage}"
        );
    }
    // The binary turns the error into a non-zero exit with the usage on
    // stderr, and runs nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_hsim-bench"))
        .args(["simspeed", "--smoke"])
        .output()
        .expect("spawn hsim-bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("simspeed") && stderr.contains("names: table1 table2"));
}

#[test]
fn static_tables_run_through_the_binary() {
    for name in ["table1", "table2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsim-bench"))
            .arg(name)
            .output()
            .expect("spawn hsim-bench");
        assert!(out.status.success(), "{name}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("TABLE"));
    }
}

/// The keys of the first row object of array `array` in a committed
/// `BENCH_*.json` (one row per line, as `SweepJson` renders them).
fn committed_keys(file: &str, array: &str) -> Vec<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let row = text
        .lines()
        .skip_while(|l| l.trim() != format!("\"{array}\": ["))
        .nth(1)
        .unwrap_or_else(|| panic!("{file}: no `{array}` rows"));
    // Keys are the quoted identifiers directly followed by a colon.
    let mut keys = Vec::new();
    let mut rest = row;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let end = tail.find('"').expect("closing quote");
        if tail[end + 1..].starts_with(':') {
            keys.push(tail[..end].to_string());
        }
        rest = &tail[end + 1..];
    }
    keys
}

#[test]
fn column_declarations_match_the_committed_artefact_schemas() {
    fn check<R>(file: &str, array: &str, cols: Vec<Col<R>>) {
        assert_eq!(json_keys(&cols), committed_keys(file, array), "{file}");
    }
    check("BENCH_backside.json", "rows", sweeps::backside_cols());
    check("BENCH_scaling.json", "rows", sweeps::scaling_cols());
    check("BENCH_coherence.json", "rows", sweeps::coherence_cols());
    check(
        "BENCH_coherence.json",
        "protocol_rows",
        sweeps::protocol_cols(),
    );
    check("BENCH_hetero.json", "rows", sweeps::hetero_cols());
    check("BENCH_clusters.json", "rows", sweeps::clusters_cols());
    check("BENCH_faults.json", "rows", sweeps::faults_cols());
    check("BENCH_comm.json", "rows", sweeps::comm_cols());
    check(
        "BENCH_comm.json",
        "request_serving",
        sweeps::request_serving_cols(),
    );
}

#[test]
fn every_table_renders_one_cell_per_header() {
    fn check<R>(cols: Vec<Col<R>>, row: R, headers: usize) {
        assert_eq!(table_headers(&cols).len(), headers);
        assert_eq!(table_cells(&cols, &row).len(), headers);
    }
    // Every row pairs its axes with a report; one tiny real run of each
    // machine shape fills them all.
    let mut kb = KernelBuilder::new("axpy");
    let a = kb.array_f64("a", 256);
    kb.begin_loop(256);
    let ra = kb.ref_affine(a, 1, 0);
    kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::ConstF(1.0)));
    kb.end_loop();
    let kernel = kb.build().unwrap();
    let single = RunSpec::new(&kernel).run().unwrap().into_single();
    let spec = RunSpec::new(&kernel).cores(2);
    let report = spec.clone().run().unwrap().into_multi();
    let topo = ClusterTopology::new(1, 2);
    let clustered = spec
        .clustered(&ClusterConfig::new(topo))
        .run()
        .unwrap()
        .into_clusters();
    let pair = || [single.clone(), single.clone()];
    check(figures::fig7_cols(), ((MicroMode::Wr, 50), pair()), 4);
    check(figures::fig8_cols(), (&kernel, pair()), 5);
    check(figures::fig9_cols(), (&kernel, pair()), 8);
    check(figures::fig10_cols(), (&kernel, pair()), 7);
    let multi_pair = || [report.clone(), report.clone()];
    check(sweeps::backside_cols(), ((&kernel, 2), report.clone()), 10);
    check(sweeps::scaling_cols(), ((&kernel, 2), multi_pair()), 9);
    check(sweeps::coherence_cols(), ((&kernel, 2), multi_pair()), 11);
    check(
        sweeps::protocol_cols(),
        ((&kernel, 2, Some(CoherenceProtocol::Mesi)), report.clone()),
        8,
    );
    let shape = sweeps::hetero_shapes(2, CoherenceProtocol::Msi).remove(0);
    check(
        sweeps::hetero_cols(),
        ((&kernel, &shape), report.clone()),
        8,
    );
    check(sweeps::clusters_cols(), ((&kernel, topo, 1), clustered), 7);
    check(sweeps::faults_cols(), ((&kernel, 0.0), multi_pair()), 9);
    check(
        sweeps::comm_cols(),
        (
            ("queue", 2, SysMode::HybridCoherent, CoherenceProtocol::Msi),
            (report, 1),
        ),
        11,
    );
}

#[test]
#[should_panic(expected = "one cell per column")]
fn a_row_with_the_wrong_cell_count_is_rejected() {
    hsim_bench::Table::new(&[4, 4]).row(&["a", "b", "c"]);
}
