//! The committed `BENCH_*.json` artefacts as goldens: for each of the
//! seven files, re-derive its cheapest rows in-process — same driver,
//! same `*_cols()` declaration — and require the rendered JSON objects
//! to equal the committed lines. "Every BENCH row
//! must survive a refactor" is a test, not a manual diff.

use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::prelude::*;
use hsim_bench::sweeps;
use hsim_bench::{json_row, Col};
use hsim_workloads::nas;

fn committed(file: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The value of the top-level metadata field `key` of a committed file.
fn meta(file: &str, key: &str) -> String {
    let text = committed(file);
    let field = format!("  \"{key}\": ");
    let line = text.lines().find(|l| l.starts_with(&field));
    let value = &line.unwrap_or_else(|| panic!("{file}: no `{key}`"))[field.len()..];
    value.trim_end_matches(',').trim_matches('"').to_string()
}

/// Asserts that `rows`, rendered through `cols`, are the committed rows
/// `first..` of `array` in `file`.
fn assert_rows<R>(file: &str, array: &str, first: usize, cols: &[Col<R>], rows: &[R]) {
    assert_eq!(meta(file, "scale"), "Test", "{file}: recorded scale");
    let text = committed(file);
    let want: Vec<&str> = text
        .lines()
        .skip_while(|l| l.trim() != format!("\"{array}\": ["))
        .skip(1 + first)
        .take(rows.len())
        .map(|l| l.trim().trim_end_matches(','))
        .collect();
    assert_eq!(want.len(), rows.len(), "{file}: `{array}` is too short");
    for (i, (row, want)) in rows.iter().zip(want).enumerate() {
        assert_eq!(
            json_row(cols, row),
            want,
            "{file}: `{array}` row {}",
            first + i
        );
    }
}

/// The artefacts were recorded under `hsim-bench`'s default
/// `--coherence mesi`, so every driver here runs the default protocol.
#[test]
fn committed_artefacts_reproduce_their_cheapest_rows() {
    let cm = CoherenceProtocol::default();
    let mode = SysMode::HybridCoherent;
    let cfg = MachineConfig::for_mode(mode).with_coherence(cm);
    let cg = [nas::cg(Scale::Test)];
    let ep = [nas::ep(Scale::Test)];

    // CG on one core is row 0 of the three per-kernel × per-core grids.
    let rows = sweeps::backside_points(&cg, &[1], &cfg).unwrap();
    assert_rows(
        "BENCH_backside.json",
        "rows",
        0,
        &sweeps::backside_cols(),
        &rows,
    );

    let rows = sweeps::scaling_points(&cg, &[1], &cfg).unwrap();
    assert_rows(
        "BENCH_scaling.json",
        "rows",
        0,
        &sweeps::scaling_cols(),
        &rows,
    );

    let proto = sweeps::protocol_points(&cg, &[1], mode).unwrap();
    assert_rows(
        "BENCH_coherence.json",
        "rows",
        0,
        &sweeps::coherence_cols(),
        &sweeps::coherence_view(&proto),
    );
    assert_rows(
        "BENCH_coherence.json",
        "protocol_rows",
        0,
        &sweeps::protocol_cols(),
        &proto,
    );

    // EP (the shortest kernel) on every 4-core shape: rows 7..14.
    let shapes = sweeps::hetero_shapes(4, cm);
    let rows = sweeps::hetero_points(&ep, &shapes).unwrap();
    assert_eq!(rows.len(), 7);
    assert_rows(
        "BENCH_hetero.json",
        "rows",
        7,
        &sweeps::hetero_cols(),
        &rows,
    );

    // CG on 1 cluster x 4 cores, one DRAM channel: row 0.
    let topo = ClusterTopology::new(1, 4);
    let report = RunSpec::new(&cg[0])
        .clustered(&ClusterConfig::new(topo))
        .config(cfg.clone())
        .run()
        .unwrap()
        .into_clusters();
    assert_rows(
        "BENCH_clusters.json",
        "rows",
        0,
        &sweeps::clusters_cols(),
        &[((&cg[0], topo, 1), report)],
    );

    // CG on 4 cores at the highest fault rate (every recovery counter
    // is non-zero there): row 5. Its fault-free run only feeds the
    // printed `degr` column, so the run itself stands in for it.
    let seed = meta("BENCH_faults.json", "seed").parse().unwrap();
    let report = RunSpec::new(&cg[0])
        .cores(4)
        .config(cfg.with_faults(FaultConfig::uniform(seed, 0.2)))
        .run()
        .unwrap()
        .into_multi();
    assert_rows(
        "BENCH_faults.json",
        "rows",
        5,
        &sweeps::faults_cols(),
        &[((&cg[0], 0.2), [report.clone(), report])],
    );

    // Every comm family and request serving on 2 cores: rows 0..11 and
    // 0..2.
    let rows = sweeps::comm_points(Scale::Test, &[2], cm).unwrap();
    assert_eq!(rows.len(), 11);
    assert_rows("BENCH_comm.json", "rows", 0, &sweeps::comm_cols(), &rows);
    let seed = meta("BENCH_comm.json", "seed").parse().unwrap();
    let load = meta("BENCH_comm.json", "load_permille").parse().unwrap();
    let reports = sweeps::request_serving_points(Scale::Test, &[2], cm, seed, load).unwrap();
    assert_rows(
        "BENCH_comm.json",
        "request_serving",
        0,
        &sweeps::request_serving_cols(),
        &reports,
    );
}
