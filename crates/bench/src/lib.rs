//! # hsim-bench — the experiment harness
//!
//! One binary, one subcommand per artefact of the paper's evaluation
//! and per sweep of the later tiers:
//!
//! ```text
//! cargo run --release -p hsim-bench -- <name> [--smoke|--test-scale] [--coherence <mode>]
//! ```
//!
//! | name | regenerates |
//! |---|---|
//! | `table1` | Table 1 — simulator configuration parameters |
//! | `table2` | Table 2 — microbenchmark scheme + emitted assembly |
//! | `table3` | Table 3 — memory-subsystem activity, hybrid vs cache-based |
//! | `fig7`   | Figure 7 — microbenchmark overhead vs % guarded |
//! | `fig8`   | Figure 8 — protocol overhead vs the incoherent oracle |
//! | `fig9`   | Figure 9 — execution-time reduction vs cache-based |
//! | `fig10`  | Figure 10 — energy reduction vs cache-based |
//! | `ablate` | design-choice ablations (store collapsing, directory latency, prefetcher table, DMA pipelining) |
//! | `backside` | DRAM row-hit rate and L3 bank contention per kernel × core count (`BENCH_backside.json`) |
//! | `scaling` | speedup-vs-cores curves per kernel with bus-wait breakdowns (`BENCH_scaling.json`) |
//! | `coherence` | the private-tables baseline vs `Mesi` side by side, then the protocol family — DRAM traffic, shared hits, invalidations, interventions, replication fallbacks (`BENCH_coherence.json`) |
//! | `hetero` | mixed hybrid/cache-based chips: tile ratios, LM-size asymmetry and weighted shards, with interpolation/identity assertions (`BENCH_hetero.json`) |
//! | `clusters` | hierarchical clusters: channels × clusters × cores, threaded runs asserted bit-identical to the serial oracle, cross-cluster replication fallbacks counted (`BENCH_clusters.json`) |
//! | `faults` | fault rate × kernel makespan-degradation curves with recovery counters, every point replayed same-seed and asserted bit-identical (`BENCH_faults.json`) |
//! | `comm` | communication workloads (ping-pong, queue, lock, barrier) hybrid vs cache-based plus the protocol family on the queue hand-off, and the open-loop request-serving latency report (`BENCH_comm.json`) |
//! | `figshapes` | no output files — asserts the monotonicity/ordering invariants of figures 7/8/9, the scaling curves, the mixed-chip interpolation and the protocol/communication orderings |
//! | `all` | every JSON-writing sweep, then `figshapes` — what CI runs with `--smoke` |
//!
//! `--test-scale` runs the small workloads; `--smoke` additionally
//! shrinks a sweep to its CI guard grid (the paper tables and figures
//! have no smaller grid and ignore it). `--coherence <mode>` selects the
//! inter-core protocol of every machine a run builds without naming one
//! (`msi`, `mesi` — the default — `moesi` or `mesif`; CI runs the smoke
//! grid once per protocol); the protocol sweeps still visit every
//! protocol. Nothing is read from the environment. Host speed is
//! measured by the repository benchmark (`benchmark/`), not here.
//!
//! Layout: every table, figure and sweep has one home, which builds its
//! grid, runs it through [`RunSpec`] and keeps `(axes, report)` pairs;
//! derived numbers (speedups, normalized times, ratios) are computed
//! where they are printed or asserted. [`figures`] holds the paper's
//! tables and figures, [`sweeps`] the JSON-writing sweeps (one module
//! each), [`shapes`] the shape invariants shared by the sweeps and
//! `figshapes`; this module holds what they share — the flags, the grid
//! runner [`sweep`], the [`Col`] declarations rendered to both the
//! printed table and [`SweepJson`], and the paper's reference values.

use hsim::parallel_map;
use hsim::prelude::*;
use hsim_workloads::nas;

pub mod figures;
pub mod shapes;
pub mod sweeps;

/// The command-line flags, parsed once by [`parse_args`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// `--smoke`: a sweep's minimal CI guard grid (at test scale).
    pub smoke: bool,
    /// `--test-scale`: the small workloads.
    pub test_scale: bool,
    /// `--coherence <mode>`: the inter-core protocol of the machines a
    /// run builds ([`Flags::config`]).
    pub coherence: CoherenceProtocol,
}

impl Flags {
    /// The standard `mode` machine under the `--coherence` protocol.
    pub fn config(&self, mode: SysMode) -> MachineConfig {
        MachineConfig::for_mode(mode).with_coherence(self.coherence)
    }

    /// The workload scale of a table or figure (no smoke grid).
    pub fn scale(&self) -> Scale {
        if self.test_scale {
            Scale::Test
        } else {
            Scale::Paper
        }
    }

    /// The workload scale of a sweep: `--smoke` implies test scale.
    pub fn sweep_scale(&self) -> Scale {
        if self.smoke {
            Scale::Test
        } else {
            self.scale()
        }
    }

    /// `smoke` under `--smoke`, `full` otherwise.
    pub fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The NAS kernels a sweep runs: all six at [`Flags::sweep_scale`],
    /// or only those named in `smoke` under `--smoke`.
    pub fn sweep_kernels(&self, smoke: &[&str]) -> Vec<hsim_compiler::Kernel> {
        let mut kernels = nas::all_nas(self.sweep_scale());
        if self.smoke {
            kernels.retain(|k| smoke.contains(&k.name.as_str()));
        }
        kernels
    }
}

/// The private-tables baseline of a sharded run: `shards` with every
/// [`ArrayDecl::shared`](hsim_compiler::ArrayDecl::shared) mark cleared,
/// so the machine registers none of the sharder's read-only tables with
/// the directory and each core caches private lines of them.
/// Communication arrays stay shared. Run through [`RunSpec::many`], it
/// is the reference the protocol sweeps and tests measure sharing
/// against; on NAS shards it reports the same under every protocol.
pub fn private_tables(mut shards: Vec<Kernel>) -> Vec<Kernel> {
    for decl in shards.iter_mut().flat_map(|k| &mut k.arrays) {
        decl.shared = false;
    }
    shards
}

/// `x / by` with `by` clamped to 1: every derived ratio a table prints
/// or a shape asserts (speedups, normalized times, overheads).
pub fn ratio(x: u64, by: u64) -> f64 {
    x as f64 / by.max(1) as f64
}

/// The cartesian grid `outer × inner`, outer-major.
pub fn grid<A: Copy, B>(
    outer: impl IntoIterator<Item = A>,
    inner: impl Iterator<Item = B> + Clone,
) -> Vec<(A, B)> {
    outer
        .into_iter()
        .flat_map(|a| inner.clone().map(move |b| (a, b)))
        .collect()
}

/// Runs `point` at every axes of `grid`, one [`parallel_map`] job per
/// point, and returns the `(axes, report)` pairs in grid order, leaving
/// out the points `point` skipped (`Ok(None)`: a kernel that does not
/// shard to the point). The first error in grid order fails the sweep.
/// Every point is deterministic and self-contained, so the results do
/// not depend on the host schedule.
pub fn sweep<A: Send, R: Send>(
    grid: Vec<A>,
    point: impl Fn(&A) -> Result<Option<R>, MultiRunError> + Sync,
) -> Result<Vec<(A, R)>, MultiRunError> {
    parallel_map(grid, |a| Ok(point(&a)?.map(|r| (a, r))))
        .into_iter()
        .filter_map(Result::transpose)
        .collect()
}

/// A subcommand's entry point.
pub type Run = fn(Flags);

/// One subcommand: its name and entry point.
pub type Command = (&'static str, Run);

/// The JSON-writing sweeps, in the order `all` runs them.
pub const SWEEPS: [Command; 7] = [
    ("backside", sweeps::backside),
    ("scaling", sweeps::scaling),
    ("coherence", sweeps::coherence),
    ("hetero", sweeps::hetero),
    ("clusters", sweeps::clusters),
    ("faults", sweeps::faults),
    ("comm", sweeps::comm),
];

/// Every subcommand, `all` last.
pub fn commands() -> Vec<Command> {
    let mut all: Vec<Command> = vec![
        ("table1", figures::table1),
        ("table2", figures::table2),
        ("table3", figures::table3),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
        ("ablate", figures::ablate),
    ];
    all.extend(SWEEPS);
    all.push(("figshapes", shapes::figshapes));
    all.push(("all", run_all));
    all
}

/// `all`: every JSON-writing sweep, then `figshapes`.
pub fn run_all(flags: Flags) {
    for (_, run) in SWEEPS {
        run(flags);
    }
    shapes::figshapes(flags);
}

/// Parses `<name> [--smoke|--test-scale|--coherence <mode>]...` (the
/// arguments after the program name). An unknown name, flag or
/// coherence mode is an error carrying the usage text with every valid
/// name.
pub fn parse_args(args: &[String]) -> Result<(Run, Flags), String> {
    let commands = commands();
    let usage = || {
        let names: Vec<&str> = commands.iter().map(|(n, _)| *n).collect();
        let modes = CoherenceProtocol::ALL.map(CoherenceProtocol::name);
        format!(
            "usage: hsim-bench <name> [--smoke|--test-scale] [--coherence <mode>]\n\
             names: {}\nmodes: {}",
            names.join(" "),
            modes.join(" ")
        )
    };
    let mut flags = Flags::default();
    let mut run = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => flags.smoke = true,
            "--test-scale" => flags.test_scale = true,
            "--coherence" => {
                let name = args.next().map_or("", String::as_str);
                flags.coherence = CoherenceProtocol::parse(name)
                    .map_err(|e| format!("--coherence: {e}\n{}", usage()))?;
            }
            name => match (commands.iter().find(|(n, _)| *n == name), run) {
                (Some((_, f)), None) => run = Some(*f),
                _ => return Err(format!("unexpected argument `{name}`\n{}", usage())),
            },
        }
    }
    let run = run.ok_or_else(usage)?;
    Ok((run, flags))
}

/// Paper-reported speedups for Figure 9 (cache-based / hybrid).
pub fn paper_speedup(name: &str) -> f64 {
    match name {
        "CG" => 1.34,
        "EP" => 1.00,
        "FT" => 1.30,
        "IS" => 1.55,
        "MG" => 1.64,
        "SP" => 1.66,
        _ => f64::NAN,
    }
}

/// Paper-reported Figure 8 execution-time overheads (percent).
pub fn paper_time_overhead(name: &str) -> f64 {
    match name {
        "FT" => 1.03,
        "IS" => 0.44,
        _ => 0.0,
    }
}

/// Paper-reported Figure 8 energy overheads (percent, approximate from
/// the figure).
pub fn paper_energy_overhead(name: &str) -> f64 {
    match name {
        "IS" => 5.0,
        _ => 1.5,
    }
}

/// Paper Table 3 rows: (guarded/total, AMAT, L1 hit %) per system.
pub fn paper_table3(name: &str) -> Option<(&'static str, f64, f64, f64, f64)> {
    // (guarded refs, hybrid AMAT, hybrid L1%, cache AMAT, cache L1%)
    Some(match name {
        "CG" => ("1/7 (14%)", 3.15, 90.52, 4.31, 82.23),
        "EP" => ("1/20 (5%)", 2.14, 99.93, 2.37, 98.93),
        "FT" => ("4/34 (11%)", 2.60, 96.61, 4.95, 78.54),
        "IS" => ("2/5 (25%)", 6.27, 74.00, 7.93, 64.10),
        "MG" => ("1/60 (1.66%)", 2.24, 99.71, 3.89, 90.65),
        "SP" => ("0/497 (0%)", 2.41, 98.37, 4.73, 79.59),
        _ => return None,
    })
}

/// A column's value for one row, before formatting.
pub enum Val {
    /// A count.
    Int(u64),
    /// A measurement, printed with the column's decimals (or `Display`
    /// when the column sets none).
    Float(f64),
    /// Text: raw in the table, quoted in JSON.
    Text(String),
    /// A pre-rendered JSON fragment (e.g. an array).
    Json(String),
}

impl Val {
    /// A pre-formatted text cell.
    pub fn text(s: impl std::fmt::Display) -> Self {
        Val::Text(s.to_string())
    }
}

impl From<u64> for Val {
    fn from(x: u64) -> Self {
        Val::Int(x)
    }
}

impl From<usize> for Val {
    fn from(x: usize) -> Self {
        Val::Int(x as u64)
    }
}

impl From<f64> for Val {
    fn from(x: f64) -> Self {
        Val::Float(x)
    }
}

impl From<&String> for Val {
    fn from(s: &String) -> Self {
        Val::Text(s.clone())
    }
}

/// How a column reads its value off a row.
enum Get<R> {
    /// Any function of the row.
    Row(fn(&R) -> Val),
    /// One [`RunReport`] counter summed over the cores of one of the
    /// row's reports.
    Total(fn(&R) -> &MultiRunReport, fn(&RunReport) -> u64),
}

/// One column of a result table, declared once: its accessor, and where
/// it appears — header and width in the printed table, key in the
/// `BENCH_*.json` rows, or both. Columns are listed in JSON order; the
/// table prints them in the same order unless [`Col::after`] moves one.
pub struct Col<R> {
    get: Get<R>,
    table: Option<(&'static str, usize)>,
    json: Option<&'static str>,
    /// Decimals of a [`Val::Float`] in the table and in JSON.
    decimals: Option<(usize, usize)>,
    suffix: &'static str,
    after: Option<&'static str>,
}

impl<R> Col<R> {
    fn new(table: Option<(&'static str, usize)>, json: Option<&'static str>, get: Get<R>) -> Self {
        Col {
            get,
            table,
            json,
            decimals: None,
            suffix: "",
            after: None,
        }
    }

    /// A column in both the printed table and the JSON rows.
    pub fn both(header: &'static str, width: usize, key: &'static str, get: fn(&R) -> Val) -> Self {
        Col::new(Some((header, width)), Some(key), Get::Row(get))
    }

    /// A column in both forms showing one [`RunReport`] counter summed
    /// over the cores of `report` — the only place a table names the
    /// counter it shows.
    pub fn total(
        header: &'static str,
        width: usize,
        key: &'static str,
        report: fn(&R) -> &MultiRunReport,
        counter: fn(&RunReport) -> u64,
    ) -> Self {
        Col::new(
            Some((header, width)),
            Some(key),
            Get::Total(report, counter),
        )
    }

    /// A column of the printed table only.
    pub fn table(header: &'static str, width: usize, get: fn(&R) -> Val) -> Self {
        Col::new(Some((header, width)), None, Get::Row(get))
    }

    /// A field of the JSON rows only.
    pub fn json(key: &'static str, get: fn(&R) -> Val) -> Self {
        Col::new(None, Some(key), Get::Row(get))
    }

    /// Decimals of a float value: `table` in the printed table, `json`
    /// in the artefact.
    pub fn decimals(mut self, table: usize, json: usize) -> Self {
        self.decimals = Some((table, json));
        self
    }

    /// A unit suffix appended to the table cell (e.g. `x`, `%`).
    pub fn suffix(mut self, suffix: &'static str) -> Self {
        self.suffix = suffix;
        self
    }

    /// Prints this column right after the column headed `header` in the
    /// table (its JSON position is unchanged).
    pub fn after(mut self, header: &'static str) -> Self {
        self.after = Some(header);
        self
    }

    fn render(&self, row: &R, json: bool) -> String {
        let val = match self.get {
            Get::Row(get) => get(row),
            Get::Total(report, counter) => report(row).total(counter).into(),
        };
        match val {
            Val::Int(x) => format!("{x}"),
            Val::Float(x) => match self.decimals {
                Some((t, j)) => format!("{x:.*}", if json { j } else { t }),
                None => format!("{x}"),
            },
            Val::Text(s) if json => jstr(s),
            Val::Text(s) | Val::Json(s) => s,
        }
    }
}

/// The table columns of `cols`, in print order.
fn table_order<R>(cols: &[Col<R>]) -> Vec<&Col<R>> {
    let shown = || cols.iter().filter(|c| c.table.is_some());
    let mut order: Vec<&Col<R>> = shown().filter(|c| c.after.is_none()).collect();
    for c in shown() {
        if let Some(prev) = c.after {
            let at = order
                .iter()
                .position(|o| o.table.is_some_and(|(h, _)| h == prev))
                .unwrap_or_else(|| panic!("column placed after unknown header `{prev}`"));
            order.insert(at + 1, c);
        }
    }
    order
}

/// The headers of the table `cols` prints, in print order.
pub fn table_headers<R>(cols: &[Col<R>]) -> Vec<&'static str> {
    table_order(cols)
        .iter()
        .map(|c| c.table.expect("table column").0)
        .collect()
}

/// The keys of the JSON rows `cols` renders, in order.
pub fn json_keys<R>(cols: &[Col<R>]) -> Vec<&'static str> {
    cols.iter().filter_map(|c| c.json).collect()
}

/// One row's JSON object: one field per JSON column of `cols`, as
/// [`SweepJson::rows`] writes it into a `BENCH_*.json`.
pub fn json_row<R>(cols: &[Col<R>], row: &R) -> String {
    let body: Vec<String> = cols
        .iter()
        .filter_map(|c| Some(format!("\"{}\": {}", c.json?, c.render(row, true))))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the header, a separator and one line per row. Returns the
/// printer so callers can append summary rows.
pub fn print_table<R>(cols: &[Col<R>], rows: &[R]) -> Table {
    let order = table_order(cols);
    let widths: Vec<usize> = order.iter().map(|c| c.table.expect("table").1).collect();
    let t = Table::new(&widths);
    t.row(&table_headers(cols));
    t.sep();
    for r in rows {
        t.row(&table_cells(cols, r));
    }
    t
}

/// One row's table cells, in print order.
pub fn table_cells<R>(cols: &[Col<R>], row: &R) -> Vec<String> {
    table_order(cols)
        .iter()
        .map(|c| c.render(row, false) + c.suffix)
        .collect()
}

/// Simple fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a printer with the given column widths.
    pub fn new(widths: &[usize]) -> Self {
        Table {
            widths: widths.to_vec(),
        }
    }

    /// Prints one row; `cells` must hold one cell per column.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        assert_eq!(cells.len(), self.widths.len(), "one cell per column");
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:>w$}  ", c.as_ref(), w = w));
        }
        println!("{}", line.trim_end());
    }

    /// Prints a separator line.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}

/// Quotes a display value as a JSON string.
pub fn jstr(s: impl std::fmt::Display) -> String {
    format!("\"{s}\"")
}

/// The one JSON document shape every sweep emits (hand-rendered; no
/// serde in the offline tree): flat metadata fields followed by one or
/// more named row arrays. Keeping the rendering here means every
/// `BENCH_*.json` file indents, separates and terminates identically —
/// the CI artifact parsers rely on that.
pub struct SweepJson {
    meta: Vec<(String, String)>,
    arrays: Vec<(String, Vec<String>)>,
}

impl SweepJson {
    /// Starts a document carrying the workload scale every sweep runs
    /// at.
    pub fn new(scale: Scale) -> Self {
        SweepJson {
            meta: vec![("scale".into(), jstr(format!("{scale:?}")))],
            arrays: Vec::new(),
        }
    }

    /// Adds a metadata field; `value` must already be a JSON fragment
    /// (use [`jstr`] for strings).
    pub fn meta(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.meta.push((key.into(), value.to_string()));
        self
    }

    /// Appends the row array `name`: one object per row, one field per
    /// JSON column of `cols`.
    pub fn rows<R>(mut self, name: &str, cols: &[Col<R>], rows: &[R]) -> Self {
        let rendered = rows
            .iter()
            .map(|r| format!("    {}", json_row(cols, r)))
            .collect();
        self.arrays.push((name.into(), rendered));
        self
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (k, v) in &self.meta {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        }
        for (a, (name, rows)) in self.arrays.iter().enumerate() {
            out.push_str(&format!("  \"{name}\": [\n"));
            out.push_str(&rows.join(",\n"));
            out.push('\n');
            out.push_str(if a + 1 == self.arrays.len() {
                "  ]\n"
            } else {
                "  ],\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Writes the document to `path` and prints the standard
    /// `wrote <path> (<n> rows)` line.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        let rows: usize = self.arrays.iter().map(|(_, r)| r.len()).sum();
        println!("wrote {path} ({rows} rows)");
    }
}
