//! The Figure 7 sweep as a runnable example: prints the overhead of the
//! RD / WR / RD+WR microbenchmark modes for every guarded-reference
//! percentage, as a small ASCII chart.
//!
//! ```text
//! cargo run --release -p hsim-bench --example microbench_sweep
//! ```

use hsim::prelude::*;
use hsim_bench::figures::{fig7_points, overhead};

fn main() {
    let pts = fig7_points(16 * 1024, 10).expect("simulation");
    println!("Figure 7 — overhead vs % guarded (x = RD, o = WR, * = RD/WR)\n");
    let ymax = pts.iter().map(overhead).fold(1.0, f64::max) * 1.05;
    for row in (0..12).rev() {
        let lo = 0.95 + (ymax - 0.95) * row as f64 / 12.0;
        let hi = 0.95 + (ymax - 0.95) * (row + 1) as f64 / 12.0;
        let mut line = format!("{:5.2} |", lo);
        for pct in (0..=100).step_by(10) {
            let mut ch = ' ';
            for p @ ((mode, _), _) in pts.iter().filter(|((_, p), _)| *p == pct) {
                if overhead(p) >= lo && overhead(p) < hi {
                    ch = match mode {
                        MicroMode::Rd => 'x',
                        MicroMode::Wr => {
                            if ch == '*' {
                                '*'
                            } else {
                                'o'
                            }
                        }
                        MicroMode::RdWr => '*',
                        MicroMode::Baseline => ch,
                    };
                }
            }
            line.push_str(&format!("  {ch}  "));
        }
        println!("{line}");
    }
    println!("      +{}", "-".repeat(5 * 11));
    print!("       ");
    for pct in (0..=100).step_by(10) {
        print!("{:^5}", pct);
    }
    println!("\n                         % of guarded references");
}
