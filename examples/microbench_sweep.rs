//! The Figure 7 sweep as a runnable example: prints the overhead of the
//! RD / WR / RD+WR microbenchmark modes for every guarded-reference
//! percentage, as a small ASCII chart.
//!
//! ```text
//! cargo run --release --example microbench_sweep
//! ```

use hsim::prelude::*;

fn main() {
    let pts = fig7(16 * 1024, 10).expect("simulation");
    println!("Figure 7 — overhead vs %% guarded (x = RD, o = WR, * = RD/WR)\n");
    let ymax = pts.iter().map(|p| p.overhead).fold(1.0, f64::max) * 1.05;
    for row in (0..12).rev() {
        let lo = 0.95 + (ymax - 0.95) * row as f64 / 12.0;
        let hi = 0.95 + (ymax - 0.95) * (row + 1) as f64 / 12.0;
        let mut line = format!("{:5.2} |", lo);
        for pct in (0..=100).step_by(10) {
            let mut ch = ' ';
            for p in pts.iter().filter(|p| p.pct == pct) {
                if p.overhead >= lo && p.overhead < hi {
                    ch = match p.mode {
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
    println!("\n                         %% of guarded references");
}
