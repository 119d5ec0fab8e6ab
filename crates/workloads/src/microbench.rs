//! The Table 2 microbenchmark.
//!
//! The paper's microbenchmark is a loop of load / add / store sequences
//! (`a[i+1] = a[i] + c`) that can be configured in four modes:
//!
//! * **Baseline** — no reference is assumed potentially incoherent.
//! * **RD** — the read `a[i]` is potentially incoherent: a guarded load
//!   is emitted.
//! * **WR** — the write `a[i+1]` is potentially incoherent and no
//!   write-back can be guaranteed: the double store is emitted.
//! * **RD/WR** — both.
//!
//! "To model all possible scenarios in terms of the ratio of accesses
//! that are potentially incoherent, the percentage of memory operations
//! that need to be guarded can also be adjusted" — we realize the
//! percentage with ten independent chains (ten arrays, one statement
//! each); guarding k of them gives k×10 %. Multiple chains also keep the
//! loop throughput-bound (as the paper's 4-wide x86 core is), so the WR
//! overhead reflects the extra instructions of the double store rather
//! than a single serial forwarding chain.

use hsim_compiler::{Expr, Kernel, KernelBuilder};

/// Microbenchmark mode (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroMode {
    /// No guarded references.
    Baseline,
    /// Guarded loads.
    Rd,
    /// Guarded (double) stores.
    Wr,
    /// Both.
    RdWr,
}

impl MicroMode {
    /// Display name used in Figure 7.
    pub fn name(self) -> &'static str {
        match self {
            MicroMode::Baseline => "Baseline",
            MicroMode::Rd => "RD",
            MicroMode::Wr => "WR",
            MicroMode::RdWr => "RD/WR",
        }
    }
}

/// Microbenchmark configuration.
#[derive(Clone, Debug)]
pub struct MicrobenchConfig {
    /// The mode.
    pub mode: MicroMode,
    /// Percentage of references that are potentially incoherent, in
    /// steps of 10 (0–100).
    pub guarded_pct: u32,
    /// Iterations.
    pub n: u64,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            mode: MicroMode::Baseline,
            guarded_pct: 0,
            n: 64 * 1024,
        }
    }
}

/// Number of independent chains (percentage granularity = 100/CHAINS).
pub const CHAINS: usize = 10;

/// Builds the microbenchmark kernel.
pub fn microbench(cfg: &MicrobenchConfig) -> Kernel {
    assert!(
        cfg.guarded_pct <= 100 && cfg.guarded_pct.is_multiple_of(10),
        "guarded_pct must be a multiple of 10"
    );
    let guarded_chains = (cfg.guarded_pct as usize * CHAINS) / 100;
    let mut kb = KernelBuilder::new("microbench");
    let arrays: Vec<_> = (0..CHAINS)
        .map(|k| {
            let init = (0..=cfg.n).map(|i| if i == 0 { k as i64 + 1 } else { 0 });
            kb.array_i64_from(&format!("a{k}"), init)
        })
        .collect();
    kb.begin_loop(cfg.n);
    for (k, a) in arrays.iter().enumerate() {
        let rload = kb.ref_affine(*a, 1, 0);
        let rstore = kb.ref_affine(*a, 1, 1);
        if k < guarded_chains {
            match cfg.mode {
                MicroMode::Baseline => {}
                MicroMode::Rd => kb.force_incoherent(rload),
                MicroMode::Wr => kb.force_incoherent(rstore),
                MicroMode::RdWr => {
                    kb.force_incoherent(rload);
                    kb.force_incoherent(rstore);
                }
            }
        }
        // a[i+1] = a[i] + c  (c = 1).
        kb.stmt(rstore, Expr::add(Expr::Ref(rload), Expr::ConstI(1)));
    }
    kb.end_loop();
    kb.build().expect("microbench must validate")
}

/// Expected final value of chain `k` at element `i` (for tests):
/// `a_k[i] = (k+1) + i`.
pub fn expected(k: usize, i: u64) -> i64 {
    (k as i64 + 1) + i as i64
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index math doubles as the expected value
mod tests {
    use super::*;
    use hsim_compiler::{classify_loop, interpret, RefClass};

    #[test]
    fn interpreter_matches_closed_form() {
        let cfg = MicrobenchConfig {
            n: 257,
            ..Default::default()
        };
        let k = microbench(&cfg);
        let out = interpret(&k).unwrap();
        for c in 0..CHAINS {
            for i in 0..=257u64 {
                assert_eq!(
                    out[c][i as usize] as i64,
                    expected(c, i),
                    "chain {c} elem {i}"
                );
            }
        }
    }

    #[test]
    fn guarded_fraction_matches_mode() {
        for (mode, pct, want) in [
            (MicroMode::Baseline, 100, 0),
            (MicroMode::Rd, 50, 5),
            (MicroMode::Wr, 100, 10),
            (MicroMode::RdWr, 30, 6),
        ] {
            let k = microbench(&MicrobenchConfig {
                mode,
                guarded_pct: pct,
                n: 1024,
            });
            let plan = classify_loop(&k, &k.loops[0], 32 * 1024, 32);
            let guarded = plan
                .classes
                .iter()
                .filter(|c| **c == RefClass::PotentiallyIncoherent)
                .count();
            assert_eq!(guarded, want, "{mode:?} at {pct}%");
        }
    }

    #[test]
    fn wr_mode_needs_double_stores() {
        let k = microbench(&MicrobenchConfig {
            mode: MicroMode::Wr,
            guarded_pct: 40,
            n: 1024,
        });
        let plan = classify_loop(&k, &k.loops[0], 32 * 1024, 32);
        assert_eq!(plan.double_stores.len(), 4);
        // RD mode has none.
        let k = microbench(&MicrobenchConfig {
            mode: MicroMode::Rd,
            guarded_pct: 40,
            n: 1024,
        });
        let plan = classify_loop(&k, &k.loops[0], 32 * 1024, 32);
        assert!(plan.double_stores.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 10")]
    fn bad_percentage_rejected() {
        microbench(&MicrobenchConfig {
            mode: MicroMode::Rd,
            guarded_pct: 15,
            n: 16,
        });
    }
}
