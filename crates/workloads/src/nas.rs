//! NAS-signature kernels (§4.2, Table 3).
//!
//! Each generator reproduces the *memory-reference signature* the paper
//! reports for the corresponding NAS benchmark — the counts below come
//! straight from Table 3 and the §4.2 prose:
//!
//! | kernel | refs | guarded | notes |
//! |--------|------|---------|-------|
//! | CG | 7  | 1 (read)        | indirect gather with high reuse on the critical path |
//! | EP | 20 | 1 (write, double store) | 3 strided + 16 locals, compute-bound, tiny footprint |
//! | FT | 34 | 4 (2 rd + 2 wr double stores) | many strided f64 streams, complex FP |
//! | IS | 5  | 2 (writes, double stores) | trivial computation, scattered histograms |
//! | MG | 60 | 1 (read)        | wide stencils: many concurrent streams |
//! | SP | 497 (across 25 loops) | 0 | hundreds of strided streams thrash the prefetcher tables |
//!
//! MG's guarded gather indexes into a *mapped* array with indices that
//! stay inside the current window, so its directory lookups actually
//! *hit* and are diverted to the LM — the Figure 5 `gld17H` path — while
//! CG/FT/IS guards miss and fall through to the caches (`gld17M`).

use crate::{rng, uniform};
use hsim_compiler::{Expr, Kernel, KernelBuilder};
use rand::rngs::StdRng;
use rand::Rng;

/// Workload size: `Test` keeps runs small for unit/integration tests,
/// `Paper` is the benchmark-harness size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few LM windows per array: seconds of simulation.
    Test,
    /// The figure-regeneration size.
    Paper,
}

impl Scale {
    /// Picks the value for this scale (`Test` → `test`, `Paper` →
    /// `paper`) — the idiom every size-parameterized generator uses.
    pub fn pick(self, test: u64, paper: u64) -> u64 {
        match self {
            Scale::Test => test,
            Scale::Paper => paper,
        }
    }
}

/// NAS IS key distribution: the average of four uniforms (approximately
/// Gaussian), concentrating accesses on the middle buckets.
fn nas_is_keys(rng: &mut StdRng, n: u64, bound: u64) -> impl Iterator<Item = i64> + '_ {
    (0..n).map(move |_| {
        let s: i64 = (0..4).map(|_| rng.gen_range(0..bound as i64)).sum();
        s / 4
    })
}

/// CG: sparse-matrix/vector-flavored kernel. 7 references, 1 potentially
/// incoherent read (`x[col[i]]` — the compiler cannot prove the gathered
/// vector is not the LM-mapped `p`). `x` is small and heavily reused: in
/// the hybrid system it stays L1-resident because the strided streams
/// live in the LM; in the cache-based system the streams keep evicting
/// it.
pub fn cg(scale: Scale) -> Kernel {
    let n = scale.pick(6 * 1024, 160 * 1024);
    // The gathered vector exceeds the 32 KB L1; the column indices have
    // banded locality (sparse matrices cluster nonzeros near the
    // diagonal), so the *hot* subset fits an L1 that is not polluted by
    // the strided streams — the hybrid system's advantage in the paper.
    let x_len: u64 = 12 * 1024;
    let mut r = rng(0xC6);
    let mut kb = KernelBuilder::new("CG");
    let a = kb.array_f64_from("a", uniform(&mut r, n, -1.0..1.0));
    let band = 3 * 1024i64;
    let cols = (0..n).map(|i| {
        let center = (i as i64 * x_len as i64) / n as i64;
        let off = r.gen_range(-band / 2..band / 2);
        (center + off).rem_euclid(x_len as i64)
    });
    let col = kb.array_i64_from("col", cols);
    let p = kb.array_f64_from("p", uniform(&mut r, n, -1.0..1.0));
    let q = kb.array_f64_from("q", uniform(&mut r, n, -1.0..1.0));
    let z = kb.array_f64_from("z", uniform(&mut r, n, -1.0..1.0));
    let rr = kb.array_f64_from("r", uniform(&mut r, n, -1.0..1.0));
    let x = kb.array_f64_from("x", uniform(&mut r, x_len, -1.0..1.0));
    kb.begin_loop(n);
    let ra = kb.ref_affine(a, 1, 0); // strided
    let rcol = kb.ref_affine(col, 1, 0); // strided
    let rx = kb.ref_indirect(x, rcol, 0); // potentially incoherent read
    let rp = kb.ref_affine(p, 1, 0); // strided, written
    let rq = kb.ref_affine(q, 1, 0); // strided, written
    let rz = kb.ref_affine(z, 1, 0); // strided, written
    let rrr = kb.ref_affine(rr, 1, 0); // strided
                                       // p[i] += a[i] * x[col[i]]; q[i] += p[i]; z[i] -= r[i]
    kb.stmt(
        rp,
        Expr::add(Expr::Ref(rp), Expr::mul(Expr::Ref(ra), Expr::Ref(rx))),
    );
    kb.stmt(rq, Expr::add(Expr::Ref(rq), Expr::Ref(rp)));
    kb.stmt(rz, Expr::sub(Expr::Ref(rz), Expr::Ref(rrr)));
    kb.alias_mut().may_alias(x, p);
    kb.end_loop();
    kb.build().expect("CG kernel")
}

/// EP: embarrassingly-parallel random-number kernel. 20 references:
/// 3 strided, 16 loop-invariant locals, and 1 potentially incoherent
/// write (double store). Compute-bound with a tiny footprint — the paper
/// reports no hybrid speedup and zero double-store overhead because both
/// stores always issue in the same cycle.
pub fn ep(scale: Scale) -> Kernel {
    let n = scale.pick(4 * 1024, 48 * 1024);
    let mut r = rng(0xE9);
    let mut kb = KernelBuilder::new("EP");
    let x = kb.array_f64_from("x", uniform(&mut r, n, -1.0..1.0));
    let y = kb.array_f64_from("y", uniform(&mut r, n, -1.0..1.0));
    let t = kb.array_f64_from("t", uniform(&mut r, n + 1, -1.0..1.0));
    let w = kb.array_f64_from("w", uniform(&mut r, n + 1, -1.0..1.0));
    let locals = kb.array_f64_from("locals", uniform(&mut r, 16, -1.0..1.0));
    kb.begin_loop(n);
    let rx = kb.ref_affine(x, 1, 0);
    let ry = kb.ref_affine(y, 1, 0);
    let rt = kb.ref_affine(t, 1, 0);
    let rw = kb.ref_affine(w, 1, 1);
    kb.force_incoherent(rw); // the 1 potentially incoherent write
    kb.no_map(w); // w is only touched through the unpredictable write
    let rl: Vec<_> = (0..16).map(|k| kb.ref_affine(locals, 0, k)).collect();
    // Heavy FP work over locals (8 accumulators updated from 8 constants
    // and the strided streams).
    for k in 0..8 {
        kb.stmt(
            rl[k],
            Expr::add(
                Expr::Ref(rl[k]),
                Expr::mul(
                    Expr::mul(Expr::Ref(rl[k + 8]), Expr::Ref(rx)),
                    Expr::add(Expr::Ref(ry), Expr::ConstF(0.5 + k as f64)),
                ),
            ),
        );
    }
    // The potentially incoherent write and a strided read of t.
    kb.stmt(
        rw,
        Expr::add(Expr::Ref(rt), Expr::mul(Expr::Ref(rx), Expr::Ref(ry))),
    );
    kb.end_loop();
    kb.build().expect("EP kernel")
}

/// FT: FFT-flavored kernel. 34 references: 30 strided f64/i64 streams
/// (28 value + 2 index), 2 potentially incoherent reads and 2
/// potentially incoherent writes (double stores). Complex floating-point
/// work keeps the double-store overhead small (paper: 1.03%).
pub fn ft(scale: Scale) -> Kernel {
    let n = scale.pick(4 * 1024, 20 * 1024);
    let sc_len = 4096;
    let mut r = rng(0xF7);
    let mut kb = KernelBuilder::new("FT");
    // 14 paired re/im streams.
    let streams: Vec<_> = (0..14)
        .map(|k| kb.array_f64_from(&format!("s{k}"), uniform(&mut r, n + 1, -1.0..1.0)))
        .collect();
    let idx1 = kb.array_i64_from("idx1", uniform(&mut r, n, 0..sc_len as i64));
    let idx2 = kb.array_i64_from("idx2", uniform(&mut r, n, 0..sc_len as i64));
    let tw1 = kb.array_f64_from("tw1", uniform(&mut r, sc_len, -1.0..1.0));
    let tw2 = kb.array_f64_from("tw2", uniform(&mut r, sc_len, -1.0..1.0));
    let out1 = kb.array_f64_from("out1", uniform(&mut r, sc_len, -1.0..1.0));
    let out2 = kb.array_f64_from("out2", uniform(&mut r, sc_len, -1.0..1.0));
    kb.begin_loop(n);
    let rs: Vec<_> = streams.iter().map(|s| kb.ref_affine(*s, 1, 0)).collect(); // 14
    let rs1: Vec<_> = streams
        .iter()
        .take(14)
        .map(|s| kb.ref_affine(*s, 1, 1))
        .collect(); // 14 more strided refs (offset 1): total 28 value streams
    let ridx1 = kb.ref_affine(idx1, 1, 0); // strided index
    let ridx2 = kb.ref_affine(idx2, 1, 0); // strided index
    let rtw1 = kb.ref_indirect(tw1, ridx1, 0); // pot. incoherent read
    let rtw2 = kb.ref_indirect(tw2, ridx2, 0); // pot. incoherent read
    let rout1 = kb.ref_indirect(out1, ridx1, 0); // pot. incoherent write
    let rout2 = kb.ref_indirect(out2, ridx2, 0); // pot. incoherent write
                                                 // Butterfly-flavored updates: s_k[i] = s_k[i+1]*tw + s_{k+1}[i].
    for k in 0..7 {
        kb.stmt(
            rs[k],
            Expr::add(
                Expr::mul(Expr::Ref(rs1[k]), Expr::Ref(rtw1)),
                Expr::Ref(rs[(k + 1) % 14]),
            ),
        );
        kb.stmt(
            rs[k + 7],
            Expr::sub(
                Expr::mul(Expr::Ref(rs1[k + 7]), Expr::Ref(rtw2)),
                Expr::Ref(rs[(k + 8) % 14]),
            ),
        );
    }
    // Scatter accumulation through the potentially incoherent writes.
    kb.stmt(rout1, Expr::add(Expr::Ref(rout1), Expr::Ref(rs[0])));
    kb.stmt(rout2, Expr::sub(Expr::Ref(rout2), Expr::Ref(rs[7])));
    kb.alias_mut().may_alias(tw1, streams[0]);
    kb.alias_mut().may_alias(tw2, streams[7]);
    kb.alias_mut().may_alias(out1, streams[1]);
    kb.alias_mut().may_alias(out2, streams[8]);
    kb.end_loop();
    kb.build().expect("FT kernel")
}

/// IS: integer-sort histogram kernel. 5 references: 2 strided key
/// streams, 1 strided rank output, and 2 potentially incoherent
/// read-modify-writes (double stores). The computation is trivial, so the
/// double store's extra instructions are the paper's visible IS overhead
/// (0.44% time, ~5% energy).
pub fn is(scale: Scale) -> Kernel {
    let n = scale.pick(8 * 1024, 192 * 1024);
    // Two histograms of 512 KB: together they exceed the L2. The hot
    // (Gaussian-concentrated) region fits the hybrid system's unpolluted
    // L2; in the cache-based system the write-through rank stream and the
    // key streams keep flushing it to the L3.
    let buckets = 64 * 1024;
    let mut r = rng(0x15);
    let mut kb = KernelBuilder::new("IS");
    let key1 = kb.array_i64_from("key1", nas_is_keys(&mut r, n, buckets));
    let key2 = kb.array_i64_from("key2", nas_is_keys(&mut r, n, buckets));
    let rank = kb.array_i64("rank", n);
    let h = kb.array_i64("h", buckets);
    kb.begin_loop(n);
    let rk1 = kb.ref_affine(key1, 1, 0);
    let rk2 = kb.ref_affine(key2, 1, 0);
    let rrank = kb.ref_affine(rank, 1, 0);
    let rh1 = kb.ref_indirect(h, rk1, 0); // pot. incoherent rmw
    let rh2 = kb.ref_indirect(h, rk2, 0); // pot. incoherent rmw
    kb.stmt(rh1, Expr::add(Expr::Ref(rh1), Expr::ConstI(1)));
    kb.stmt(rh2, Expr::add(Expr::Ref(rh2), Expr::ConstI(1)));
    kb.stmt(rrank, Expr::add(Expr::Ref(rk1), Expr::Ref(rk2)));
    kb.alias_mut().may_alias(h, rank);
    kb.end_loop();
    kb.build().expect("IS kernel")
}

/// MG: multigrid-stencil kernel. 60 references in one loop — wide
/// stencils over many arrays (the stream count pressures the cache-based
/// prefetcher's history table) plus 1 potentially incoherent read whose
/// indices stay inside the current window: its directory lookups *hit*
/// and are diverted to the LM (Figure 5's `gld17H` path).
pub fn mg(scale: Scale) -> Kernel {
    let n = scale.pick(4 * 1024, 16 * 1024);
    let mut r = rng(0x36);
    let mut kb = KernelBuilder::new("MG");
    // 19 stencil arrays x 3 offsets = 57 refs, + gather index + gather +
    // coefficient = 60.
    let arrays: Vec<_> = (0..19)
        .map(|k| kb.array_f64_from(&format!("v{k}"), uniform(&mut r, n + 2, -1.0..1.0)))
        .collect();
    // Window-local gather indices: g[i] = i rounded down to a multiple of
    // 64 — always inside the current LM window (buf >= 64 elements).
    let gather_idx = kb.array_i64_from("gidx", (0..n as i64).map(|i| i & !63));
    let coef = kb.array_f64_from("coef", uniform(&mut r, n, -1.0..1.0));
    kb.begin_loop(n);
    let mut refs = Vec::new();
    for a in &arrays {
        let r0 = kb.ref_affine(*a, 1, 0);
        let r1 = kb.ref_affine(*a, 1, 1);
        let r2 = kb.ref_affine(*a, 1, 2);
        refs.push((r0, r1, r2));
    }
    let rgi = kb.ref_affine(gather_idx, 1, 0);
    let rcoef = kb.ref_affine(coef, 1, 0);
    // The gather targets v0 — the same array that is regularly mapped —
    // so classification is Must-alias: potentially incoherent.
    let rgather = kb.ref_indirect(arrays[0], rgi, 0);
    // Stencil updates: v_k[i] = c*(v_k[i] + v_k[i+1] + v_k[i+2]) + v_{k+1}[i+1]
    for k in 0..18 {
        let (a0, a1, a2) = refs[k];
        let (_, b1, _) = refs[k + 1];
        kb.stmt(
            a0,
            Expr::add(
                Expr::mul(
                    Expr::Ref(rcoef),
                    Expr::add(Expr::add(Expr::Ref(a0), Expr::Ref(a1)), Expr::Ref(a2)),
                ),
                Expr::Ref(b1),
            ),
        );
    }
    // Use the guarded gather in the last statement.
    let (l0, _, _) = refs[18];
    kb.stmt(l0, Expr::add(Expr::Ref(l0), Expr::Ref(rgather)));
    kb.end_loop();
    kb.build().expect("MG kernel")
}

/// SP: scalar-pentadiagonal kernel. 497 strided references spread over
/// 25 loops (~20 per loop, all unit-stride, offset 0), zero potentially
/// incoherent references — Table 3's `0/497 (0%)` row. The sheer stream
/// count is what collapses the cache-based prefetcher.
pub fn sp(scale: Scale) -> Kernel {
    let n = scale.pick(2 * 1024, 6 * 1024);
    let mut r = rng(0x59);
    let mut kb = KernelBuilder::new("SP");
    // A pool of arrays reused across loops (large enough that the
    // Paper-scale footprint exceeds the 4 MB L3).
    let pool: Vec<_> = (0..60)
        .map(|k| kb.array_f64_from(&format!("w{k}"), uniform(&mut r, n, -1.0..1.0)))
        .collect();
    let mut total_refs = 0usize;
    for l in 0..25 {
        // 20 refs per loop for the first 24 loops, 17 in the last: 497.
        let refs_this_loop = if l == 24 { 17 } else { 20 };
        kb.begin_loop(n);
        let mut rs = Vec::new();
        for k in 0..refs_this_loop {
            let a = pool[(l + k) % pool.len()];
            rs.push(kb.ref_affine(a, 1, 0));
        }
        total_refs += refs_this_loop;
        // Chained updates: w_k[i] = w_k[i]*c + w_{k+1}[i].
        for k in 0..refs_this_loop - 1 {
            kb.stmt(
                rs[k],
                Expr::add(
                    Expr::mul(Expr::Ref(rs[k]), Expr::ConstF(0.5 + k as f64 * 0.01)),
                    Expr::Ref(rs[k + 1]),
                ),
            );
        }
        kb.end_loop();
    }
    assert_eq!(total_refs, 497);
    kb.build().expect("SP kernel")
}

/// All six kernels, in the paper's order.
pub fn all_nas(scale: Scale) -> Vec<Kernel> {
    vec![
        cg(scale),
        ep(scale),
        ft(scale),
        is(scale),
        mg(scale),
        sp(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_compiler::{classify_loop, interpret, RefClass};
    use hsim_isa::memmap::LM_SIZE;

    fn counts(k: &Kernel) -> (usize, usize, usize) {
        let mut total = 0;
        let mut guarded = 0;
        let mut double = 0;
        for l in &k.loops {
            let plan = classify_loop(k, l, LM_SIZE, 32);
            total += plan.classes.len();
            guarded += plan.guarded_refs();
            double += plan.double_stores.len();
        }
        (total, guarded, double)
    }

    #[test]
    fn table3_reference_signatures() {
        // (name, total refs, guarded, double stores) from Table 3 + §4.2.
        for (k, total, guarded, double) in [
            (cg(Scale::Test), 7, 1, 0),
            (ep(Scale::Test), 20, 1, 1),
            (ft(Scale::Test), 34, 4, 2),
            (is(Scale::Test), 5, 2, 2),
            (mg(Scale::Test), 60, 1, 0),
            (sp(Scale::Test), 497, 0, 0),
        ] {
            let (t, g, d) = counts(&k);
            assert_eq!((t, g, d), (total, guarded, double), "kernel {}", k.name);
        }
    }

    #[test]
    fn ep_has_16_locals_and_3_plus_1_strided() {
        let k = ep(Scale::Test);
        let plan = classify_loop(&k, &k.loops[0], LM_SIZE, 32);
        let locals = plan
            .classes
            .iter()
            .filter(|c| **c == RefClass::Local)
            .count();
        assert_eq!(locals, 16);
        let strided = plan
            .classes
            .iter()
            .filter(|c| matches!(c, RefClass::Regular | RefClass::RegularUnmapped))
            .count();
        assert_eq!(strided, 3);
    }

    #[test]
    fn all_kernels_interpret_cleanly() {
        for k in all_nas(Scale::Test) {
            interpret(&k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn mg_gather_indices_stay_in_window() {
        let k = mg(Scale::Test);
        // gidx[i] = i & !63: for any window size that is a multiple of 64
        // elements, the gather lands in the same window as i.
        let plan = classify_loop(&k, &k.loops[0], LM_SIZE, 32);
        assert!(plan.chunk_elems.is_multiple_of(64));
        assert!(plan.guarded_refs() == 1);
    }

    #[test]
    fn sp_is_spotless() {
        let k = sp(Scale::Test);
        for l in &k.loops {
            let plan = classify_loop(&k, l, LM_SIZE, 32);
            assert_eq!(plan.guarded_refs(), 0);
            assert_eq!(plan.tail_span, 0, "SP must not need tail guards");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = cg(Scale::Test);
        let b = cg(Scale::Test);
        assert_eq!(a.init, b.init);
    }
}
