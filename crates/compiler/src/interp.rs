//! Reference interpreter: the functional ground truth.
//!
//! Executes a kernel directly over flat arrays, with no memory system, no
//! tiling and no coherence machinery. Every compiled variant (hybrid
//! coherent, hybrid oracle, cache-based) must leave exactly these values
//! in memory — the end-to-end statement of the paper's correctness claim,
//! and the oracle for the property-based tests.

use crate::ir::{Elem, Expr, Index, Kernel, LoopNest, RefId};

/// Interpretation errors (runtime bounds violations of indirect
/// references).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterpError {
    /// The loop containing the faulting access.
    pub loop_idx: usize,
    /// Iteration number.
    pub iter: u64,
    /// The faulting reference.
    pub r: RefId,
    /// The out-of-range element index.
    pub idx: i64,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loop {} iter {}: ref {} index {} out of bounds",
            self.loop_idx, self.iter, self.r, self.idx
        )
    }
}

impl std::error::Error for InterpError {}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Val {
    I(i64),
    F(f64),
}

impl Val {
    fn bits(self) -> u64 {
        match self {
            Val::I(v) => v as u64,
            Val::F(v) => v.to_bits(),
        }
    }
}

/// Runs the kernel and returns the final contents of every array as raw
/// element bits.
pub fn interpret(kernel: &Kernel) -> Result<Vec<Vec<u64>>, InterpError> {
    let mut arrays: Vec<Vec<u64>> = kernel
        .arrays
        .iter()
        .zip(&kernel.init)
        .map(|(decl, init)| {
            let mut v = init.to_vec();
            v.resize(decl.len as usize, 0);
            v
        })
        .collect();
    for (li, l) in kernel.loops.iter().enumerate() {
        for i in 0..l.n {
            for s in &l.stmts {
                let val = eval(kernel, l, &arrays, &s.value, i, li)?;
                let idx = ref_index(kernel, l, &arrays, s.target, i, li)?;
                arrays[l.refs[s.target].array][idx as usize] = val.bits();
            }
        }
    }
    Ok(arrays)
}

fn ref_index(
    kernel: &Kernel,
    l: &LoopNest,
    arrays: &[Vec<u64>],
    r: RefId,
    i: u64,
    li: usize,
) -> Result<i64, InterpError> {
    let mr = &l.refs[r];
    let idx = match mr.index {
        Index::Affine { scale, offset } => scale * i as i64 + offset,
        Index::Indirect { idx_ref, offset } => {
            let j = ref_index(kernel, l, arrays, idx_ref, i, li)?;
            arrays[l.refs[idx_ref].array][j as usize] as i64 + offset
        }
    };
    let len = kernel.arrays[mr.array].len as i64;
    if idx < 0 || idx >= len {
        return Err(InterpError {
            loop_idx: li,
            iter: i,
            r,
            idx,
        });
    }
    Ok(idx)
}

fn load(
    kernel: &Kernel,
    l: &LoopNest,
    arrays: &[Vec<u64>],
    r: RefId,
    i: u64,
    li: usize,
) -> Result<Val, InterpError> {
    let idx = ref_index(kernel, l, arrays, r, i, li)?;
    let bits = arrays[l.refs[r].array][idx as usize];
    Ok(match kernel.ref_elem(l, r) {
        Elem::I64 => Val::I(bits as i64),
        Elem::F64 => Val::F(f64::from_bits(bits)),
    })
}

fn eval(
    kernel: &Kernel,
    l: &LoopNest,
    arrays: &[Vec<u64>],
    e: &Expr,
    i: u64,
    li: usize,
) -> Result<Val, InterpError> {
    Ok(match e {
        Expr::ConstI(v) => Val::I(*v),
        Expr::ConstF(v) => Val::F(*v),
        Expr::Ivar => Val::I(i as i64),
        Expr::Ref(r) => load(kernel, l, arrays, *r, i, li)?,
        Expr::Add(a, b) => binop(
            eval(kernel, l, arrays, a, i, li)?,
            eval(kernel, l, arrays, b, i, li)?,
            |x, y| x.wrapping_add(y),
            |x, y| x + y,
        ),
        Expr::Sub(a, b) => binop(
            eval(kernel, l, arrays, a, i, li)?,
            eval(kernel, l, arrays, b, i, li)?,
            |x, y| x.wrapping_sub(y),
            |x, y| x - y,
        ),
        Expr::Mul(a, b) => binop(
            eval(kernel, l, arrays, a, i, li)?,
            eval(kernel, l, arrays, b, i, li)?,
            |x, y| x.wrapping_mul(y),
            |x, y| x * y,
        ),
        Expr::CvtIF(a) => match eval(kernel, l, arrays, a, i, li)? {
            Val::I(v) => Val::F(v as f64),
            f => f,
        },
    })
}

fn binop(a: Val, b: Val, fi: impl Fn(i64, i64) -> i64, ff: impl Fn(f64, f64) -> f64) -> Val {
    match (a, b) {
        (Val::I(x), Val::I(y)) => Val::I(fi(x, y)),
        (Val::F(x), Val::F(y)) => Val::F(ff(x, y)),
        // The validator rejects mixed types; this is unreachable on
        // validated kernels.
        (x, _) => x,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index math doubles as the expected value
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    #[test]
    fn axpy_values() {
        let n = 64;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let mut kb = KernelBuilder::new("axpy");
        let x = kb.array_f64_init("x", &xs);
        let y = kb.array_f64_init("y", &ys);
        kb.begin_loop(n as u64);
        let rx = kb.ref_affine(x, 1, 0);
        let ry = kb.ref_affine(y, 1, 0);
        kb.stmt(
            ry,
            Expr::add(Expr::Ref(ry), Expr::mul(Expr::ConstF(3.0), Expr::Ref(rx))),
        );
        kb.end_loop();
        let k = kb.build().unwrap();
        let out = interpret(&k).unwrap();
        for i in 0..n as usize {
            assert_eq!(f64::from_bits(out[y][i]), 2.0 * i as f64 + 3.0 * i as f64);
        }
    }

    #[test]
    fn loop_carried_chain() {
        // a[i+1] = a[i] + 1 starting from a[0]=5.
        let mut kb = KernelBuilder::new("chain");
        let mut init = vec![0i64; 17];
        init[0] = 5;
        let a = kb.array_i64_init("a", &init);
        kb.begin_loop(16);
        let r0 = kb.ref_affine(a, 1, 0);
        let r1 = kb.ref_affine(a, 1, 1);
        kb.stmt(r1, Expr::add(Expr::Ref(r0), Expr::ConstI(1)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let out = interpret(&k).unwrap();
        for i in 0..17 {
            assert_eq!(out[a][i] as i64, 5 + i as i64);
        }
    }

    #[test]
    fn indirect_scatter() {
        // c[idx[i]] = i over a permutation.
        let idx_vals: Vec<i64> = (0..32).map(|i| (i * 7) % 32).collect();
        let mut kb = KernelBuilder::new("scatter");
        let c = kb.array_i64("c", 32);
        let idx = kb.array_i64_init("idx", &idx_vals);
        kb.begin_loop(32);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rc = kb.ref_indirect(c, ridx, 0);
        kb.stmt(rc, Expr::Ivar);
        kb.end_loop();
        let k = kb.build().unwrap();
        let out = interpret(&k).unwrap();
        for i in 0..32usize {
            let target = (i * 7) % 32;
            assert_eq!(out[c][target], i as u64);
        }
    }

    #[test]
    fn indirect_out_of_bounds_detected() {
        let mut kb = KernelBuilder::new("oob");
        let c = kb.array_i64("c", 4);
        let idx = kb.array_i64_init("idx", &[0, 1, 99, 3]);
        kb.begin_loop(4);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rc = kb.ref_indirect(c, ridx, 0);
        kb.stmt(rc, Expr::ConstI(1));
        kb.end_loop();
        let k = kb.build().unwrap();
        let e = interpret(&k).unwrap_err();
        assert_eq!(e.iter, 2);
        assert_eq!(e.idx, 99);
    }

    #[test]
    fn multiple_loops_run_in_order() {
        let mut kb = KernelBuilder::new("two");
        let a = kb.array_i64("a", 8);
        kb.begin_loop(8);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::Ivar);
        kb.end_loop();
        kb.begin_loop(8);
        let ra2 = kb.ref_affine(a, 1, 0);
        kb.stmt(ra2, Expr::mul(Expr::Ref(ra2), Expr::ConstI(2)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let out = interpret(&k).unwrap();
        for i in 0..8usize {
            assert_eq!(out[a][i] as i64, 2 * i as i64);
        }
    }

    #[test]
    fn ivar_and_cvt() {
        let mut kb = KernelBuilder::new("cvt");
        let a = kb.array_f64("a", 8);
        kb.begin_loop(8);
        let ra = kb.ref_affine(a, 1, 0);
        kb.stmt(ra, Expr::cvt(Expr::mul(Expr::Ivar, Expr::Ivar)));
        kb.end_loop();
        let k = kb.build().unwrap();
        let out = interpret(&k).unwrap();
        assert_eq!(f64::from_bits(out[a][5]), 25.0);
    }
}
