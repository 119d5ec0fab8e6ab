//! The per-PC decode table: every instruction of the program matched
//! once, at [`Core::new`], into the bits, unit class and latency the
//! pipeline asks about it, so fetch, the dispatch gates, the ROB entry
//! and commit test bits instead of re-matching the [`Inst`] enum.

use super::FuClass;
use hsim_isa::inst::Inst;

/// An integer or FP load.
pub(super) const LOAD: u16 = 1 << 0;
/// An integer or FP store.
pub(super) const STORE: u16 = 1 << 1;
/// Writes an integer register: holds an integer rename register.
pub(super) const WRITES_INT: u16 = 1 << 2;
/// Writes an FP register: holds an FP rename register.
pub(super) const WRITES_FP: u16 = 1 << 3;
/// A conditional branch.
pub(super) const COND_BRANCH: u16 = 1 << 4;
/// A branch, jump, call or return: the front end predicts its next pc.
pub(super) const CONTROL: u16 = 1 << 5;
/// `halt`.
pub(super) const HALT: u16 = 1 << 6;
/// `dma-synch`: completes no earlier than its slot's `synch_until`.
pub(super) const SYNCH: u16 = 1 << 7;
/// A phase mark: switches the phase the cycles are charged to at commit.
pub(super) const PHASE: u16 = 1 << 8;
/// Set by dispatch on an in-flight entry, never in the table: this
/// control instruction was mispredicted, and fetch restarts at its
/// slot's `redirect_to` once it issues.
pub(super) const MISPREDICTED: u16 = 1 << 9;

/// One decoded instruction.
#[derive(Clone, Copy)]
pub(super) struct Decoded {
    pub(super) inst: Inst,
    /// The bits above (never [`MISPREDICTED`]).
    pub(super) flags: u16,
    pub(super) fu: FuClass,
    /// Execution latency of a non-memory instruction.
    pub(super) latency: u32,
}

/// Decodes one instruction.
pub(super) fn decode(inst: Inst) -> Decoded {
    use FuClass::*;
    use Inst::*;
    let (fu, latency, flags) = match inst {
        Alu { op, .. } => (IntAlu, op.latency(), WRITES_INT),
        Li { .. } | MovFI { .. } => (IntAlu, 1, WRITES_INT),
        CvtFI { .. } => (IntAlu, 3, WRITES_INT),
        Fpu { op, .. } => (FpAlu, op.latency(), WRITES_FP),
        MovIF { .. } => (FpAlu, 1, WRITES_FP),
        CvtIF { .. } => (FpAlu, 3, WRITES_FP),
        Load { .. } => (Mem, 1, LOAD | WRITES_INT),
        FLoad { .. } => (Mem, 1, LOAD | WRITES_FP),
        Store { .. } | FStore { .. } => (Mem, 1, STORE),
        DmaGet { .. } | DmaPut { .. } => (Mem, 1, 0),
        Branch { .. } => (IntAlu, 1, COND_BRANCH | CONTROL),
        Jump { .. } | Call { .. } | Ret => (IntAlu, 1, CONTROL),
        DmaSynch { .. } => (IntAlu, 1, SYNCH),
        PhaseMark { .. } => (IntAlu, 1, PHASE),
        Halt => (IntAlu, 1, HALT),
        DirCfg { .. } | Nop => (IntAlu, 1, 0),
    };
    Decoded {
        inst,
        flags,
        fu,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_isa::inst::{AluOp, Cond, FpuOp, Operand, Phase};
    use hsim_isa::reg::{FReg, Reg};
    use hsim_isa::{Route, Width};

    /// One instruction of every variant, each ALU and FPU operation.
    fn every_variant() -> Vec<Inst> {
        let (r, f) = (Reg(1), FReg(1));
        let mut v = vec![
            Inst::Li { rd: r, imm: 7 },
            Inst::MovIF { fd: f, rs: r },
            Inst::MovFI { rd: r, fs: f },
            Inst::CvtIF { fd: f, rs: r },
            Inst::CvtFI { rd: r, fs: f },
            Inst::Load {
                rd: r,
                base: r,
                index: None,
                offset: 0,
                width: Width::W,
                route: Route::Plain,
            },
            Inst::Store {
                rs: r,
                base: r,
                index: Some(r),
                offset: 8,
                width: Width::D,
                route: Route::Guarded,
            },
            Inst::FLoad {
                fd: f,
                base: r,
                index: None,
                offset: 0,
                route: Route::Oracle,
            },
            Inst::FStore {
                fs: f,
                base: r,
                index: None,
                offset: 0,
                route: Route::Plain,
            },
            Inst::Branch {
                cond: Cond::Lt,
                rs1: r,
                rs2: r,
                target: 3,
            },
            Inst::Jump { target: 5 },
            Inst::Call { target: 9 },
            Inst::Ret,
            Inst::DmaGet {
                lm: r,
                sm: r,
                bytes: r,
                tag: 1,
            },
            Inst::DmaPut {
                lm: r,
                sm: r,
                bytes: r,
                tag: 2,
            },
            Inst::DmaSynch { tag: 1 },
            Inst::DirCfg { rs: r },
            Inst::PhaseMark {
                phase: Phase::Other,
            },
            Inst::Halt,
            Inst::Nop,
        ];
        use AluOp::*;
        for op in [Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu] {
            v.push(Inst::Alu {
                op,
                rd: r,
                rs1: r,
                src2: Operand::Imm(3),
            });
        }
        use FpuOp::*;
        for op in [FAdd, FSub, FMul, FDiv, FSqrt, FMin, FMax] {
            v.push(Inst::Fpu {
                op,
                fd: f,
                fs1: f,
                fs2: f,
            });
        }
        v
    }

    #[test]
    fn decoded_bits_class_and_latency_match_the_instruction() {
        for inst in every_variant() {
            let d = decode(inst);
            let bit = |b: u16| d.flags & b != 0;
            let writes_int = matches!(
                inst,
                Inst::Alu { .. }
                    | Inst::Li { .. }
                    | Inst::MovFI { .. }
                    | Inst::CvtFI { .. }
                    | Inst::Load { .. }
            );
            let writes_fp = matches!(
                inst,
                Inst::Fpu { .. } | Inst::MovIF { .. } | Inst::CvtIF { .. } | Inst::FLoad { .. }
            );
            let control = matches!(
                inst,
                Inst::Branch { .. } | Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret
            );
            assert_eq!(bit(LOAD), inst.is_load(), "{inst:?}");
            assert_eq!(bit(STORE), inst.is_store(), "{inst:?}");
            assert_eq!(bit(COND_BRANCH), inst.is_cond_branch(), "{inst:?}");
            assert_eq!(bit(WRITES_INT), writes_int, "{inst:?}");
            assert_eq!(bit(WRITES_FP), writes_fp, "{inst:?}");
            assert_eq!(bit(CONTROL), control, "{inst:?}");
            assert_eq!(bit(HALT), inst == Inst::Halt, "{inst:?}");
            assert_eq!(
                bit(SYNCH),
                matches!(inst, Inst::DmaSynch { .. }),
                "{inst:?}"
            );
            assert_eq!(
                bit(PHASE),
                matches!(inst, Inst::PhaseMark { .. }),
                "{inst:?}"
            );
            assert!(!bit(MISPREDICTED));
            let fu = if inst.is_mem() || matches!(inst, Inst::DmaGet { .. } | Inst::DmaPut { .. }) {
                FuClass::Mem
            } else if writes_fp {
                FuClass::FpAlu
            } else {
                FuClass::IntAlu
            };
            assert!(d.fu == fu, "{inst:?}: unit class");
            let latency = match inst {
                Inst::Alu { op, .. } => op.latency(),
                Inst::Fpu { op, .. } => op.latency(),
                Inst::CvtIF { .. } | Inst::CvtFI { .. } => 3,
                _ => 1,
            };
            assert_eq!(d.latency, latency, "{inst:?}");
        }
    }
}
