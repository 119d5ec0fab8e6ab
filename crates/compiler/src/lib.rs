//! # hsim-compiler — the paper's compiler support (§3.1)
//!
//! A small loop-nest compiler that reproduces the three-phase compiler
//! support of the paper on a compact IR:
//!
//! 1. **Classification of memory references** ([`classify`]): every
//!    reference is classified as *regular* (strided → mapped to the local
//!    memory), *irregular* (non-strided, provably no alias with any
//!    regular reference → served by the caches) or *potentially
//!    incoherent* (non-strided, `may`/`must` alias → guarded). The alias
//!    analysis is a pluggable three-valued oracle ([`alias`]) so each
//!    workload can encode exactly what GCC could and could not prove for
//!    the corresponding NAS benchmark.
//! 2. **Code transformation** ([`codegen`]): regular references are tiled
//!    into the control / synchronization / work execution model of
//!    Figure 2, with buffer-size-aligned windows DMA-mapped onto
//!    equally-sized LM buffers and write-back of dirty buffers only.
//! 3. **Code generation** ([`codegen`]): plain loads/stores for regular
//!    (LM) and irregular (SM) accesses, **guarded** instructions for
//!    potentially incoherent ones, and the **double store** for
//!    potentially incoherent writes (Figure 3, lines 19–20).
//!
//! Three code-generation modes produce the three machines of the
//! evaluation: `HybridCoherent` (the proposal), `HybridOracle` (the
//! incoherent oracle-compiler baseline of Figure 8) and `CacheBased`
//! (the §4.3 comparison system: no LM, straight loops).
//!
//! [`interp`] provides a reference interpreter over flat arrays — the
//! functional ground truth every compiled variant is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod classify;
pub mod codegen;
pub mod interp;
pub mod ir;
pub mod layout;

pub use alias::{AliasAnswer, AliasOracle};
pub use classify::{classify_loop, LoopPlan, RefClass};
pub use codegen::{compile, compile_with_lm, CodegenMode, CompiledKernel};
/// The read-only init views a [`Kernel`] holds (re-exported from `hsim-isa`).
pub use hsim_isa::Words;
pub use interp::interpret;
pub use ir::{
    ArrayDecl, ArrayId, Elem, Expr, Index, Kernel, KernelBuilder, LoopNest, MemRef, RefId,
    ShardError, Stmt,
};
pub use layout::{ArrayLayout, Layout};
