//! # hsim-isa — instruction set of the hybrid-memory simulator
//!
//! A compact RISC-like, 64-bit ISA used by the `hsim` cycle-level simulator.
//! It is deliberately small (the paper's mechanisms do not depend on ISA
//! richness) but carries the three extensions the SC 2012 hybrid-memory
//! coherence paper requires:
//!
//! * **Guarded memory instructions** (`gld`/`gst`): loads and stores whose
//!   effective address is looked up in the per-core coherence directory
//!   during address generation and diverted to the local memory when the
//!   data is mapped there (paper §3.1, phase 3).
//! * **Oracle-routed memory instructions** (`old`/`ost`): the incoherent
//!   baseline of the paper's Figure 8 — unguarded accesses that are always
//!   served by the memory holding the valid copy, with no directory
//!   hardware involved.
//! * **DMA operations** (`dma.get`/`dma.put`/`dma.synch`) and the directory
//!   configuration write (`dir.cfg`), which the paper models as stores to
//!   non-cacheable memory-mapped I/O registers. We expose them as
//!   pseudo-instructions for clarity; the machine routes them to the DMA
//!   controller exactly as MMIO stores would.
//!
//! The crate also provides the **memory map** shared by all components
//! (local-memory window, MMIO window, code/data segments), a textual
//! **assembler** and **disassembler**, a label-resolving
//! [`ProgramBuilder`], and [`Words`], the read-only views of shared word
//! buffers that hold a kernel's initial data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod inst;
pub mod memmap;
pub mod program;
pub mod reg;
pub mod words;

pub use inst::{AluOp, Cond, FpuOp, Inst, Operand, Phase, Route, Width};
pub use memmap::MemoryMap;
pub use program::{Label, Program, ProgramBuilder};
pub use reg::{FReg, Reg};
pub use words::Words;
