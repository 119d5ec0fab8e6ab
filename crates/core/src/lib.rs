//! # hsim-core — cycle-level out-of-order core model
//!
//! A speculative, 4-wide out-of-order core in the style of the paper's
//! PTLsim configuration (Table 1):
//!
//! * hybrid branch predictor (4K selector / 4K gshare / 4K bimodal),
//!   4K-entry 4-way BTB, 32-entry return address stack;
//! * rename onto 256-entry INT and FP physical register files;
//! * 3 INT ALUs, 3 FP ALUs, 2 load/store units; 128-entry ROB;
//! * a load/store queue with store-to-load forwarding and **store
//!   collapsing** — two uncommitted stores to the same address commit with
//!   a single cache access, which is the mechanism behind the paper's
//!   claim that the double store's second store is nearly free (§3.1);
//! * an address-generation path that performs the **coherence-directory
//!   lookup in the same cycle** for guarded accesses and stalls on unset
//!   presence bits (§3.2).
//!
//! The core is *functional-first, timing-directed*: instructions execute
//! functionally in program order at dispatch (via the [`MemoryPort`]
//! callbacks the machine provides), while fetch / rename / issue /
//! complete / commit timing is modeled cycle by cycle with real resource
//! constraints. Branch outcomes are compared against real predictor state
//! at fetch, so misprediction costs are modeled; wrong-path instructions
//! are not executed (documented simplification — no wrong-path cache
//! pollution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod config;
pub mod pipeline;
pub mod port;
pub mod stats;

pub use branch::{BranchPredictor, Btb, Ras};
pub use config::{CoherenceConfig, CoherenceMode, CoreConfig, DramTiming, L3Geometry};
pub use pipeline::{Core, DeadlockReport, HostProfile, SimError, TickOutcome};
pub use port::{DmaKind, MemSide, MemoryPort, PortDiagnostics, RouteInfo};
pub use stats::CoreStats;
