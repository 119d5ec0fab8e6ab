//! # hsim-core — cycle-level out-of-order core model
//!
//! A speculative, 4-wide out-of-order core in the style of the paper's
//! PTLsim configuration (Table 1):
//!
//! * hybrid branch predictor (4K selector / 4K gshare / 4K bimodal),
//!   4K-entry 4-way BTB, 32-entry return address stack;
//! * rename onto 256-entry INT and FP physical register files;
//! * 3 INT ALUs, 3 FP ALUs, 2 load/store units; 224-entry ROB;
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
//!
//! ## The issue stage is event-driven
//!
//! Nothing in the back end walks the ROB. At dispatch an instruction
//! links itself onto the *consumer chain* of every producer that has not
//! issued yet (intrusive, allocation-free: `dep_head` on the producer,
//! `dep_next[slot]` on the consumer) and counts those producers in
//! `pending`; producers that already issued fold their completion time
//! into its `ready_at`. Issuing an entry walks its chain; a consumer
//! whose `pending` reaches zero enters the `wake` min-heap keyed
//! `(ready_at, seq)`. Each cycle `issue` moves the keys that have come
//! due into `ready` — the operand-ready entries, oldest first — and runs
//! select over that list alone. Loads disambiguate against `store_q`,
//! the in-flight stores in program order, not against the ROB.
//!
//! Two ordering invariants make this select pick what an oldest-first
//! scan of the whole ROB would: every result completes strictly after
//! its issue cycle, so nothing woken during a select is selectable in
//! it; and select runs in age order, so a store issued earlier in the
//! cycle is visible as issued to a younger load in the same cycle.
//!
//! Cost model: a tick pays for the entries that commit, issue, wake or
//! dispatch, plus the length of `ready`; [`Core::next_event_at`] pays
//! for `ready` and one heap peek. Entries that only wait — the bulk of a
//! full ROB behind a cache miss — cost nothing. The scans this replaced
//! are kept as test-only oracles and checked against the structures
//! after every tick of generated programs.

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
