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
//! Nothing in the back end walks the ROB or the store queue. At dispatch
//! an instruction links itself onto the *consumer chain* of every
//! producer that has not issued yet (intrusive, allocation-free:
//! `dep_head` on the producer, `dep_next[slot]` on the consumer) and
//! counts those producers in `pending`; producers that already issued
//! fold their completion time into its `ready_at`. Issuing an entry
//! walks its chain; a consumer whose `pending` reaches zero waits for
//! its `ready_at` in the *wake wheel* — 64 buckets of slot bitsets, one
//! per cycle, with an occupancy word — or, 64 or more cycles out, in
//! the `far` min-heap. An entry's *slot* is its seq modulo the ROB size
//! rounded up to a power of two, so ring order from the head's slot is
//! age order. Each cycle `issue` ORs the bucket of `now` into `ready`,
//! a bitset over slots, and select walks its set bits oldest first,
//! masking a unit class out of the walk once its units are spent and
//! stopping with the issue width. A load asks memory disambiguation
//! once: a table of in-flight-store counts per hashed 8-byte granule
//! clears it without a walk when no store can overlap, otherwise it
//! walks `store_q` (the in-flight stores in program order) and
//! remembers the youngest older overlapping store — which, dispatch and
//! commit both being in order, stays the deciding one for as long as it
//! is in flight. Every re-ask is one ROB lookup.
//!
//! Three ordering invariants make this select pick what an oldest-first
//! scan of the whole ROB would: every result completes strictly after
//! its issue cycle, so nothing woken during a select is selectable in
//! it; select runs in age order, so a store issued earlier in the cycle
//! is visible as issued to a younger load in the same cycle; and a
//! wheel key is never skipped, because [`Core::next_event_at`] reports
//! the nearest non-empty bucket and [`Core::advance_to`] takes the
//! blocked loads due at its departure cycle along.
//!
//! That horizon is complete without asking the memory side anything:
//! each [`MemoryPort`] call that starts a wait returns when it ends — a
//! load's latency and its presence-bit `ready_at` become `done_at`, a
//! `dma-synch`'s completion `synch_until`, an I-miss `fetch_resume_at` —
//! and memory-side state changes only inside such calls, which only a
//! tick that moves something makes. [`Core::skip_target`] therefore
//! clamps the horizon to the watchdog and the cycle budget and nothing
//! else.
//!
//! Cost model: a tick pays for what commits, issues, wakes or
//! dispatches, plus one lookup per disambiguation-blocked load;
//! [`Core::next_event_at`] pays for the blocked loads, one bucket and
//! one heap peek. Entries that only wait — the bulk of a full ROB behind
//! a cache miss — cost nothing, however many stores are in flight. The
//! scans this replaced are kept as test-only oracles: the structures
//! are checked against them, and select's picks against an oldest-first
//! walk of the ROB, on every tick of generated programs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod config;
pub mod pipeline;
pub mod port;
pub mod stats;

pub use branch::{BranchPredictor, Btb, Ras};
pub use config::{CoherenceConfig, CoherenceProtocol, CoreConfig, DramTiming, L3Geometry};
pub use pipeline::{Core, DeadlockReport, HostProfile, SimError, TickOutcome};
pub use port::{DmaKind, MemSide, MemoryPort, PortDiagnostics, RouteInfo};
pub use stats::CoreStats;
