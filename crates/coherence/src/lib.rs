//! # hsim-coherence — the paper's hardware/software coherence protocol
//!
//! This crate models the hardware contribution of *"Hardware-Software
//! Coherence Protocol for the Coexistence of Caches and Local Memories"*
//! (SC 2012) and the machinery to check its correctness argument:
//!
//! * [`directory`] — the per-core **coherence directory** (Figure 4): a
//!   32-entry CAM mapping system-memory base addresses to local-memory
//!   buffers, configured through Base/Offset mask registers, updated by
//!   every `dma-get`, looked up during address generation of guarded
//!   memory instructions, with a presence bit per entry for double
//!   buffering.
//! * [`state`] — the data-replication state machine of Figure 6
//!   (MM / LM / CM / LM-CM) with its legal transitions.
//! * [`tracker`] — a runtime checker that replays the machine's memory
//!   and DMA events through the state machine and asserts the paper's
//!   §3.4 invariants: replicated copies are either identical or the LM
//!   copy is the newest, and every access is served by a memory holding a
//!   valid copy.
//! * [`protocol`] — the **inter-core** protocol family as *data*, and
//!   its only statement: [`ProtocolTable`]s of guarded-action rows for
//!   [`CoherenceProtocol`] `{ Msi, Mesi, Moesi, Mesif }` over
//!   [`LineState`] × [`LineEvent`], plus [`DirLine`], the sharer/owner
//!   bookkeeping that alone consults them — stepped by the shared-L3
//!   directory slices and by the explorer below. Type-disjoint from the
//!   intra-tile machinery above: the paper's §3 claim that the hybrid
//!   protocol "does not interact with the inter-core cache coherence
//!   protocol" is pinned for every family member by the
//!   `protocols_do_not_interact_across_the_family` test.
//! * [`protocol_explorer`] — an exhaustive small-model (1 line, 2–4
//!   cores) enumeration of each table's reachable
//!   state × sharer-set × owner space, asserting SWMR, data-value and
//!   stuck-freedom, with shortest-counterexample traces on violation.
//!
//! The directory is deliberately independent of the pipeline model so it
//! can be exhaustively unit- and property-tested in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directory;
pub mod protocol;
pub mod protocol_explorer;
pub mod state;
pub mod tracker;

pub use directory::{DirConfig, DirError, DirHit, DirStats, Directory};
pub use protocol::{
    Action, CoherenceProtocol, DirLine, Guard, GuardCtx, LineEvent, LineState, Obligations,
    ProtocolTable, Rule, Stuck,
};
pub use protocol_explorer::{explore, replay, Exploration, ModelEvent, Violation};
pub use state::{DataEvent, DataState, TransitionError};
pub use tracker::{AccessSide, CoherenceViolation, Tracker};
