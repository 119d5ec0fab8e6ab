//! The **table-driven inter-core protocol family**: MSI, MESI, MOESI and
//! MESIF as declarative guarded-action tables over one shared state
//! ([`LineState`]) and event ([`LineEvent`]) vocabulary — the only
//! statement of the inter-core protocol in the repository.
//!
//! A [`ProtocolTable`] is a list of [`Rule`]s
//! `(state, event) → guard → (next_state, actions)`, evaluated
//! first-match-wins, in the guarded-action style of the GAL coherence
//! modeling papers. [`DirLine`] is the only code that consults a table:
//! the backside's directory slices step it under whichever table
//! [`CoherenceProtocol`] selects, so a protocol sweep is one config axis
//! — and the exhaustive small-model
//! [`protocol_explorer`](crate::protocol_explorer) steps the same
//! `DirLine`, so it model-checks the executed code.
//!
//! The four tables:
//!
//! * [`CoherenceProtocol::Msi`] — no Exclusive state: the first reader
//!   fills [`LineState::Shared`], and recalling a dirty line re-reads
//!   memory ([`Action::MemoryRead`]) because sharers may not forward.
//! * [`CoherenceProtocol::Mesi`] — the PR 4 protocol, row for row; a
//!   frozen golden of its 20 transitions pins the table.
//! * [`CoherenceProtocol::Moesi`] — adds [`LineState::Owned`]: a dirty
//!   line read by another core is supplied cache-to-cache
//!   ([`Action::CacheTransfer`]) and stays dirty at its owner instead of
//!   being written back on the S-fill, cutting DRAM write traffic.
//! * [`CoherenceProtocol::Mesif`] — adds [`LineState::Forward`]: a
//!   designated clean forwarder ([`Action::ClaimForward`] moves the
//!   designation to the newest reader) answers shared reads.
//!
//! Guards are the declarative residue of what the hand-written code
//! expressed with `if`s: a [`Guard`] inspects the *sharer context* of the
//! request (are there other sharers? is the requester the recorded
//! owner?) and selects among rows for the same `(state, event)` pair.
//! Actions are obligations the home slice must discharge — the table
//! never performs them, it only names them; [`DirLine`] decodes a row's
//! actions into [`Obligations`], and reports a table with no row for its
//! input as [`Stuck`].

use std::fmt;

/// The inter-core protocol family member a directory runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoherenceProtocol {
    /// Three-state Modified/Shared/Invalid (no silent-upgrade Exclusive;
    /// dirty recalls re-read memory).
    Msi,
    /// The PR 4 four-state protocol.
    Mesi,
    /// MESI plus an Owned state: dirty sharing via cache-to-cache
    /// transfer, write-backs deferred until the owner's copy is evicted.
    Moesi,
    /// MESI plus a Forward state: one designated clean forwarder per
    /// shared line.
    Mesif,
}

impl CoherenceProtocol {
    /// Every family member, in the order benches and CI sweep them.
    pub const ALL: [CoherenceProtocol; 4] = [
        CoherenceProtocol::Msi,
        CoherenceProtocol::Mesi,
        CoherenceProtocol::Moesi,
        CoherenceProtocol::Mesif,
    ];

    /// The lower-case knob / report name (`msi`, `mesi`, `moesi`,
    /// `mesif`).
    pub fn name(self) -> &'static str {
        match self {
            CoherenceProtocol::Msi => "msi",
            CoherenceProtocol::Mesi => "mesi",
            CoherenceProtocol::Moesi => "moesi",
            CoherenceProtocol::Mesif => "mesif",
        }
    }
}

/// Directory-side state of one shared line — the union of the four
/// protocols' state alphabets. Each table uses the subset it names;
/// the explorer proves the rest unreachable for that table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LineState {
    /// No upper copies (the line may still be L3-resident).
    #[default]
    Invalid,
    /// One or more clean copies above the shared cache.
    Shared,
    /// Exactly one clean copy, silent upgrade allowed (MESI/MOESI/MESIF).
    Exclusive,
    /// Exactly one dirty copy at the owner.
    Modified,
    /// The owner holds a dirty copy *and* other cores hold clean copies
    /// supplied cache-to-cache; memory is stale (MOESI only).
    Owned,
    /// Clean shared copies with one designated forwarder that answers
    /// reads (MESIF only).
    Forward,
}

impl LineState {
    /// States in which the shared cache / memory copy is stale against
    /// the owner's.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// States in which the `owner` field of a [`DirLine`] designates a
    /// specific core (the exclusive/dirty holder, or MESIF's forwarder).
    pub fn has_owner(self) -> bool {
        matches!(
            self,
            LineState::Exclusive | LineState::Modified | LineState::Owned | LineState::Forward
        )
    }
}

/// Line events as seen by the home directory slice — the column every
/// table's rows consume. `Local` means the event comes from a core
/// already recorded for the line (owner or sharer); `Remote` means it
/// comes from any other core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A read by a core already holding the line.
    LocalRead,
    /// A write (read-for-ownership or write-through) by the holder.
    LocalWrite,
    /// A read by a core not holding the line.
    RemoteRead,
    /// A write by a core not holding the line.
    RemoteWrite,
    /// The line leaves the shared cache (capacity eviction or DMA
    /// invalidation): every copy above must be recalled.
    Evict,
}

/// The guard column of a [`Rule`]: a predicate over the request's sharer
/// context, letting one `(state, event)` pair dispatch to different rows.
/// Rows are tried in table order; the first whose guard holds wins, so
/// specific guards precede [`Guard::Always`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Unconditional (the catch-all row).
    Always,
    /// Cores other than the requester hold copies.
    OtherSharers,
    /// No core other than the requester holds a copy.
    NoOtherSharers,
    /// The requester is the recorded owner of the line.
    RequesterIsOwner,
    /// The requester is not the recorded owner.
    RequesterNotOwner,
}

/// The sharer context a [`Guard`] is evaluated against.
#[derive(Clone, Copy, Debug, Default)]
pub struct GuardCtx {
    /// Cores other than the requester hold copies of the line.
    pub other_sharers: bool,
    /// The requester is the line's recorded owner (meaningful only in
    /// states where [`LineState::has_owner`] holds).
    pub requester_is_owner: bool,
}

impl Guard {
    /// Evaluates the guard against a request's sharer context.
    pub fn holds(self, ctx: GuardCtx) -> bool {
        match self {
            Guard::Always => true,
            Guard::OtherSharers => ctx.other_sharers,
            Guard::NoOtherSharers => !ctx.other_sharers,
            Guard::RequesterIsOwner => ctx.requester_is_owner,
            Guard::RequesterNotOwner => !ctx.requester_is_owner,
        }
    }
}

/// One obligation a transition imposes on the home slice. The table
/// *names* obligations; the backside (or the explorer's abstract memory
/// model) discharges them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// The previous owner's dirty data must be written back to memory.
    Writeback,
    /// Every copy above the shared cache other than the requester's must
    /// be invalidated.
    InvalidateSharers,
    /// The owner supplies the line cache-to-cache to the requester
    /// (MOESI dirty sharing); memory is *not* updated.
    CacheTransfer,
    /// The line must be re-read from memory to serve the request (MSI:
    /// sharers cannot forward, so a recalled dirty line is re-fetched).
    MemoryRead,
    /// The requester becomes the line's designated forwarder (MESIF).
    ClaimForward,
}

/// One guarded-action row of a protocol table.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Directory state the row applies in.
    pub state: LineState,
    /// Event the row consumes.
    pub event: LineEvent,
    /// Predicate selecting this row among same-`(state, event)` rows.
    pub guard: Guard,
    /// Successor state.
    pub next: LineState,
    /// Obligations the transition imposes.
    pub actions: &'static [Action],
}

/// Shorthand for writing the const rule arrays.
const fn rule(
    state: LineState,
    event: LineEvent,
    guard: Guard,
    next: LineState,
    actions: &'static [Action],
) -> Rule {
    Rule {
        state,
        event,
        guard,
        next,
        actions,
    }
}

use Action::{CacheTransfer, ClaimForward, InvalidateSharers, MemoryRead, Writeback};
use Guard::{Always, RequesterIsOwner};
use LineEvent::{Evict, LocalRead, LocalWrite, RemoteRead, RemoteWrite};
use LineState::{Exclusive, Forward, Invalid, Modified, Owned, Shared};

/// MSI: no Exclusive state — the first reader fills Shared — and a
/// recalled dirty line is re-read from memory (no forwarding).
const MSI_RULES: &[Rule] = &[
    rule(Invalid, LocalRead, Always, Shared, &[]),
    rule(Invalid, RemoteRead, Always, Shared, &[]),
    rule(Invalid, LocalWrite, Always, Modified, &[]),
    rule(Invalid, RemoteWrite, Always, Modified, &[]),
    rule(Invalid, Evict, Always, Invalid, &[]),
    rule(Shared, LocalRead, Always, Shared, &[]),
    rule(Shared, RemoteRead, Always, Shared, &[]),
    rule(Shared, LocalWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, RemoteWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Modified, LocalRead, Always, Modified, &[]),
    rule(Modified, LocalWrite, Always, Modified, &[]),
    rule(
        Modified,
        RemoteRead,
        Always,
        Shared,
        &[Writeback, MemoryRead],
    ),
    rule(
        Modified,
        RemoteWrite,
        Always,
        Modified,
        &[Writeback, InvalidateSharers, MemoryRead],
    ),
    rule(
        Modified,
        Evict,
        Always,
        Invalid,
        &[Writeback, InvalidateSharers],
    ),
];

/// MESI: row-for-row the PR 4 protocol; the frozen golden of its 20
/// transitions pins the correspondence.
const MESI_RULES: &[Rule] = &[
    rule(Invalid, LocalRead, Always, Exclusive, &[]),
    rule(Invalid, RemoteRead, Always, Exclusive, &[]),
    rule(Invalid, LocalWrite, Always, Modified, &[]),
    rule(Invalid, RemoteWrite, Always, Modified, &[]),
    rule(Invalid, Evict, Always, Invalid, &[]),
    rule(Exclusive, LocalRead, Always, Exclusive, &[]),
    // Silent E -> M upgrade: no bus traffic.
    rule(Exclusive, LocalWrite, Always, Modified, &[]),
    rule(Exclusive, RemoteRead, Always, Shared, &[]),
    rule(
        Exclusive,
        RemoteWrite,
        Always,
        Modified,
        &[InvalidateSharers],
    ),
    rule(Exclusive, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Shared, LocalRead, Always, Shared, &[]),
    rule(Shared, RemoteRead, Always, Shared, &[]),
    rule(Shared, LocalWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, RemoteWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Modified, LocalRead, Always, Modified, &[]),
    rule(Modified, LocalWrite, Always, Modified, &[]),
    // M-state intervention: owner's data written back, reader joins S.
    rule(Modified, RemoteRead, Always, Shared, &[Writeback]),
    rule(
        Modified,
        RemoteWrite,
        Always,
        Modified,
        &[Writeback, InvalidateSharers],
    ),
    rule(
        Modified,
        Evict,
        Always,
        Invalid,
        &[Writeback, InvalidateSharers],
    ),
];

/// MOESI: MESI plus the Owned state. A dirty line read by another core
/// moves M → O with a cache-to-cache transfer instead of a write-back;
/// the write-back is deferred to the owner's eviction.
const MOESI_RULES: &[Rule] = &[
    rule(Invalid, LocalRead, Always, Exclusive, &[]),
    rule(Invalid, RemoteRead, Always, Exclusive, &[]),
    rule(Invalid, LocalWrite, Always, Modified, &[]),
    rule(Invalid, RemoteWrite, Always, Modified, &[]),
    rule(Invalid, Evict, Always, Invalid, &[]),
    rule(Exclusive, LocalRead, Always, Exclusive, &[]),
    rule(Exclusive, LocalWrite, Always, Modified, &[]),
    rule(Exclusive, RemoteRead, Always, Shared, &[]),
    rule(
        Exclusive,
        RemoteWrite,
        Always,
        Modified,
        &[InvalidateSharers],
    ),
    rule(Exclusive, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Shared, LocalRead, Always, Shared, &[]),
    rule(Shared, RemoteRead, Always, Shared, &[]),
    rule(Shared, LocalWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, RemoteWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Modified, LocalRead, Always, Modified, &[]),
    rule(Modified, LocalWrite, Always, Modified, &[]),
    // Dirty sharing: the owner supplies the reader cache-to-cache and
    // keeps its dirty copy — no write-back on the S-fill.
    rule(Modified, RemoteRead, Always, Owned, &[CacheTransfer]),
    rule(
        Modified,
        RemoteWrite,
        Always,
        Modified,
        &[CacheTransfer, InvalidateSharers],
    ),
    rule(
        Modified,
        Evict,
        Always,
        Invalid,
        &[Writeback, InvalidateSharers],
    ),
    // Owned: the owner re-reads its own dirty copy for free; any other
    // reader is supplied by the owner.
    rule(Owned, LocalRead, RequesterIsOwner, Owned, &[]),
    rule(Owned, LocalRead, Always, Owned, &[CacheTransfer]),
    rule(Owned, RemoteRead, Always, Owned, &[CacheTransfer]),
    // Upgrading the owned line: the owner invalidates the clean sharers
    // it has been feeding; a non-owner writer additionally takes the
    // dirty data cache-to-cache.
    rule(
        Owned,
        LocalWrite,
        RequesterIsOwner,
        Modified,
        &[InvalidateSharers],
    ),
    rule(
        Owned,
        LocalWrite,
        Always,
        Modified,
        &[CacheTransfer, InvalidateSharers],
    ),
    rule(
        Owned,
        RemoteWrite,
        Always,
        Modified,
        &[CacheTransfer, InvalidateSharers],
    ),
    rule(
        Owned,
        Evict,
        Always,
        Invalid,
        &[Writeback, InvalidateSharers],
    ),
];

/// MESIF: MESI plus the Forward state — the newest clean reader is the
/// designated forwarder for subsequent shared reads.
const MESIF_RULES: &[Rule] = &[
    rule(Invalid, LocalRead, Always, Exclusive, &[]),
    rule(Invalid, RemoteRead, Always, Exclusive, &[]),
    rule(Invalid, LocalWrite, Always, Modified, &[]),
    rule(Invalid, RemoteWrite, Always, Modified, &[]),
    rule(Invalid, Evict, Always, Invalid, &[]),
    rule(Exclusive, LocalRead, Always, Exclusive, &[]),
    rule(Exclusive, LocalWrite, Always, Modified, &[]),
    // The second reader becomes the forwarder.
    rule(Exclusive, RemoteRead, Always, Forward, &[ClaimForward]),
    rule(
        Exclusive,
        RemoteWrite,
        Always,
        Modified,
        &[InvalidateSharers],
    ),
    rule(Exclusive, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Shared, LocalRead, Always, Shared, &[]),
    // A forwarderless line (the forwarder wrote back) re-designates on
    // the next remote read.
    rule(Shared, RemoteRead, Always, Forward, &[ClaimForward]),
    rule(Shared, LocalWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, RemoteWrite, Always, Modified, &[InvalidateSharers]),
    rule(Shared, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Forward, LocalRead, Always, Forward, &[]),
    // Forwarder hand-off: the newest reader takes the designation.
    rule(Forward, RemoteRead, Always, Forward, &[ClaimForward]),
    rule(Forward, LocalWrite, Always, Modified, &[InvalidateSharers]),
    rule(Forward, RemoteWrite, Always, Modified, &[InvalidateSharers]),
    rule(Forward, Evict, Always, Invalid, &[InvalidateSharers]),
    rule(Modified, LocalRead, Always, Modified, &[]),
    rule(Modified, LocalWrite, Always, Modified, &[]),
    // Intervention, and the reader becomes the (clean) forwarder.
    rule(
        Modified,
        RemoteRead,
        Always,
        Forward,
        &[Writeback, ClaimForward],
    ),
    rule(
        Modified,
        RemoteWrite,
        Always,
        Modified,
        &[Writeback, InvalidateSharers],
    ),
    rule(
        Modified,
        Evict,
        Always,
        Invalid,
        &[Writeback, InvalidateSharers],
    ),
];

/// One protocol's rule table, consulted by [`DirLine`]. Built from the
/// const family tables by [`ProtocolTable::new`], or from arbitrary rows
/// by [`ProtocolTable::from_rules`] (test mutants for the explorer's
/// diagnostics coverage).
#[derive(Clone, Debug)]
pub struct ProtocolTable {
    name: &'static str,
    rules: Vec<Rule>,
}

impl ProtocolTable {
    /// The table of one family member.
    pub fn new(protocol: CoherenceProtocol) -> Self {
        let rules = match protocol {
            CoherenceProtocol::Msi => MSI_RULES,
            CoherenceProtocol::Mesi => MESI_RULES,
            CoherenceProtocol::Moesi => MOESI_RULES,
            CoherenceProtocol::Mesif => MESIF_RULES,
        };
        ProtocolTable {
            name: protocol.name(),
            rules: rules.to_vec(),
        }
    }

    /// A table from explicit rows — for explorer tests that deliberately
    /// break a protocol and assert the violation is caught.
    pub fn from_rules(name: &'static str, rules: Vec<Rule>) -> Self {
        ProtocolTable { name, rules }
    }

    /// The table's report name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The rows (explorer mutants filter/patch these).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The row deciding one event: the first matching `(state, event)`
    /// whose guard holds. `None` means no row matched — a [`Stuck`]
    /// table (the four shipped tables are total over their reachable
    /// spaces, which the explorer proves).
    pub fn row(&self, state: LineState, event: LineEvent, ctx: GuardCtx) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.state == state && r.event == event && r.guard.holds(ctx))
    }
}

/// A table with no row for the input a [`DirLine`] presented — a
/// protocol bug. The explorer reports it as a `"stuck-state"` violation
/// with a trace; the product path panics with its `Display`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stuck {
    /// The table's report name.
    pub table: &'static str,
    /// The directory state the line was in.
    pub state: LineState,
    /// The event no row consumes in that state.
    pub event: LineEvent,
}

impl fmt::Display for Stuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol table '{}' is stuck: no row for ({:?}, {:?})",
            self.table, self.state, self.event
        )
    }
}

/// The discharged obligations of one directory operation on a
/// [`DirLine`] — what the home slice owes, with the sharer bookkeeping
/// already applied to the line. Timing-free: the backside charges
/// latencies and posts DRAM traffic from these flags; the explorer moves
/// its abstract data-version model from the same flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Obligations {
    /// The pre-transition owner's dirty data goes to memory (charged to
    /// that owner).
    pub writeback: bool,
    /// The pre-transition owner (meaningful when `writeback` or
    /// `cache_transfer` is set).
    pub old_owner: usize,
    /// Bitset of cores whose upper copies must be recalled (already
    /// removed from the line's sharer set).
    pub invalidate: u64,
    /// The line moves cache-to-cache from `old_owner` to the requester.
    pub cache_transfer: bool,
    /// The request is additionally served by a memory read.
    pub memory_read: bool,
    /// Another core's dirty copy was recalled to serve this request
    /// (write-back or cache-to-cache) — the MSHR intervention flag.
    pub intervention: bool,
    /// A read was served while other cores share the line (the
    /// replication traffic the directory saved).
    pub shared_hit: bool,
}

/// One shared line's directory record: protocol state plus what the
/// state enum cannot carry — the sharer bitset and the owner. This is
/// the bookkeeping the product backside *and* the model-checking
/// explorer both step, so the explorer checks the executed code, not a
/// re-implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DirLine {
    /// Directory state of the copies above the shared cache.
    pub state: LineState,
    /// Bitset of cores holding copies.
    pub sharers: u64,
    /// The owner/forwarder core (meaningful when
    /// [`LineState::has_owner`]).
    pub owner: usize,
}

impl DirLine {
    /// A line with no upper copies.
    pub fn empty() -> Self {
        DirLine {
            state: LineState::Invalid,
            sharers: 0,
            owner: 0,
        }
    }

    /// A freshly L3-resident line filled by `core` (`write` = RFO):
    /// steps the table's Invalid row, making the requester the sole
    /// holder in whatever state the table fills to.
    pub fn fill(table: &ProtocolTable, core: usize, write: bool) -> Result<Self, Stuck> {
        let mut line = DirLine::empty();
        line.access(table, core, write)?;
        Ok(line)
    }

    /// Whether `core` is recorded as holding a copy above the shared
    /// cache.
    pub fn holds(&self, core: usize) -> bool {
        match self.state {
            LineState::Invalid => false,
            LineState::Exclusive | LineState::Modified => self.owner == core,
            LineState::Shared | LineState::Owned | LineState::Forward => {
                self.sharers & (1 << core) != 0
            }
        }
    }

    /// The protocol event an access by `core` presents to the home
    /// slice: local if the core is recorded for the line, remote
    /// otherwise.
    fn event_for(&self, core: usize, write: bool) -> LineEvent {
        match (write, self.holds(core)) {
            (false, true) => LineEvent::LocalRead,
            (false, false) => LineEvent::RemoteRead,
            (true, true) => LineEvent::LocalWrite,
            (true, false) => LineEvent::RemoteWrite,
        }
    }

    /// The guard context an access by `core` is evaluated under.
    fn ctx_for(&self, core: usize) -> GuardCtx {
        GuardCtx {
            other_sharers: self.sharers & !(1u64 << core) != 0,
            requester_is_owner: self.state.has_owner() && self.owner == core,
        }
    }

    /// The one consult of the table behind every operation: the row moves
    /// the line to its successor state, and its actions decode into the
    /// obligations owed (`invalidate` = every recorded sharer, for the
    /// caller to narrow) and whether the requester claims the forwarder.
    fn consult(
        &mut self,
        table: &ProtocolTable,
        event: LineEvent,
        ctx: GuardCtx,
    ) -> Result<(Obligations, bool), Stuck> {
        let row = table.row(self.state, event, ctx).ok_or(Stuck {
            table: table.name(),
            state: self.state,
            event,
        })?;
        let mut ob = Obligations {
            old_owner: self.owner,
            ..Default::default()
        };
        let mut claim_forward = false;
        for a in row.actions {
            match a {
                Action::Writeback => ob.writeback = true,
                Action::InvalidateSharers => ob.invalidate = self.sharers,
                Action::CacheTransfer => ob.cache_transfer = true,
                Action::MemoryRead => ob.memory_read = true,
                Action::ClaimForward => claim_forward = true,
            }
        }
        ob.intervention = ob.writeback || ob.cache_transfer;
        self.state = row.next;
        Ok((ob, claim_forward))
    }

    /// One access (read/prefetch or write) by `core`: steps the table
    /// and applies the sharer/owner bookkeeping. Invalidation is
    /// action-driven — only a row carrying
    /// [`Action::InvalidateSharers`] recalls the other sharers, so a
    /// table that forgets the action leaves stale sharers behind for the
    /// explorer to catch.
    pub fn access(
        &mut self,
        table: &ProtocolTable,
        core: usize,
        write: bool,
    ) -> Result<Obligations, Stuck> {
        let me = 1u64 << core;
        let was = self.state;
        let others = self.sharers & !me;
        let (mut ob, claim_forward) =
            self.consult(table, self.event_for(core, write), self.ctx_for(core))?;
        if write {
            ob.invalidate &= others;
            self.owner = core;
            self.sharers = me | (others & !ob.invalidate);
        } else {
            ob.invalidate = 0;
            ob.shared_hit = !ob.intervention && others != 0;
            if was == LineState::Invalid || claim_forward {
                self.owner = core;
            }
            self.sharers |= me;
        }
        Ok(ob)
    }

    /// The line leaves the shared cache (capacity eviction or DMA
    /// invalidation): every upper copy is recalled; a dirty owner's data
    /// is written back when the table's Evict row says so.
    pub fn evict(&mut self, table: &ProtocolTable) -> Result<Obligations, Stuck> {
        let ctx = GuardCtx {
            other_sharers: self.sharers != 0,
            requester_is_owner: false,
        };
        let (mut ob, _) = self.consult(table, LineEvent::Evict, ctx)?;
        debug_assert_eq!(
            self.state,
            LineState::Invalid,
            "eviction must empty the line"
        );
        // Every upper copy is recalled regardless of the action — the
        // copies are gone with the home line either way.
        ob.invalidate = self.sharers;
        self.sharers = 0;
        Ok(ob)
    }

    /// `core`'s L2 wrote the line back (upper eviction cascade): its
    /// sharer bit clears, and a departing owner demotes the line to
    /// Shared (or Invalid when it was the last holder).
    pub fn writeback_from(&mut self, core: usize) {
        let me = 1u64 << core;
        self.sharers &= !me;
        if self.state.has_owner() && self.owner == core {
            self.state = if self.sharers == 0 {
                LineState::Invalid
            } else {
                LineState::Shared
            };
        }
    }

    /// A non-caching reader (DMA snoop) hits a line dirty at another
    /// core: steps the RemoteRead row to recall the data, but leaves the
    /// sharer set and owner untouched — the DMA never joins the sharers.
    /// Returns `None` when the line is not dirty at another core.
    pub fn snoop_recall(
        &mut self,
        table: &ProtocolTable,
        core: usize,
    ) -> Result<Option<Obligations>, Stuck> {
        if !(self.state.is_dirty() && self.owner != core) {
            return Ok(None);
        }
        let (mut ob, _) = self.consult(table, LineEvent::RemoteRead, self.ctx_for(core))?;
        ob.invalidate = 0;
        Ok(Some(ob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS: [LineEvent; 5] = [LocalRead, LocalWrite, RemoteRead, RemoteWrite, Evict];

    /// Every guard context a row can be consulted under.
    fn every_ctx() -> impl Iterator<Item = GuardCtx> {
        [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(|(other_sharers, requester_is_owner)| GuardCtx {
                other_sharers,
                requester_is_owner,
            })
    }

    /// Frozen golden of the PR 4 hand-written MESI `step`: its 20
    /// `(state, event) → (next, writeback, invalidate)` transitions,
    /// which the Mesi table reproduces under every guard context without
    /// firing a family-extension action. Stepping is memoryless, so
    /// covering every input covers every event trace.
    #[test]
    fn mesi_table_matches_handwritten_step_exhaustively() {
        const PR4: [(LineState, LineEvent, LineState, bool, bool); 20] = [
            (Invalid, LocalRead, Exclusive, false, false),
            (Invalid, LocalWrite, Modified, false, false),
            (Invalid, RemoteRead, Exclusive, false, false),
            (Invalid, RemoteWrite, Modified, false, false),
            (Invalid, Evict, Invalid, false, false),
            (Exclusive, LocalRead, Exclusive, false, false),
            (Exclusive, LocalWrite, Modified, false, false),
            (Exclusive, RemoteRead, Shared, false, false),
            (Exclusive, RemoteWrite, Modified, false, true),
            (Exclusive, Evict, Invalid, false, true),
            (Shared, LocalRead, Shared, false, false),
            (Shared, LocalWrite, Modified, false, true),
            (Shared, RemoteRead, Shared, false, false),
            (Shared, RemoteWrite, Modified, false, true),
            (Shared, Evict, Invalid, false, true),
            (Modified, LocalRead, Modified, false, false),
            (Modified, LocalWrite, Modified, false, false),
            (Modified, RemoteRead, Shared, true, false),
            (Modified, RemoteWrite, Modified, true, true),
            (Modified, Evict, Invalid, true, true),
        ];
        let table = ProtocolTable::new(CoherenceProtocol::Mesi);
        for (state, event, next, writeback, invalidate) in PR4 {
            for ctx in every_ctx() {
                let row = table.row(state, event, ctx).expect("mesi table is total");
                let has = |a| row.actions.contains(&a);
                assert_eq!(
                    (row.next, has(Writeback), has(InvalidateSharers)),
                    (next, writeback, invalidate),
                    "({state:?}, {event:?}) under {ctx:?}"
                );
                assert!(
                    row.actions
                        .iter()
                        .all(|&a| a == Writeback || a == InvalidateSharers),
                    "mesi emits no family-extension actions ({state:?}, {event:?})"
                );
            }
        }
        assert!(
            table
                .rules()
                .iter()
                .all(|r| PR4.iter().any(|t| (t.0, t.1) == (r.state, r.event))),
            "mesi has no row outside the PR 4 alphabet"
        );
    }

    /// All four tables are total over their full declared state × event
    /// grid under every guard context *for the states the table names* —
    /// stuck-freedom over the reachable subset is the explorer's job;
    /// this is the cheap static sanity pass.
    #[test]
    fn all_tables_are_total_over_their_states() {
        for p in CoherenceProtocol::ALL {
            let table = ProtocolTable::new(p);
            let mut states: Vec<LineState> = table.rules().iter().map(|r| r.state).collect();
            states.dedup();
            for &st in &states {
                for e in EVENTS {
                    for ctx in every_ctx() {
                        assert!(
                            table.row(st, e, ctx).is_some(),
                            "{}: no row for ({st:?}, {e:?})",
                            p.name()
                        );
                    }
                }
            }
        }
    }

    /// A missing row is a [`Stuck`] naming the table, state and event —
    /// the text the product path panics with — and leaves the line as it
    /// was.
    #[test]
    fn a_missing_row_is_stuck_and_says_where() {
        let rules = ProtocolTable::new(CoherenceProtocol::Mesi)
            .rules()
            .iter()
            .filter(|r| !(r.state == Shared && r.event == Evict))
            .copied()
            .collect();
        let table = ProtocolTable::from_rules("mesi-no-shared-evict", rules);
        let mut line = DirLine::fill(&table, 0, false).expect("the fill rows remain");
        line.access(&table, 1, false)
            .expect("the share rows remain");
        let before = line;
        let stuck = line.evict(&table).expect_err("no (Shared, Evict) row");
        assert_eq!(line, before);
        assert_eq!(
            stuck.to_string(),
            "protocol table 'mesi-no-shared-evict' is stuck: no row for (Shared, Evict)"
        );
    }

    #[test]
    fn msi_has_no_exclusive_and_rereads_memory_on_dirty_recall() -> Result<(), Stuck> {
        let table = ProtocolTable::new(CoherenceProtocol::Msi);
        let mut line = DirLine::fill(&table, 0, false)?;
        assert_eq!(line.state, LineState::Shared, "first reader fills Shared");
        let mut dirty = DirLine::fill(&table, 0, true)?;
        assert_eq!(dirty.state, LineState::Modified);
        let ob = dirty.access(&table, 1, false)?;
        assert!(ob.writeback && ob.memory_read && ob.intervention);
        assert_eq!(dirty.state, LineState::Shared);
        // A write while alone still costs no invalidation round.
        let ob = line.access(&table, 0, true)?;
        assert_eq!(ob.invalidate, 0);
        assert_eq!(line.state, LineState::Modified);
        Ok(())
    }

    #[test]
    fn moesi_dirty_sharing_skips_the_writeback() -> Result<(), Stuck> {
        let table = ProtocolTable::new(CoherenceProtocol::Moesi);
        let mut line = DirLine::fill(&table, 0, true)?;
        assert_eq!(line.state, LineState::Modified);
        // Remote read: cache-to-cache, no write-back, owner keeps dirty.
        let ob = line.access(&table, 1, false)?;
        assert!(ob.cache_transfer && !ob.writeback && ob.intervention);
        assert_eq!(line.state, LineState::Owned);
        assert_eq!(line.owner, 0, "dirty owner unchanged");
        assert!(line.holds(0) && line.holds(1));
        // The owner re-reads its own line for free.
        let ob = line.access(&table, 0, false)?;
        assert!(!ob.cache_transfer && !ob.writeback);
        // Owner upgrade: invalidate the fed sharers, no transfer.
        let ob = line.access(&table, 0, true)?;
        assert_eq!(ob.invalidate, 1 << 1);
        assert!(!ob.cache_transfer);
        assert_eq!(line.state, LineState::Modified);
        assert_eq!(line.sharers, 1 << 0);
        // Eviction of the dirty line finally pays the write-back.
        let ob = line.evict(&table)?;
        assert!(ob.writeback);
        assert_eq!(ob.old_owner, 0);
        Ok(())
    }

    #[test]
    fn mesif_designates_and_hands_off_the_forwarder() -> Result<(), Stuck> {
        let table = ProtocolTable::new(CoherenceProtocol::Mesif);
        let mut line = DirLine::fill(&table, 0, false)?;
        assert_eq!(line.state, LineState::Exclusive);
        // Second reader becomes the forwarder.
        let ob = line.access(&table, 1, false)?;
        assert!(ob.shared_hit);
        assert_eq!(line.state, LineState::Forward);
        assert_eq!(line.owner, 1);
        // Third reader takes the designation over.
        line.access(&table, 2, false)?;
        assert_eq!(line.owner, 2);
        assert_eq!(line.sharers, 0b111);
        // The forwarder writes: everyone else is recalled.
        let ob = line.access(&table, 2, true)?;
        assert_eq!(ob.invalidate, 0b011);
        assert_eq!(line.state, LineState::Modified);
        assert_eq!(line.sharers, 1 << 2);
        Ok(())
    }

    /// Satellite: the §3 non-interaction claim holds for the whole
    /// family — interleaving hybrid (Figure 6) traffic with each
    /// protocol table's traffic moves neither machine off its isolated
    /// reference run.
    #[test]
    fn protocols_do_not_interact_across_the_family() -> Result<(), Stuck> {
        use crate::state::{DataEvent as H, DataState};
        let hybrid_events = [
            H::LmMap,
            H::CmAccess,
            H::CmEvict,
            H::LmWriteback,
            H::LmUnmap,
        ];
        // One read-share/write/evict episode; cores 0..2 on one line.
        let ops: [(usize, bool); 5] = [(0, false), (1, false), (2, true), (2, false), (0, true)];
        for p in CoherenceProtocol::ALL {
            let table = ProtocolTable::new(p);

            // Interleaved run.
            let mut hybrid = DataState::MM;
            let mut line = DirLine::empty();
            for (h, &(core, write)) in hybrid_events.iter().zip(&ops) {
                hybrid = hybrid.step(*h).expect("legal hybrid sequence");
                line.access(&table, core, write)?;
            }

            // Isolated reference runs.
            let mut hybrid_alone = DataState::MM;
            for h in &hybrid_events {
                hybrid_alone = hybrid_alone.step(*h).expect("legal hybrid sequence");
            }
            let mut line_alone = DirLine::empty();
            for &(core, write) in &ops {
                line_alone.access(&table, core, write)?;
            }

            assert_eq!(
                hybrid,
                hybrid_alone,
                "{} traffic must not move the hybrid machine",
                p.name()
            );
            assert_eq!(
                line,
                line_alone,
                "hybrid traffic must not move the {} machine",
                p.name()
            );
        }
        Ok(())
    }
}
