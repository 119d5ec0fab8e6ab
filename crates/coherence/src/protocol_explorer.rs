//! **Exhaustive small-model explorer** for the inter-core protocol
//! family: the model-checking discipline of the BedRock/CXL coherence
//! papers, run as an ordinary `cargo test`.
//!
//! The model is deliberately tiny — **one line, 2–4 cores** — but
//! *complete*: starting from the empty directory, the explorer applies
//! every applicable event ([`ModelEvent`]) in every reachable
//! configuration, enumerating the full reachable
//! `directory-state × sharer-set × owner` space of a [`ProtocolTable`]
//! by breadth-first search. Data is abstracted to a *version* model: a
//! boolean per copy (core copies and the memory/L3 copy) saying whether
//! it holds the **latest-written** version. That abstraction is what
//! bounds the space (a few thousand states at 4 cores) while still
//! expressing the invariants that matter:
//!
//! * **SWMR** — at most one writable copy: in `Exclusive`/`Modified` the
//!   sharer set is exactly the owner, and a dirty line's owner is
//!   recorded as holding it. A table that forgets an invalidation leaves
//!   a second sharer recorded behind a Modified line, which this check
//!   catches.
//! * **Data-value** — a read after the last write observes it: every
//!   recorded copy holds the latest version, reads (and DMA snoops) are
//!   served from a latest-version copy, and whenever the line is not
//!   dirty the memory/L3 copy is current (so eviction and refill cannot
//!   resurrect stale data).
//! * **No stuck states** — every applicable event in every reachable
//!   configuration has a matching table row (totality over the
//!   *reachable* space, which is the part that matters).
//!
//! On a violation the explorer returns the **shortest** event trace
//! reaching it (BFS order guarantees minimality), and [`replay`] runs a
//! trace back through the model so a counterexample is independently
//! checkable. What the small model does **not** prove: anything about
//! timing, about multiple lines (the directory is per-line, so one line
//! is the protocol's whole state), or about event sequences the
//! backside can never generate (the model over-approximates: it allows
//! every interleaving, so passing it is strictly stronger than passing
//! the machine's reachable subset).
//!
//! The explorer steps the same [`DirLine`] bookkeeping the cycle-level
//! backside steps — it model-checks the executed code, not a
//! re-implementation of it.

use crate::protocol::{DirLine, LineState, ProtocolTable, Stuck};
use std::collections::HashMap;
use std::fmt;

/// One event of the small model: the protocol-visible things any core
/// (or the DMA engine, or the shared cache itself) can do to the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelEvent {
    /// A (demand or prefetch) read by the core.
    Read(usize),
    /// A write (RFO or write-through) by the core.
    Write(usize),
    /// The core's upper cache evicts its copy back to the shared cache
    /// (only applicable while the core is recorded as a holder).
    WritebackFrom(usize),
    /// A DMA transfer on behalf of the core snoops the line without
    /// joining the sharers (only applicable while the core holds no
    /// copy).
    Snoop(usize),
    /// The shared cache evicts the line (capacity or DMA invalidation):
    /// every upper copy is recalled.
    Evict,
}

impl fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelEvent::Read(c) => write!(f, "Read(core{c})"),
            ModelEvent::Write(c) => write!(f, "Write(core{c})"),
            ModelEvent::WritebackFrom(c) => write!(f, "WritebackFrom(core{c})"),
            ModelEvent::Snoop(c) => write!(f, "Snoop(core{c})"),
            ModelEvent::Evict => write!(f, "Evict"),
        }
    }
}

/// An invariant violation with its shortest counterexample trace.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke: `"swmr"`, `"data-value"` or
    /// `"stuck-state"`.
    pub invariant: &'static str,
    /// What exactly is wrong in the violating configuration.
    pub detail: String,
    /// The shortest event interleaving reaching the violation (BFS
    /// guarantees no shorter one exists).
    pub trace: Vec<ModelEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} violation: {}", self.invariant, self.detail)?;
        writeln!(f, "shortest counterexample ({} events):", self.trace.len())?;
        for (i, e) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {e}", i + 1)?;
        }
        Ok(())
    }
}

/// Summary of a completed (violation-free) exploration.
#[derive(Clone, Copy, Debug)]
pub struct Exploration {
    /// Distinct reachable configurations (directory state × sharer set
    /// × owner × data-version abstraction).
    pub states: usize,
    /// Transitions taken (applicable events summed over all states).
    pub transitions: usize,
}

/// The abstract configuration the explorer enumerates: the directory
/// record plus the data-version abstraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Model {
    line: DirLine,
    /// The memory/L3 copy holds the latest-written version.
    mem_latest: bool,
    /// Bitset: cores whose upper copy holds the latest version.
    fresh: u64,
}

impl Model {
    fn initial() -> Self {
        Model {
            line: DirLine::empty(),
            mem_latest: true,
            fresh: 0,
        }
    }

    /// The invariant check every reachable configuration must pass.
    fn check(&self, cores: usize) -> Result<(), (&'static str, String)> {
        let l = &self.line;
        // SWMR (structural form): an exclusive-write-capable state has
        // exactly one recorded holder, and a dirty line's owner holds it.
        let structural_ok = match l.state {
            LineState::Invalid => l.sharers == 0,
            LineState::Exclusive | LineState::Modified => l.sharers == 1 << l.owner,
            LineState::Owned | LineState::Forward => l.sharers & (1 << l.owner) != 0,
            LineState::Shared => true,
        };
        if !structural_ok {
            return Err((
                "swmr",
                format!(
                    "{:?} line must have exactly its owner (core{}) recorded, \
                     but the sharer set is {:#b}",
                    l.state, l.owner, l.sharers
                ),
            ));
        }
        // Data-value: every recorded copy is the latest version.
        for c in 0..cores {
            if l.holds(c) && self.fresh & (1 << c) == 0 {
                return Err((
                    "data-value",
                    format!(
                        "core{c} is recorded as holding the line in {:?} but its \
                         copy is stale against the last write",
                        l.state
                    ),
                ));
            }
        }
        // Data-value: a clean line's home copy is current, so refills
        // after eviction serve the last write.
        if !l.state.is_dirty() && !self.mem_latest {
            return Err((
                "data-value",
                format!(
                    "line is {:?} (clean) but the memory/L3 copy misses the \
                     last write — a refill would read stale data",
                    l.state
                ),
            ));
        }
        Ok(())
    }

    /// Whether `event` is applicable in this configuration.
    fn applicable(&self, event: ModelEvent) -> bool {
        match event {
            ModelEvent::Read(_) | ModelEvent::Write(_) | ModelEvent::Evict => true,
            ModelEvent::WritebackFrom(c) => self.line.holds(c),
            ModelEvent::Snoop(c) => !self.line.holds(c),
        }
    }

    /// Applies one applicable event, moving the data-version abstraction
    /// per the discharged obligations. `Err` is an *event-level*
    /// violation: a table with no row for the event (`"stuck-state"`),
    /// or a read served from a stale copy (`"data-value"`).
    fn apply(
        &mut self,
        table: &ProtocolTable,
        event: ModelEvent,
    ) -> Result<(), (&'static str, String)> {
        let stuck = |s: Stuck| ("stuck-state", s.to_string());
        match event {
            ModelEvent::Read(c) => {
                // A dirty line's owner reads its own copy (dirty data
                // never leaves the owner's caches silently — only via
                // WritebackFrom, which the directory sees).
                let dirty_at_self = self.line.state.is_dirty() && self.line.owner == c;
                let ob = self.line.access(table, c, false).map_err(stuck)?;
                let owner_fresh = self.fresh & (1 << ob.old_owner) != 0;
                if ob.writeback {
                    self.mem_latest = owner_fresh;
                }
                let served_latest = if ob.cache_transfer {
                    owner_fresh
                } else if dirty_at_self {
                    self.fresh & (1 << c) != 0
                } else {
                    // L3 hit, a fill, or an MSI MemoryRead: all serve
                    // the home (L3/memory) copy.
                    self.mem_latest
                };
                if served_latest {
                    self.fresh |= 1 << c;
                } else {
                    return Err((
                        "data-value",
                        format!("the read by core{c} was served a stale copy"),
                    ));
                }
            }
            ModelEvent::Write(c) => {
                let ob = self.line.access(table, c, true).map_err(stuck)?;
                if ob.writeback {
                    self.mem_latest = self.fresh & (1 << ob.old_owner) != 0;
                }
                // The write creates a new version held (above the shared
                // cache) only by the writer.
                self.fresh = 1 << c;
                self.mem_latest = false;
            }
            ModelEvent::WritebackFrom(c) => {
                if self.line.state.is_dirty() && self.line.owner == c {
                    self.mem_latest = self.fresh & (1 << c) != 0;
                }
                self.line.writeback_from(c);
                self.fresh &= !(1 << c);
            }
            ModelEvent::Snoop(c) => {
                let served_latest = match self.line.snoop_recall(table, c).map_err(stuck)? {
                    Some(ob) => {
                        let owner_fresh = self.fresh & (1 << ob.old_owner) != 0;
                        if ob.writeback {
                            self.mem_latest = owner_fresh;
                        }
                        if ob.cache_transfer {
                            owner_fresh
                        } else {
                            self.mem_latest
                        }
                    }
                    None => self.mem_latest,
                };
                if !served_latest {
                    return Err((
                        "data-value",
                        format!("the DMA snoop for core{c} read a stale copy"),
                    ));
                }
            }
            ModelEvent::Evict => {
                let ob = self.line.evict(table).map_err(stuck)?;
                if ob.writeback {
                    self.mem_latest = self.fresh & (1 << ob.old_owner) != 0;
                }
                self.fresh &= !ob.invalidate;
            }
        }
        Ok(())
    }
}

/// All events of the `cores`-core model, in a fixed enumeration order.
fn all_events(cores: usize) -> Vec<ModelEvent> {
    let mut evs = Vec::with_capacity(4 * cores + 1);
    for c in 0..cores {
        evs.push(ModelEvent::Read(c));
        evs.push(ModelEvent::Write(c));
        evs.push(ModelEvent::WritebackFrom(c));
        evs.push(ModelEvent::Snoop(c));
    }
    evs.push(ModelEvent::Evict);
    evs
}

/// Exhaustively enumerates the reachable configuration space of `table`
/// for a 1-line, `cores`-core model (BFS over every applicable event in
/// every reachable configuration), checking SWMR, data-value and
/// stuck-freedom everywhere. Returns the size of the space, or the
/// shortest counterexample trace to the first violation.
///
/// # Panics
/// Panics if `cores` is outside the small-model range `2..=4` (1 core
/// cannot express sharing; beyond 4 adds states but no new protocol
/// behavior).
pub fn explore(table: &ProtocolTable, cores: usize) -> Result<Exploration, Violation> {
    assert!(
        (2..=4).contains(&cores),
        "small model covers 2..=4 cores, got {cores}"
    );
    let events = all_events(cores);
    // BFS bookkeeping: every discovered configuration remembers the
    // (parent, event) edge that first reached it, so a violating edge
    // replays into the (minimal) trace by walking parents back.
    let mut order: Vec<(Model, Option<(usize, ModelEvent)>)> = vec![(Model::initial(), None)];
    let mut seen: HashMap<Model, usize> = HashMap::from([(Model::initial(), 0)]);
    let mut transitions = 0usize;

    let trace_to =
        |order: &Vec<(Model, Option<(usize, ModelEvent)>)>, idx: usize, last: ModelEvent| {
            let mut trace = vec![last];
            let mut at = idx;
            while let (_, Some((parent, ev))) = order[at] {
                trace.push(ev);
                at = parent;
            }
            trace.reverse();
            trace
        };

    let mut head = 0;
    while head < order.len() {
        let (model, _) = order[head];
        for &ev in &events {
            if !model.applicable(ev) {
                continue;
            }
            transitions += 1;
            let mut next = model;
            let step = next.apply(table, ev).and_then(|()| next.check(cores));
            if let Err((invariant, detail)) = step {
                return Err(Violation {
                    invariant,
                    detail,
                    trace: trace_to(&order, head, ev),
                });
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(next) {
                slot.insert(order.len());
                order.push((next, Some((head, ev))));
            }
        }
        head += 1;
    }
    Ok(Exploration {
        states: order.len(),
        transitions,
    })
}

/// Replays an event trace through the model, returning the violation it
/// reproduces (`None` when the trace runs clean) — counterexamples from
/// [`explore`] are independently checkable artifacts, not just prints.
pub fn replay(table: &ProtocolTable, cores: usize, trace: &[ModelEvent]) -> Option<Violation> {
    let mut model = Model::initial();
    for (i, &ev) in trace.iter().enumerate() {
        if !model.applicable(ev) {
            return Some(Violation {
                invariant: "stuck-state",
                detail: format!("{ev} is not applicable at step {}", i + 1),
                trace: trace[..=i].to_vec(),
            });
        }
        let step = model.apply(table, ev).and_then(|()| model.check(cores));
        if let Err((invariant, detail)) = step {
            return Some(Violation {
                invariant,
                detail,
                trace: trace[..=i].to_vec(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, CoherenceProtocol, LineEvent, Rule};

    /// The headline guarantee: all four shipped tables pass SWMR,
    /// data-value and stuck-freedom over their *entire* reachable
    /// 1-line spaces at every small-model core count.
    #[test]
    fn all_four_protocols_pass_exhaustive_exploration() {
        for p in CoherenceProtocol::ALL {
            let table = ProtocolTable::new(p);
            for cores in 2..=4 {
                let ex = explore(&table, cores)
                    .unwrap_or_else(|v| panic!("{} at {cores} cores:\n{v}", p.name()));
                assert!(
                    ex.states > cores,
                    "{} at {cores} cores explored only {} states",
                    p.name(),
                    ex.states
                );
            }
        }
    }

    /// The version abstraction keeps the space genuinely small — the
    /// point of a small model is that exhaustiveness stays trivial.
    #[test]
    fn reachable_spaces_are_small() {
        for p in CoherenceProtocol::ALL {
            let ex = explore(&ProtocolTable::new(p), 4).expect("shipped tables pass");
            assert!(
                ex.states < 10_000,
                "{}: {} states — the abstraction leaked",
                p.name(),
                ex.states
            );
            assert!(ex.transitions > ex.states, "{}", p.name());
        }
    }

    /// MOESI actually reaches Owned and MESIF actually reaches Forward —
    /// the exploration exercises the family extensions, not just the
    /// MESI core.
    #[test]
    fn family_extension_states_are_reachable() {
        for (p, want) in [
            (CoherenceProtocol::Moesi, LineState::Owned),
            (CoherenceProtocol::Mesif, LineState::Forward),
        ] {
            let table = ProtocolTable::new(p);
            // Write(0) then Read(1) reaches the extension state directly.
            let mut m = Model::initial();
            m.apply(&table, ModelEvent::Write(0)).unwrap();
            m.apply(&table, ModelEvent::Read(1)).unwrap();
            assert_eq!(m.line.state, want, "{}", p.name());
            m.check(2).expect("extension state is invariant-clean");
        }
    }

    fn mutate_mesi<F: Fn(&Rule) -> Rule>(name: &'static str, f: F) -> ProtocolTable {
        let rules = ProtocolTable::new(CoherenceProtocol::Mesi)
            .rules()
            .iter()
            .map(f)
            .collect();
        ProtocolTable::from_rules(name, rules)
    }

    /// Satellite: explorer diagnostics. A mutant MESI table whose
    /// Shared-write rows forget [`Action::InvalidateSharers`] must be
    /// caught, with a counterexample that (a) names the violating
    /// interleaving, (b) is minimal-length, and (c) replays to the same
    /// violation.
    #[test]
    fn dropped_invalidation_yields_minimal_replayable_counterexample() {
        let mutant = mutate_mesi("mesi-dropped-inval", |r| {
            if r.state == LineState::Shared
                && matches!(r.event, LineEvent::LocalWrite | LineEvent::RemoteWrite)
            {
                Rule { actions: &[], ..*r }
            } else {
                *r
            }
        });
        let v = explore(&mutant, 2).expect_err("the mutant must be caught");
        assert_eq!(v.invariant, "swmr", "stale sharers behind a Modified line");

        // (a) The trace names the interleaving: share the line between
        // two readers, then write it — the third event is the write
        // whose invalidation the mutant dropped.
        assert!(
            matches!(v.trace.last(), Some(ModelEvent::Write(_))),
            "violating event must be the un-invalidating write: {v}"
        );
        let rendered = v.to_string();
        assert!(
            rendered.contains("Write(core") && rendered.contains("counterexample"),
            "diagnostic must print the interleaving:\n{rendered}"
        );

        // (b) Minimal: two events provably cannot violate MESI-minus-
        // inval (a second sharer only exists after two sharing events),
        // and BFS found nothing shorter.
        assert_eq!(v.trace.len(), 3, "shortest counterexample is 3 events");
        for len in 0..3 {
            assert!(
                replay(&mutant, 2, &v.trace[..len]).is_none(),
                "no prefix of the counterexample may already violate"
            );
        }

        // (c) Replayable: the trace independently reproduces the same
        // violation.
        let r = replay(&mutant, 2, &v.trace).expect("replay reproduces the violation");
        assert_eq!(r.invariant, v.invariant);
        assert_eq!(r.trace, v.trace);
    }

    /// A mutant that forgets the write-back on a Modified eviction
    /// breaks the data-value invariant (the refill would serve stale
    /// data), not SWMR — the two invariants catch different bugs.
    #[test]
    fn dropped_eviction_writeback_breaks_data_value() {
        let mutant = mutate_mesi("mesi-dropped-evict-wb", |r| {
            if r.state == LineState::Modified && r.event == LineEvent::Evict {
                Rule {
                    actions: &[Action::InvalidateSharers],
                    ..*r
                }
            } else {
                *r
            }
        });
        let v = explore(&mutant, 2).expect_err("the mutant must be caught");
        assert_eq!(v.invariant, "data-value");
        assert_eq!(
            v.trace.len(),
            2,
            "Write then Evict is the shortest stale-memory trace"
        );
        assert!(replay(&mutant, 2, &v.trace).is_some());
    }

    /// A mutant with a *missing row* is reported as a stuck state, with
    /// the trace that walks into the hole — and replaying that trace
    /// reproduces the same violation.
    #[test]
    fn missing_row_is_reported_as_stuck() {
        let rules = ProtocolTable::new(CoherenceProtocol::Mesi)
            .rules()
            .iter()
            .filter(|r| !(r.state == LineState::Shared && r.event == LineEvent::Evict))
            .copied()
            .collect();
        let mutant = ProtocolTable::from_rules("mesi-no-shared-evict", rules);
        let v = explore(&mutant, 2).expect_err("the hole must be found");
        assert_eq!(v.invariant, "stuck-state");
        assert_eq!(v.trace.last(), Some(&ModelEvent::Evict));
        assert!(v.detail.contains("Shared"));
        let r = replay(&mutant, 2, &v.trace).expect("replay reproduces the hole");
        assert_eq!(
            (r.invariant, &r.detail, &r.trace),
            (v.invariant, &v.detail, &v.trace)
        );
    }
}
