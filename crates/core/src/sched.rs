//! The event-horizon scheduler: the one loop that drives cores, a single
//! core ([`Core::run`]) being the one-tile case of a many-tile machine.
//!
//! Each tile carries the cycle it is next due — the next cycle after a
//! busy tick, its core's event horizon after a quiet one, `u64::MAX` once
//! halted — and each step executes the earliest due cycle, ticking the
//! due tiles in rotation from `cycle % n`, the order lock-step execution
//! ticks them in that cycle. Every cycle a tile is not due is a provable
//! no-op for it, so its clock is caught up in one `Core::advance_to`
//! when it next is. Results, errors included, are bit-identical to
//! ticking every live tile every cycle, which the same loop does when a
//! core is configured `lockstep`: then every live tile is due every
//! cycle, and a horizon is asked for only to see that there is one.
//!
//! **Liveness is exact.** Every wait a core can be in has an end that the
//! port call starting it handed back, so a live core whose quiet tick
//! leaves it with no next event at all (`Core::next_event_at` is
//! `u64::MAX`) can never move again: [`SimError::Deadlock`] is reported at
//! that tick's cycle. This holds only because no tile waits on another
//! tile's future action — every cross-tile effect (a bank port, a
//! directory message) is priced into the completion its call returns.

use crate::pipeline::{timed, Core, HostProfile, SimError, TickOutcome};
use crate::port::MemoryPort;

/// One tile of a machine as the scheduler sees it: a core and the memory
/// port it ticks against.
pub trait Tile {
    /// The tile's memory port.
    type Port: MemoryPort;
    /// The core and its port, borrowed apart.
    fn parts(&mut self) -> (&mut Core, &mut Self::Port);
}

impl<P: MemoryPort> Tile for (&mut Core, &mut P) {
    type Port = P;
    fn parts(&mut self) -> (&mut Core, &mut P) {
        (&mut *self.0, &mut *self.1)
    }
}

/// The scheduler's state, carried across [`Scheduler::run_until`] calls
/// so that a chunked run performs the operations of one uninterrupted
/// run.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// The cycle of each tile's next tick, `u64::MAX` once it has halted;
    /// empty until the first call.
    due: Vec<u64>,
    /// The last executed cycle had every live tile due, and every one of
    /// them ticked busy: the horizon scans wait until the stretch ends.
    stretch: bool,
}

impl Scheduler {
    /// Runs `tiles` until every core halts **or** the machine cycle
    /// reaches `limit`: no tick executes at a cycle ≥ `limit`. Between
    /// calls a live tile's clock may lag behind `limit`; it is brought up
    /// to date when the tile is next due. An error leaves every other
    /// live tile where lock-step would: past the failing cycle if it came
    /// earlier in that cycle's rotation, at it otherwise. With `PROF`,
    /// host time is charged to `prof`.
    ///
    /// The tiles must be the same, in the same order, on every call.
    pub fn run_until<T: Tile, const PROF: bool>(
        &mut self,
        tiles: &mut [T],
        limit: u64,
        prof: &mut HostProfile,
    ) -> Result<(), SimError> {
        let n = tiles.len();
        let lockstep = tiles.iter_mut().any(|t| t.parts().0.cfg.lockstep);
        if self.due.len() != n {
            let first = |c: &Core| if c.halted() { u64::MAX } else { c.now() };
            self.due = tiles.iter_mut().map(|t| first(t.parts().0)).collect();
        }
        loop {
            let event = self.due.iter().copied().min().unwrap_or(u64::MAX);
            if event >= limit {
                return Ok(());
            }
            // The lock-step rotation of this cycle: its origin moves one
            // slot per cycle, skipped cycles included (one tile: no
            // division, as this runs on every tick of `Core::run`).
            let origin = if n > 1 {
                (event % n as u64) as usize
            } else {
                0
            };
            let (stretch, mut all_due, mut all_busy) = (self.stretch, true, true);
            for (k, i) in (origin..n).chain(0..origin).enumerate() {
                if self.due[i] != event {
                    all_due &= self.due[i] == u64::MAX;
                    continue;
                }
                let (core, port) = tiles[i].parts();
                // Every cycle since the tile's last tick was a no-op for
                // it (its horizon said so): catch its clock up in one step.
                if core.now() < event {
                    timed(PROF, &mut prof.advance_secs, &mut prof.advances, || {
                        core.advance_to(event)
                    });
                }
                let outcome = core.tick_classified::<PROF>(port, prof);
                all_busy &= outcome == Ok(TickOutcome::Busy);
                let due = match outcome {
                    // Left at `event`, a busy tick in a stretch is settled
                    // when the stretch is, below.
                    Ok(TickOutcome::Busy) if stretch => Ok(event),
                    Ok(TickOutcome::Busy) => Ok(event + 1),
                    Ok(TickOutcome::Halted) => Ok(u64::MAX),
                    Ok(TickOutcome::Quiet) => horizon::<PROF>(core, prof)
                        .map(|t| if lockstep { event + 1 } else { t })
                        .ok_or_else(|| core.deadlock(port, event)),
                    Err(e) => Err(e),
                };
                match due {
                    Ok(due) => self.due[i] = due,
                    Err(e) => {
                        for j in (0..n).filter(|&j| j != k) {
                            let other = tiles[(origin + j) % n].parts().0;
                            if !other.halted() {
                                other.advance_to(event + u64::from(j < k));
                            }
                        }
                        return Err(e);
                    }
                }
            }
            // A stretch ends with one horizon scan of every tile that
            // ticked busy in it: where the scans fall decides which
            // cycles each tile skips, and so its `skipped_cycles`.
            if stretch {
                for (tile, due) in tiles.iter_mut().zip(&mut self.due) {
                    if *due == event {
                        let core = tile.parts().0;
                        *due = if all_busy {
                            event + 1
                        } else {
                            // A busy core with nothing left to wait for
                            // is due at once: that quiet tick reports it.
                            horizon::<PROF>(core, prof).unwrap_or(core.now())
                        };
                    }
                }
            }
            self.stretch = all_due && all_busy && !lockstep;
        }
    }
}

/// The core's next due cycle after a tick ([`Core::skip_target`]), with
/// the scan charged to `prof` under `PROF`; `None` when it has no next
/// event.
#[inline(always)]
fn horizon<const PROF: bool>(core: &Core, prof: &mut HostProfile) -> Option<u64> {
    timed(
        PROF,
        &mut prof.horizon_secs,
        &mut prof.horizon_scans,
        || core.skip_target(),
    )
}

#[cfg(test)]
mod tests;
