//! Online invariant monitoring for live runs.
//!
//! [`InvariantMonitor`] sits next to the controller inside
//! [`crate::System`] and checks every issued command the cycle it is
//! drained from the device log — no post-hoc replay. Three layers:
//!
//! 1. **Table-1 stream legality** via [`fsmc_dram::StreamMonitor`]: the
//!    same twenty-five device rules the batch [`fsmc_dram::TimingChecker`]
//!    enforces, evaluated incrementally.
//! 2. **FS schedule integrity** via the controller's advertised
//!    [`CadenceSpec`]: ACT and CAS commands must land on their solved
//!    slot phases, and under rank partitioning inside their own domain's
//!    slot. This catches drift that is device-legal — a delayed command
//!    that still satisfies every tRC/tRCD bound but has slipped off the
//!    fixed cadence silently re-opens the timing channel the paper
//!    closes.
//! 3. **Liveness invariants**: per-rank refresh deadlines and the
//!    outstanding-read queue bound, checked against wall-clock cycles.
//!
//! The first breach is latched (with its cycle) and surfaced through
//! [`InvariantMonitor::take_breach`]; [`crate::System::try_run_cycles`]
//! converts it into [`crate::error::FsmcError::Invariant`].

use crate::config::SystemConfig;
use crate::error::MonitorFinding;
use fsmc_core::sched::CadenceSpec;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::geometry::RankId;
use fsmc_dram::{Cycle, StreamMonitor};

/// How often (in DRAM cycles) the wall-clock invariants are evaluated.
/// Deadlines are tens of thousands of cycles, so a coarse poll changes
/// nothing except the constant cost per cycle.
const POLL_PERIOD: Cycle = 64;

/// The online checker composed into [`crate::System`] when
/// [`SystemConfig::monitor`] is set.
#[derive(Debug)]
pub struct InvariantMonitor {
    stream: StreamMonitor,
    cadence: Option<CadenceSpec>,
    /// A cadence armed to take over at an epoch boundary: commands at or
    /// past the cycle promote it into `cadence`, so the old schedule is
    /// enforced strictly up to the boundary and the new one from it —
    /// the transition window itself is never unchecked.
    pending_cadence: Option<(Cycle, Option<CadenceSpec>)>,
    /// First breach, latched with the cycle it was observed.
    breach: Option<(Cycle, MonitorFinding)>,
    /// A rank breaching this many cycles without a REF is flagged. The
    /// budget is two nominal tREFI windows plus one tRFC: the refresh
    /// manager staggers ranks and FS defers REF to slot boundaries, but
    /// anything beyond a whole missed interval means retention is at
    /// risk (e.g. a stretch-refresh fault or a dropped REF command).
    refresh_deadline: Cycle,
    ranks: u8,
}

impl InvariantMonitor {
    pub fn new(cfg: &SystemConfig, cadence: Option<CadenceSpec>) -> Self {
        let refresh_deadline = 2 * cfg.timing.t_refi as Cycle + cfg.timing.t_rfc as Cycle;
        InvariantMonitor {
            stream: StreamMonitor::new(cfg.geometry, cfg.timing),
            cadence,
            pending_cadence: None,
            breach: None,
            refresh_deadline,
            ranks: cfg.geometry.ranks_per_channel(),
        }
    }

    /// Replaces the cadence being enforced. `None` suspends cadence
    /// checks — used for the single batch of commands straddling a
    /// degradation transition, where old-schedule commands must not be
    /// judged against the new pipeline's anchors.
    pub fn set_cadence(&mut self, cadence: Option<CadenceSpec>) {
        self.cadence = cadence;
        self.pending_cadence = None;
    }

    /// Arms `cadence` to take effect for commands issued at or after
    /// `boundary` — the epoch-based reconfiguration handshake. Unlike
    /// [`Self::set_cadence`] this never suspends checking: commands
    /// before the boundary are still judged against the old cadence,
    /// commands from the boundary on against the new one, covering the
    /// exact transition window on both sides.
    pub fn set_cadence_at(&mut self, cadence: Option<CadenceSpec>, boundary: Cycle) {
        self.pending_cadence = Some((boundary, cadence));
    }

    /// Checks one issued command against the stream rules and the
    /// active cadence. State advances even past a breach so later
    /// commands are still judged in context.
    pub fn observe(&mut self, tc: &TimedCommand) {
        if let Some((boundary, _)) = self.pending_cadence {
            if tc.cycle >= boundary {
                let (_, cadence) = self.pending_cadence.take().expect("just checked");
                self.cadence = cadence;
            }
        }
        if let Some(spec) = &self.cadence {
            if let Err(invariant) = spec.check(tc) {
                let detail = format!("{tc}");
                self.flag(tc.cycle, MonitorFinding::Invariant { invariant, detail });
            }
        }
        for v in self.stream.observe(tc) {
            self.flag(tc.cycle, MonitorFinding::Command(v));
        }
    }

    /// Wall-clock invariants, called once per DRAM cycle: the
    /// outstanding-read bound and per-rank refresh deadlines.
    pub fn on_cycle(&mut self, now: Cycle, outstanding: usize, bound: usize) {
        if outstanding > bound {
            self.flag(
                now,
                MonitorFinding::Invariant {
                    invariant: "outstanding-read bound",
                    detail: format!("{outstanding} reads in flight exceed {bound} MSHR slots"),
                },
            );
        }
        if !now.is_multiple_of(POLL_PERIOD) || now <= self.refresh_deadline {
            return;
        }
        for r in 0..self.ranks {
            let last = self.stream.last_refresh(RankId(r));
            if now - last > self.refresh_deadline {
                self.flag(
                    now,
                    MonitorFinding::Invariant {
                        invariant: "refresh deadline",
                        detail: format!(
                            "rank {r} last refreshed at cycle {last}, {} cycles ago (budget {})",
                            now - last,
                            self.refresh_deadline
                        ),
                    },
                );
            }
        }
    }

    /// The next cycle strictly after `now` at which [`Self::on_cycle`]
    /// could latch a *new* wall-clock breach — the earliest poll cycle
    /// on which some rank will have exceeded its refresh budget. The
    /// simulator's time-skipping fast path must not jump past this, or
    /// a breach would be latched at a later cycle than per-cycle
    /// stepping reports. `Cycle::MAX` once a breach is already latched
    /// (further flags are no-ops).
    pub fn next_wall_deadline(&self, now: Cycle) -> Cycle {
        if self.breach.is_some() {
            return Cycle::MAX;
        }
        let mut next = Cycle::MAX;
        for r in 0..self.ranks {
            let stale = self.stream.last_refresh(RankId(r)) + self.refresh_deadline;
            // First poll cycle strictly past both the budget and `now`.
            let poll = (stale.max(now) / POLL_PERIOD + 1) * POLL_PERIOD;
            next = next.min(poll);
        }
        next
    }

    fn flag(&mut self, cycle: Cycle, finding: MonitorFinding) {
        if self.breach.is_none() {
            self.breach = Some((cycle, finding));
        }
    }

    /// Whether a breach is latched, without clearing it.
    pub fn has_breach(&self) -> bool {
        self.breach.is_some()
    }

    /// The latched first breach, if any, clearing it.
    pub fn take_breach(&mut self) -> Option<(Cycle, MonitorFinding)> {
        self.breach.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_core::sched::SchedulerKind;
    use fsmc_dram::command::Command;
    use fsmc_dram::geometry::{BankId, RowId};

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default(SchedulerKind::FsRankPartitioned)
    }

    fn act(rank: u8, bank: u8, row: u32, cycle: Cycle) -> TimedCommand {
        TimedCommand { cmd: Command::activate(RankId(rank), BankId(bank), RowId(row)), cycle }
    }

    #[test]
    fn flags_cadence_drift_on_device_legal_commands() {
        let spec = CadenceSpec {
            slot_pitch: 7,
            read_act_anchor: 0,
            write_act_anchor: 6,
            read_cas_anchor: 11,
            write_cas_anchor: 17,
            slot_owner_ranks: None,
        };
        let mut mon = InvariantMonitor::new(&cfg(), Some(spec));
        // On-anchor ACT: fine.
        mon.observe(&act(0, 0, 1, 700));
        assert!(mon.take_breach().is_none());
        // Off-phase ACT: device-legal (fresh bank, tRRD satisfied) but
        // off both the read and write ACT phases (703 ≡ 3 mod 7).
        mon.observe(&act(1, 0, 1, 703));
        let (cycle, finding) = mon.take_breach().expect("drift must be flagged");
        assert_eq!(cycle, 703);
        assert!(finding.to_string().contains("off its slot phase"), "{finding}");
    }

    #[test]
    fn boundary_cadence_checks_both_sides_of_the_transition() {
        let spec = |pitch| CadenceSpec {
            slot_pitch: pitch,
            read_act_anchor: 0,
            write_act_anchor: 6,
            read_cas_anchor: 11,
            write_cas_anchor: 17,
            slot_owner_ranks: None,
        };
        let mut mon = InvariantMonitor::new(&cfg(), Some(spec(7)));
        // Arm a different pitch from cycle 710 on.
        mon.set_cadence_at(Some(spec(5)), 710);
        // Before the boundary the *old* cadence is still enforced: 705
        // is on-phase for pitch 5 (705 % 5 == 0) but off both pitch-7
        // ACT phases (705 % 7 == 5, 699 % 7 == 6).
        mon.observe(&act(1, 0, 1, 705));
        let (cycle, finding) = mon.take_breach().expect("pre-boundary drift must be flagged");
        assert_eq!(cycle, 705);
        assert!(finding.to_string().contains("off its slot phase"), "{finding}");
        // From the boundary on the *new* cadence judges: 710 is a
        // multiple of 5 (on-phase) but 710 % 7 == 3 (off the old phase).
        mon.observe(&act(0, 1, 1, 710));
        assert!(mon.take_breach().is_none(), "on the new phase at the boundary");
        mon.observe(&act(1, 1, 1, 714));
        let (cycle, _) = mon.take_breach().expect("post-boundary drift must be flagged");
        assert_eq!(cycle, 714);
    }

    #[test]
    fn refresh_deadline_fires_only_after_budget() {
        let c = cfg();
        let mut mon = InvariantMonitor::new(&c, None);
        let budget = 2 * c.timing.t_refi as Cycle + c.timing.t_rfc as Cycle;
        mon.on_cycle(budget, 0, 64);
        assert!(mon.take_breach().is_none(), "within budget");
        // Poll cycles are multiples of POLL_PERIOD; pick the first one
        // past the budget.
        let late = (budget / POLL_PERIOD + 2) * POLL_PERIOD;
        mon.on_cycle(late, 0, 64);
        let (_, finding) = mon.take_breach().expect("stale rank must be flagged");
        assert!(finding.to_string().contains("refresh deadline"), "{finding}");
    }

    #[test]
    fn next_wall_deadline_is_exactly_the_first_flagging_poll() {
        let c = cfg();
        let mut mon = InvariantMonitor::new(&c, None);
        let deadline = mon.next_wall_deadline(0);
        assert!(deadline.is_multiple_of(POLL_PERIOD));
        // Every poll before the predicted deadline is clean; the
        // deadline poll itself latches the breach.
        for p in (0..deadline).step_by(POLL_PERIOD as usize) {
            mon.on_cycle(p, 0, 64);
        }
        assert!(mon.take_breach().is_none(), "flagged before the predicted deadline");
        mon.on_cycle(deadline, 0, 64);
        assert!(mon.take_breach().is_some(), "deadline poll must flag");
        // With a breach latched, no further wall-clock deadline exists.
        mon.on_cycle(deadline + POLL_PERIOD, 0, 64);
        assert_eq!(mon.next_wall_deadline(deadline), Cycle::MAX);
    }

    #[test]
    fn queue_bound_breach_is_latched_first_only() {
        let mut mon = InvariantMonitor::new(&cfg(), None);
        mon.on_cycle(10, 65, 64);
        mon.on_cycle(11, 99, 64);
        let (cycle, finding) = mon.take_breach().expect("bound breach");
        assert_eq!(cycle, 10, "first breach wins");
        assert!(finding.to_string().contains("65 reads in flight"), "{finding}");
        assert!(mon.take_breach().is_none(), "taken once");
    }
}
