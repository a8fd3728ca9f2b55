//! Replay-style timing-legality checker.
//!
//! [`TimingChecker`] audits a finished command log: it sorts the log by
//! cycle and replays it through a fresh [`StreamMonitor`], the crate's one
//! encoding of the Table-1 rules. It is the executable witness for the
//! paper's central claim: an FS pipeline issues commands with **zero
//! resource conflicts** — no command-bus collisions, no data-bus overlap,
//! and no timing-parameter violations — for *any* read/write mix.

use crate::command::{Command, TimedCommand};
use crate::geometry::Geometry;
use crate::monitor::StreamMonitor;
use crate::timing::TimingParams;
use crate::Cycle;
use std::error::Error;
use std::fmt;

/// A single timing or state violation detected in a command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The offending command.
    pub cmd: Command,
    /// The cycle at which it was issued.
    pub cycle: Cycle,
    /// The first cycle at which it would have been legal, when the
    /// violation is a too-early issue (state violations have `None`).
    pub earliest: Option<Cycle>,
    /// Human-readable name of the violated constraint.
    pub constraint: &'static str,
}

impl Violation {
    /// A command issued before its earliest legal cycle.
    pub fn too_early(
        cmd: Command,
        cycle: Cycle,
        earliest: Cycle,
        constraint: &'static str,
    ) -> Self {
        Violation { cmd, cycle, earliest: Some(earliest), constraint }
    }

    /// A command illegal in the current bank/rank state (wrong row, closed
    /// bank, powered-down rank, ...).
    pub fn state(cmd: Command, cycle: Cycle, constraint: &'static str) -> Self {
        Violation { cmd, cycle, earliest: None, constraint }
    }

    /// `Ok(())` if `cycle >= earliest`, otherwise a `too_early` violation.
    pub fn check_earliest(
        cmd: Command,
        cycle: Cycle,
        earliest: Cycle,
        constraint: &'static str,
    ) -> Result<(), Violation> {
        if cycle >= earliest {
            Ok(())
        } else {
            Err(Violation::too_early(cmd, cycle, earliest, constraint))
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.earliest {
            Some(e) => write!(
                f,
                "{} at cycle {} violates {} (earliest legal cycle {})",
                self.cmd, self.cycle, self.constraint, e
            ),
            None => write!(f, "{} at cycle {}: {}", self.cmd, self.cycle, self.constraint),
        }
    }
}

impl Error for Violation {}

/// Validates recorded command streams against the full Table-1 rule set.
///
/// The checker is stateless between calls to [`TimingChecker::check`]; it
/// models a single channel, like [`crate::device::DramDevice`].
///
/// ```
/// use fsmc_dram::command::{Command, TimedCommand};
/// use fsmc_dram::geometry::{BankId, ColId, RankId, RowId};
/// use fsmc_dram::{Geometry, TimingChecker, TimingParams};
///
/// let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
/// let stream = [
///     TimedCommand::new(Command::activate(RankId(0), BankId(0), RowId(7)), 0),
///     TimedCommand::new(Command::read_ap(RankId(0), BankId(0), RowId(7), ColId(0)), 11),
/// ];
/// assert!(checker.verify(&stream).is_ok());
/// // One cycle too early and the violation names the constraint:
/// let early = [stream[0], TimedCommand::new(stream[1].cmd, 10)];
/// assert_eq!(checker.verify(&early).unwrap_err().constraint, "tRCD");
/// ```
#[derive(Debug, Clone)]
pub struct TimingChecker {
    geom: Geometry,
    t: TimingParams,
}

impl TimingChecker {
    pub fn new(geom: Geometry, t: TimingParams) -> Self {
        TimingChecker { geom, t }
    }

    /// Checks a command stream, returning every violation found (empty
    /// means the stream is fully legal).
    ///
    /// Commands are stable-sorted by cycle and fed through a fresh
    /// [`StreamMonitor`], so callers may log transaction-by-transaction.
    pub fn check(&self, commands: &[TimedCommand]) -> Vec<Violation> {
        let mut cmds: Vec<TimedCommand> = commands.to_vec();
        cmds.sort_by_key(|c| c.cycle);
        let mut mon = StreamMonitor::new(self.geom, self.t);
        cmds.iter().flat_map(|tc| mon.observe(tc)).collect()
    }

    /// Like [`TimingChecker::check`] but returns the first violation as an
    /// error, for use in tests.
    pub fn verify(&self, commands: &[TimedCommand]) -> Result<(), Violation> {
        match self.check(commands).first() {
            None => Ok(()),
            Some(v) => Err(*v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, ColId, RankId, RowId};

    fn checker() -> TimingChecker {
        TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600())
    }

    fn tc(cmd: Command, cycle: Cycle) -> TimedCommand {
        TimedCommand::new(cmd, cycle)
    }

    #[test]
    fn legal_read_transaction_passes() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 11),
        ];
        assert!(checker().verify(&cmds).is_ok());
    }

    #[test]
    fn early_cas_flagged() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 10),
        ];
        let v = checker().verify(&cmds).unwrap_err();
        assert_eq!(v.constraint, "tRCD");
        assert_eq!(v.earliest, Some(11));
    }

    #[test]
    fn command_bus_collision_flagged() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(1), BankId(0), RowId(5)), 0),
        ];
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint == "command-bus collision"));
    }

    #[test]
    fn rank_to_rank_data_gap_enforced() {
        // Two reads to different ranks with CAS 4 cycles apart: data bursts
        // are contiguous, violating tRTRS = 2.
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(1), BankId(0), RowId(5)), 1),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 12),
            tc(Command::read_ap(RankId(1), BankId(0), RowId(5), ColId(0)), 16),
        ];
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint.contains("tRTRS")), "{vs:?}");
        // With a 6-cycle CAS gap (tBURST + tRTRS) it is legal.
        let cmds_ok = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(1), BankId(0), RowId(5)), 1),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 12),
            tc(Command::read_ap(RankId(1), BankId(0), RowId(5), ColId(0)), 18),
        ];
        assert!(checker().verify(&cmds_ok).is_ok());
    }

    #[test]
    fn trrd_and_tfaw_enforced() {
        let t = TimingParams::ddr3_1600();
        // 5 activates to one rank, 5 cycles apart: tRRD satisfied but the
        // fifth lands at cycle 20 < tFAW = 24.
        let cmds: Vec<TimedCommand> = (0..5)
            .map(|i| {
                tc(Command::activate(RankId(0), BankId(i), RowId(1)), i as Cycle * t.t_rrd as Cycle)
            })
            .collect();
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint == "tFAW"));
        assert!(!vs.iter().any(|v| v.constraint == "tRRD"));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(0), BankId(1), RowId(5)), 5),
            tc(Command::write_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 11),
            // Wr2Rd = 15, so a read CAS at 25 is one cycle early.
            tc(Command::read_ap(RankId(0), BankId(1), RowId(5), ColId(0)), 25),
        ];
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint == "tWTR write-to-read"));
    }

    #[test]
    fn same_group_cas_pair_needs_ccd_l() {
        // DDR4 geometry: banks 0 and 4 share group 0; bank 1 is group 1.
        let ddr4 = TimingChecker::new(
            Geometry::with_bank_groups(1, 8, 16, 4, 32768, 128),
            TimingParams::ddr4_2400(),
        );
        let t = TimingParams::ddr4_2400();
        let base = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(0), BankId(4), RowId(5)), t.t_rrd as Cycle),
            tc(Command::activate(RankId(0), BankId(1), RowId(5)), 2 * t.t_rrd as Cycle),
        ];
        let rd0 = tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 60);
        // Same group at tCCD_S: flagged as a tCCD_L violation.
        let same =
            tc(Command::read_ap(RankId(0), BankId(4), RowId(5), ColId(0)), 60 + t.t_ccd as Cycle);
        let mut cmds: Vec<TimedCommand> = base.to_vec();
        cmds.push(rd0);
        cmds.push(same);
        let vs = ddr4.check(&cmds);
        assert!(vs.iter().any(|v| v.constraint == "tCCD_L same bank group"), "{vs:?}");
        // Different group at tCCD_S: legal.
        let other =
            tc(Command::read_ap(RankId(0), BankId(1), RowId(5), ColId(0)), 60 + t.t_ccd as Cycle);
        let mut cmds_ok: Vec<TimedCommand> = base.to_vec();
        cmds_ok.push(rd0);
        cmds_ok.push(other);
        assert!(ddr4.verify(&cmds_ok).is_ok(), "{:?}", ddr4.check(&cmds_ok));
        // Same group at tCCD_L: legal.
        let same_ok =
            tc(Command::read_ap(RankId(0), BankId(4), RowId(5), ColId(0)), 60 + t.t_ccd_l as Cycle);
        let mut cmds_ok2: Vec<TimedCommand> = base.to_vec();
        cmds_ok2.push(rd0);
        cmds_ok2.push(same_ok);
        assert!(ddr4.verify(&cmds_ok2).is_ok(), "{:?}", ddr4.check(&cmds_ok2));
    }

    #[test]
    fn powered_down_rank_rejects_commands() {
        let cmds = [
            tc(Command::power_down(RankId(0)), 0),
            tc(Command::activate(RankId(0), BankId(0), RowId(1)), 5),
        ];
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint.contains("powered-down")));
    }

    #[test]
    fn power_up_requires_txp() {
        let cmds = [
            tc(Command::power_down(RankId(0)), 0),
            tc(Command::power_up(RankId(0)), 10),
            tc(Command::activate(RankId(0), BankId(0), RowId(1)), 15),
        ];
        let vs = checker().check(&cmds);
        assert!(vs.iter().any(|v| v.constraint.contains("tXP")), "{vs:?}");
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let cmds = [
            tc(Command::refresh(RankId(0)), 0),
            tc(Command::activate(RankId(0), BankId(0), RowId(1)), 100),
        ];
        let vs = checker().check(&cmds);
        assert!(!vs.is_empty());
        let cmds_ok = [
            tc(Command::refresh(RankId(0)), 0),
            tc(Command::activate(RankId(0), BankId(0), RowId(1)), 208),
        ];
        assert!(checker().verify(&cmds_ok).is_ok());
    }
}
