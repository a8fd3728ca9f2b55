//! Per-rank DRAM state: activation windows, CAS turnarounds, refresh and
//! power-down, plus the rank's banks.

use crate::bank::BankArrays;
use crate::checker::Violation;
use crate::command::{Command, CommandKind};
use crate::timing::TimingParams;
use crate::Cycle;

/// Power state of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Normal operation.
    Active,
    /// Light (fast-exit) power-down entered at the recorded cycle.
    PoweredDown { since: Cycle },
}

/// The state of one rank: its banks plus the rank-wide timing windows
/// (tRRD, tFAW, CAS-to-CAS turnarounds, refresh, power-down).
#[derive(Debug, Clone)]
pub struct RankState {
    banks: BankArrays,
    /// The last four activate cycles, oldest first, for tFAW (a fixed
    /// ring so the apply path never touches the allocator).
    act_window: [Cycle; 4],
    /// Valid entries in `act_window`.
    act_len: u8,
    /// Earliest next activate due to tRRD.
    next_activate: Cycle,
    /// Earliest next column read due to tCCD_S / write-to-read turnaround.
    next_read: Cycle,
    /// Earliest next column write due to tCCD_S / read-to-write turnaround.
    next_write: Cycle,
    /// Bank groups in this rank (1 for generations without bank groups;
    /// bank `b` is in group `b % bank_groups`).
    bank_groups: u8,
    /// Per-group earliest next read due to tCCD_L (same-group CAS pairs
    /// must keep the long spacing; different groups only owe tCCD_S).
    group_next_read: Vec<Cycle>,
    /// Per-group earliest next write due to tCCD_L.
    group_next_write: Vec<Cycle>,
    /// Rank unusable until this cycle (refresh in progress).
    refresh_until: Cycle,
    /// Earliest cycle a command is accepted after a power-down exit.
    wake_at: Cycle,
    power: PowerState,
    /// Total cycles spent powered down (for the energy model).
    powered_down_cycles: Cycle,
}

impl RankState {
    /// A fresh rank with `banks` closed banks and no bank groups.
    pub fn new(banks: u8) -> Self {
        RankState::with_bank_groups(banks, 1)
    }

    /// A fresh rank with `banks` closed banks split across `bank_groups`
    /// bank groups (bank `b` belongs to group `b % bank_groups`).
    /// `bank_groups` must be a power of two in `1..=banks`.
    pub fn with_bank_groups(banks: u8, bank_groups: u8) -> Self {
        assert!(bank_groups >= 1 && bank_groups <= banks, "bank_groups must be in 1..=banks");
        assert!(bank_groups.is_power_of_two(), "bank_groups must be a power of two");
        RankState {
            banks: BankArrays::new(banks as usize),
            act_window: [0; 4],
            act_len: 0,
            next_activate: 0,
            next_read: 0,
            next_write: 0,
            bank_groups,
            group_next_read: vec![0; bank_groups as usize],
            group_next_write: vec![0; bank_groups as usize],
            refresh_until: 0,
            wake_at: 0,
            power: PowerState::Active,
            powered_down_cycles: 0,
        }
    }

    /// The bank group of `bank` in this rank: `bank % bank_groups`, as a
    /// mask because the group count is a power of two.
    fn group_of(&self, bank: usize) -> usize {
        bank & (self.bank_groups as usize - 1)
    }

    /// The tCCD_L floor a CAS of the given direction to `bank` owes its
    /// own bank group (0 when nothing has been issued there yet). With a
    /// single group and a flat part (tCCD_L == tCCD_S) this coincides
    /// with the rank-global CAS floor.
    pub fn cas_group_floor(&self, bank: usize, is_read: bool) -> Cycle {
        let g = self.group_of(bank);
        if is_read {
            self.group_next_read[g]
        } else {
            self.group_next_write[g]
        }
    }

    /// The rank's banks in struct-of-arrays layout — flat ready-cycle
    /// and open-row arrays for the device's fused scans.
    #[inline]
    pub fn banks(&self) -> &BankArrays {
        &self.banks
    }

    /// The row open in `bank`, if any.
    #[inline]
    pub fn open_row(&self, bank: usize) -> Option<crate::geometry::RowId> {
        self.banks.open_row(bank)
    }

    pub fn power_state(&self) -> PowerState {
        self.power
    }

    /// Cumulative cycles this rank has spent in power-down (updated on
    /// power-up; call [`RankState::powered_down_cycles_at`] for a live
    /// figure that includes a still-open power-down interval).
    pub fn powered_down_cycles_at(&self, now: Cycle) -> Cycle {
        match self.power {
            PowerState::Active => self.powered_down_cycles,
            PowerState::PoweredDown { since } => {
                self.powered_down_cycles + now.saturating_sub(since)
            }
        }
    }

    /// True if every bank is precharged and past recovery at `cycle`.
    pub fn all_banks_idle(&self, cycle: Cycle) -> bool {
        self.banks.all_idle(cycle)
    }

    /// True if `bank` could accept an `Activate` at `cycle` as far as
    /// bank-local state, refresh, and power state are concerned (rank
    /// activation windows like tRRD/tFAW are *not* checked — precomputed
    /// schedules guarantee those).
    pub fn bank_ready(&self, bank: usize, cycle: Cycle) -> bool {
        matches!(self.power, PowerState::Active)
            && cycle >= self.wake_at
            && cycle >= self.refresh_until
            && self.banks.idle_at(bank, cycle)
    }

    /// Checks rank-level legality of `cmd` at `cycle` (bank-level checks
    /// are separate; see [`crate::device::DramDevice::can_issue`]).
    pub fn can_issue(
        &self,
        cmd: &Command,
        cycle: Cycle,
        t: &TimingParams,
    ) -> Result<(), Violation> {
        if let PowerState::PoweredDown { .. } = self.power {
            if cmd.kind != CommandKind::PowerDownExit {
                return Err(Violation::state(*cmd, cycle, "command to a powered-down rank"));
            }
            return Ok(());
        }
        Violation::check_earliest(*cmd, cycle, self.refresh_until, "tRFC refresh in progress")?;
        Violation::check_earliest(*cmd, cycle, self.wake_at, "tXP power-down exit")?;
        match cmd.kind {
            CommandKind::Activate => {
                Violation::check_earliest(*cmd, cycle, self.next_activate, "tRRD")?;
                if self.act_len == 4 {
                    let faw_end = self.act_window[0] + t.t_faw as Cycle;
                    Violation::check_earliest(*cmd, cycle, faw_end, "tFAW")?;
                }
                Ok(())
            }
            k if k.is_read() => {
                Violation::check_earliest(*cmd, cycle, self.next_read, "CAS gap (read)")?;
                Violation::check_earliest(
                    *cmd,
                    cycle,
                    self.cas_group_floor(cmd.bank.0 as usize, true),
                    "tCCD_L bank-group CAS gap (read)",
                )
            }
            k if k.is_write() => {
                Violation::check_earliest(*cmd, cycle, self.next_write, "CAS gap (write)")?;
                Violation::check_earliest(
                    *cmd,
                    cycle,
                    self.cas_group_floor(cmd.bank.0 as usize, false),
                    "tCCD_L bank-group CAS gap (write)",
                )
            }
            CommandKind::Refresh => {
                if !self.all_banks_idle(cycle) {
                    return Err(Violation::state(*cmd, cycle, "refresh with banks busy"));
                }
                Ok(())
            }
            CommandKind::PowerDownEnter => {
                if !self.all_banks_idle(cycle) {
                    return Err(Violation::state(*cmd, cycle, "power-down with banks busy"));
                }
                Ok(())
            }
            CommandKind::PowerDownExit => {
                Err(Violation::state(*cmd, cycle, "power-up of an active rank"))
            }
            _ => Ok(()),
        }
    }

    /// Applies `cmd` at `cycle` to the rank-level windows and the addressed
    /// bank. Caller must have validated legality first.
    pub fn apply(&mut self, cmd: &Command, cycle: Cycle, t: &TimingParams) {
        match cmd.kind {
            CommandKind::Activate => {
                self.next_activate = cycle + t.t_rrd as Cycle;
                if self.act_len == 4 {
                    self.act_window.copy_within(1..4, 0);
                    self.act_window[3] = cycle;
                } else {
                    self.act_window[self.act_len as usize] = cycle;
                    self.act_len += 1;
                }
                self.banks.apply(cmd.bank.0 as usize, cmd, cycle, t);
            }
            k if k.is_read() => {
                self.next_read = self.next_read.max(cycle + t.t_ccd as Cycle);
                self.next_write = self.next_write.max(cycle + t.rd_to_wr_same_rank() as Cycle);
                let g = self.group_of(cmd.bank.0 as usize);
                self.group_next_read[g] = self.group_next_read[g].max(cycle + t.t_ccd_l as Cycle);
                self.banks.apply(cmd.bank.0 as usize, cmd, cycle, t);
            }
            k if k.is_write() => {
                self.next_write = self.next_write.max(cycle + t.t_ccd as Cycle);
                self.next_read = self.next_read.max(cycle + t.wr_to_rd_same_rank() as Cycle);
                let g = self.group_of(cmd.bank.0 as usize);
                self.group_next_write[g] = self.group_next_write[g].max(cycle + t.t_ccd_l as Cycle);
                self.banks.apply(cmd.bank.0 as usize, cmd, cycle, t);
            }
            CommandKind::Precharge => {
                self.banks.apply(cmd.bank.0 as usize, cmd, cycle, t);
            }
            CommandKind::PrechargeAll => {
                for b in 0..self.banks.len() {
                    self.banks.apply(b, cmd, cycle, t);
                }
            }
            CommandKind::Refresh => {
                self.refresh_until = cycle + t.t_rfc as Cycle;
                for b in 0..self.banks.len() {
                    self.banks.apply(b, cmd, cycle, t);
                }
            }
            CommandKind::PowerDownEnter => {
                self.power = PowerState::PoweredDown { since: cycle };
            }
            CommandKind::PowerDownExit => {
                if let PowerState::PoweredDown { since } = self.power {
                    self.powered_down_cycles += cycle.saturating_sub(since);
                }
                self.power = PowerState::Active;
                self.wake_at = cycle + t.t_xp as Cycle;
            }
            _ => {}
        }
    }

    /// Earliest cycle at which `cmd` could pass both [`RankState::can_issue`]
    /// and the addressed bank's rules, assuming no further commands reach
    /// this rank in the meantime. `Cycle::MAX` when only another command
    /// could ever make it legal (wrong row open, rank powered down).
    pub fn next_legal_at(&self, cmd: &Command, t: &TimingParams) -> Cycle {
        if let PowerState::PoweredDown { .. } = self.power {
            return if cmd.kind == CommandKind::PowerDownExit { 0 } else { Cycle::MAX };
        }
        let mut at = self.refresh_until.max(self.wake_at);
        match cmd.kind {
            CommandKind::Activate => {
                at = at.max(self.next_activate);
                if self.act_len == 4 {
                    at = at.max(self.act_window[0] + t.t_faw as Cycle);
                }
                at = at.max(self.banks.next_legal_at(cmd.bank.0 as usize, cmd));
            }
            k if k.is_read() => {
                at = at
                    .max(self.next_read)
                    .max(self.cas_group_floor(cmd.bank.0 as usize, true))
                    .max(self.banks.next_legal_at(cmd.bank.0 as usize, cmd));
            }
            k if k.is_write() => {
                at = at
                    .max(self.next_write)
                    .max(self.cas_group_floor(cmd.bank.0 as usize, false))
                    .max(self.banks.next_legal_at(cmd.bank.0 as usize, cmd));
            }
            CommandKind::Precharge => {
                at = at.max(self.banks.next_legal_at(cmd.bank.0 as usize, cmd));
            }
            CommandKind::PrechargeAll | CommandKind::Refresh | CommandKind::PowerDownEnter => {
                for b in 0..self.banks.len() {
                    // Refresh and power-down need every bank idle; an open
                    // row makes the bank report `Cycle::MAX` as required.
                    if cmd.kind != CommandKind::PrechargeAll && self.banks.open_row(b).is_some() {
                        return Cycle::MAX;
                    }
                    at = at.max(self.banks.next_legal_at(b, cmd));
                }
            }
            CommandKind::PowerDownExit => return Cycle::MAX,
            _ => {}
        }
        at
    }

    /// Rank-common pieces of the per-rank event floors (see
    /// [`crate::DramDevice::rank_event_floors`]): `(quiet, act_floor,
    /// next_read, next_write)`, where `quiet` is the refresh/power-wake
    /// floor every command shares and `act_floor` additionally folds in
    /// tRRD and the tFAW rolling window. `None` while powered down —
    /// only a `PowerDownExit` could change that, and it is never an
    /// event-scan candidate.
    pub fn event_bound_parts(&self, t: &TimingParams) -> Option<(Cycle, Cycle, Cycle, Cycle)> {
        if let PowerState::PoweredDown { .. } = self.power {
            return None;
        }
        let quiet = self.refresh_until.max(self.wake_at);
        let mut act_floor = self.next_activate;
        if self.act_len == 4 {
            act_floor = act_floor.max(self.act_window[0] + t.t_faw as Cycle);
        }
        Some((quiet, act_floor, self.next_read, self.next_write))
    }

    /// Earliest cycle at which *some* CAS of the given direction is legal
    /// at rank level (used by schedulers for planning).
    pub fn next_cas_at(&self, is_read: bool) -> Cycle {
        if is_read {
            self.next_read
        } else {
            self.next_write
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, ColId, RankId, RowId};

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn act(bank: u8) -> Command {
        Command::activate(RankId(0), BankId(bank), RowId(1))
    }

    #[test]
    fn trrd_between_activates() {
        let timing = t();
        let mut r = RankState::new(8);
        r.apply(&act(0), 0, &timing);
        assert!(r.can_issue(&act(1), 4, &timing).is_err());
        assert!(r.can_issue(&act(1), 5, &timing).is_ok());
    }

    #[test]
    fn tfaw_limits_fifth_activate() {
        let timing = t();
        let mut r = RankState::new(8);
        for i in 0..4u8 {
            let c = i as Cycle * timing.t_rrd as Cycle;
            assert!(r.can_issue(&act(i), c, &timing).is_ok());
            r.apply(&act(i), c, &timing);
        }
        // Fifth activate: tRRD would allow cycle 20, tFAW requires 24.
        assert!(r.can_issue(&act(4), 20, &timing).is_err());
        assert!(r.can_issue(&act(4), 24, &timing).is_ok());
    }

    #[test]
    fn write_to_read_rank_turnaround() {
        let timing = t();
        let mut r = RankState::new(8);
        r.apply(&act(0), 0, &timing);
        r.apply(&act(1), 5, &timing);
        let wr = Command::write_ap(RankId(0), BankId(0), RowId(1), ColId(0));
        r.apply(&wr, 16, &timing);
        let rd = Command::read_ap(RankId(0), BankId(1), RowId(1), ColId(0));
        // Wr2Rd = 15 cycles after the write CAS.
        assert!(r.can_issue(&rd, 30, &timing).is_err());
        assert!(r.can_issue(&rd, 31, &timing).is_ok());
    }

    #[test]
    fn bank_group_ccd_l_spacing() {
        let timing = TimingParams::ddr4_2400();
        // 16 banks in 4 groups: banks 0 and 4 share group 0, bank 1 is
        // in group 1.
        let mut r = RankState::with_bank_groups(16, 4);
        r.apply(&act(0), 0, &timing);
        r.apply(&act(4), timing.t_rrd as Cycle, &timing);
        r.apply(&act(1), 2 * timing.t_rrd as Cycle, &timing);
        let rd0 = Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0));
        r.apply(&rd0, 50, &timing);
        // Different group: legal after tCCD_S.
        let rd_other = Command::read_ap(RankId(0), BankId(1), RowId(1), ColId(0));
        assert!(r.can_issue(&rd_other, 50 + timing.t_ccd as Cycle, &timing).is_ok());
        // Same group: tCCD_S is not enough, tCCD_L is required.
        let rd_same = Command::read_ap(RankId(0), BankId(4), RowId(1), ColId(0));
        let v = r.can_issue(&rd_same, 50 + timing.t_ccd as Cycle, &timing).unwrap_err();
        assert!(v.to_string().contains("tCCD_L"), "{v}");
        assert!(r.can_issue(&rd_same, 50 + timing.t_ccd_l as Cycle, &timing).is_ok());
        // next_legal_at agrees with can_issue on both banks.
        assert_eq!(r.next_legal_at(&rd_same, &timing), 50 + timing.t_ccd_l as Cycle);
        assert_eq!(r.next_legal_at(&rd_other, &timing), 50 + timing.t_ccd as Cycle);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bank_groups_must_be_a_power_of_two() {
        // The group lookup masks the bank id; three groups would alias.
        RankState::with_bank_groups(16, 3);
    }

    #[test]
    fn single_group_floor_matches_rank_floor_on_flat_parts() {
        // DDR3 (one group, tCCD_L == tCCD_S): the group floor must
        // coincide with the rank-global CAS floor so grouped code paths
        // reduce bit-identically to the original behaviour.
        let timing = t();
        let mut r = RankState::new(8);
        r.apply(&act(0), 0, &timing);
        let rd = Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0));
        r.apply(&rd, 20, &timing);
        assert_eq!(r.cas_group_floor(3, true), r.next_cas_at(true));
        assert_eq!(r.cas_group_floor(5, false), 0);
    }

    #[test]
    fn power_down_round_trip_tracks_cycles() {
        let timing = t();
        let mut r = RankState::new(8);
        let pde = Command::power_down(RankId(0));
        let pdx = Command::power_up(RankId(0));
        assert!(r.can_issue(&pde, 10, &timing).is_ok());
        r.apply(&pde, 10, &timing);
        // No commands accepted while down.
        assert!(r.can_issue(&act(0), 20, &timing).is_err());
        assert!(r.can_issue(&pdx, 50, &timing).is_ok());
        r.apply(&pdx, 50, &timing);
        assert_eq!(r.powered_down_cycles_at(50), 40);
        // tXP gates the first command after wake-up.
        assert!(r.can_issue(&act(0), 59, &timing).is_err());
        assert!(r.can_issue(&act(0), 60, &timing).is_ok());
    }

    #[test]
    fn refresh_blocks_everything_for_trfc() {
        let timing = t();
        let mut r = RankState::new(8);
        let refr = Command::refresh(RankId(0));
        assert!(r.can_issue(&refr, 0, &timing).is_ok());
        r.apply(&refr, 0, &timing);
        assert!(r.can_issue(&act(0), 207, &timing).is_err());
        assert!(r.can_issue(&act(0), 208, &timing).is_ok());
    }

    #[test]
    fn refresh_rejected_with_open_bank() {
        let timing = t();
        let mut r = RankState::new(8);
        r.apply(&act(0), 0, &timing);
        let refr = Command::refresh(RankId(0));
        assert!(r.can_issue(&refr, 100, &timing).is_err());
    }
}
