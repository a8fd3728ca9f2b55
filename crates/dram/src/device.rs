//! The incremental single-channel DRAM device model that a memory
//! controller drives command by command.

use crate::channel::ChannelState;
use crate::checker::Violation;
use crate::command::{Command, CommandKind, TimedCommand};
use crate::counters::ActivityCounters;
use crate::geometry::{BankId, Geometry, RankId, RowId};
use crate::rank::{PowerState, RankState};
use crate::timing::TimingParams;
use crate::Cycle;

/// What issuing a command produced, in the time domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For reads: the cycle at which the full line has arrived at the
    /// controller (`CAS + tCAS + tBURST`). For writes: the cycle at which
    /// the burst has been transmitted. `None` for non-CAS commands.
    pub data_done: Option<Cycle>,
}

/// The device's record of one applied command: the command, its issue
/// cycle, whether it was a suppressed dummy, and (for CAS) the cycle its
/// data burst completes. The checker and the monitor replay its
/// [`ObsCommand::timed`] projection; the tracing layer also reads the
/// outcome, to size timeline slices without knowing device timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsCommand {
    pub cmd: Command,
    pub cycle: Cycle,
    pub suppressed: bool,
    pub data_done: Option<Cycle>,
}

impl ObsCommand {
    /// The command and its issue cycle: the schedule another domain
    /// could observe, as [`crate::checker::TimingChecker`] consumes it.
    pub fn timed(&self) -> TimedCommand {
        TimedCommand::new(self.cmd, self.cycle)
    }
}

/// Cycle-accurate model of one DDR3 channel and its ranks/banks.
///
/// Every command must be validated with [`DramDevice::can_issue`] (or
/// issued through [`DramDevice::issue`], which validates internally and
/// returns an error on illegal issue). While the command tap is armed
/// ([`DramDevice::record_commands`]) every applied command is pushed
/// onto it once, as an [`ObsCommand`]; the checker, the online monitor
/// and the tracing layer all read that one stream. Disarmed, the tap is
/// a branch on `None` with no allocation.
#[derive(Debug, Clone)]
pub struct DramDevice {
    geom: Geometry,
    t: TimingParams,
    ranks: Vec<RankState>,
    channel: ChannelState,
    counters: ActivityCounters,
    tap: Option<Vec<ObsCommand>>,
    last_issue: Option<Cycle>,
}

impl DramDevice {
    /// A fresh device for one channel of `geom`.
    pub fn new(geom: Geometry, t: TimingParams) -> Self {
        let ranks = (0..geom.ranks_per_channel())
            .map(|_| RankState::with_bank_groups(geom.banks_per_rank(), geom.bank_groups()))
            .collect();
        DramDevice {
            geom,
            t,
            ranks,
            channel: ChannelState::for_timing(&t),
            counters: ActivityCounters::new(geom.ranks_per_channel() as usize),
            tap: None,
            last_issue: None,
        }
    }

    /// Arms the command tap: from now on every applied command is
    /// recorded, for replay through the checker or for tracing.
    pub fn record_commands(&mut self) {
        if self.tap.is_none() {
            self.tap = Some(Vec::new());
        }
    }

    /// Whether the command tap is armed.
    pub fn is_recording(&self) -> bool {
        self.tap.is_some()
    }

    /// Takes the recorded commands as a checker stream, leaving the tap
    /// armed.
    pub fn take_log(&mut self) -> Vec<TimedCommand> {
        let mut out = Vec::new();
        self.take_obs_into(&mut out);
        out.iter().map(ObsCommand::timed).collect()
    }

    /// Whether [`DramDevice::take_obs_into`] would return anything.
    pub fn has_obs(&self) -> bool {
        self.tap.as_ref().is_some_and(|l| !l.is_empty())
    }

    /// Drains the recorded commands into `out`, reusing the caller's
    /// buffer instead of allocating a fresh `Vec` per drain.
    pub fn take_obs_into(&mut self, out: &mut Vec<ObsCommand>) {
        if let Some(l) = &mut self.tap {
            out.append(l);
        }
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    pub fn timing(&self) -> &TimingParams {
        &self.t
    }

    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Records the end-of-simulation cycle so utilization figures are
    /// meaningful, and folds in live power-down tallies.
    pub fn finish(&mut self, now: Cycle) {
        self.counters.elapsed_cycles = now;
        self.counters.data_bus_busy = self.channel.data_bus_busy_cycles();
        for (i, r) in self.ranks.iter().enumerate() {
            self.counters.rank_mut(i).powered_down_cycles = r.powered_down_cycles_at(now);
        }
    }

    /// The row currently open in `rank`/`bank`, if any.
    pub fn open_row(&self, rank: RankId, bank: BankId) -> Option<RowId> {
        self.ranks[rank.0 as usize].open_row(bank.0 as usize)
    }

    /// The struct-of-arrays bank state of `rank`, read-only. Queue-scan
    /// heavy schedulers classify pending transactions against the raw
    /// open-row and ready-cycle slices (one array load per entry) and
    /// use the ready cycles as sound *prefilters*: a bank whose own
    /// floor is still in the future cannot pass [`DramDevice::can_issue`]
    /// for that command class, so the full rank/channel validation can
    /// be skipped without changing any scheduling decision.
    pub fn banks_of(&self, rank: RankId) -> &crate::bank::BankArrays {
        self.ranks[rank.0 as usize].banks()
    }

    /// The ranks (bit `r` = rank `r`) whose data bus admits a CAS of
    /// direction `is_read` issued at `cycle` — exact against
    /// [`DramDevice::can_issue`]'s burst-overlap and tRTRS rules
    /// (command-bus and rank/bank windows are *not* checked). A CAS
    /// depends on the bus only through its rank and direction, so one
    /// call answers the bus for every candidate of a scan; a scheduler
    /// can drop the candidates of every rank outside the mask unchecked.
    pub fn data_bus_ranks(&self, is_read: bool, cycle: Cycle) -> u128 {
        self.channel.data_bus_ranks(is_read, cycle, self.geom.ranks_per_channel(), &self.t)
    }

    /// True if any bank on any rank holds an open row. Schedulers use
    /// this to decide whether a future refresh quiesce will have work
    /// (a precharge-all sweep) to do.
    pub fn any_open_row(&self) -> bool {
        self.ranks.iter().any(|rank| rank.banks().any_open())
    }

    /// Whether `rank` is currently powered down.
    pub fn is_powered_down(&self, rank: RankId) -> bool {
        matches!(self.ranks[rank.0 as usize].power_state(), PowerState::PoweredDown { .. })
    }

    /// True if every bank of `rank` is precharged and recovered at `cycle`.
    pub fn rank_idle(&self, rank: RankId, cycle: Cycle) -> bool {
        self.ranks[rank.0 as usize].all_banks_idle(cycle)
    }

    /// True if `rank`/`bank` could accept an `Activate` at `cycle`
    /// (bank idle, rank awake and not refreshing). Rank activation
    /// windows (tRRD/tFAW) and bus state are not checked — callers with
    /// precomputed schedules already guarantee those.
    pub fn rank_bank_ready(&self, rank: RankId, bank: BankId, cycle: Cycle) -> bool {
        self.ranks[rank.0 as usize].bank_ready(bank.0 as usize, cycle)
    }

    /// Earliest cycle at which `rank` accepts a column command of the
    /// given direction (tCCD / read-write turnaround windows). Schedulers
    /// use this to predict whether a transaction's CAS will issue on time.
    pub fn rank_next_cas_at(&self, rank: RankId, is_read: bool) -> Cycle {
        self.ranks[rank.0 as usize].next_cas_at(is_read)
    }

    /// Validates `cmd` at `cycle` against bank, rank and channel rules.
    pub fn can_issue(&self, cmd: &Command, cycle: Cycle) -> Result<(), Violation> {
        if cmd.rank.0 >= self.geom.ranks_per_channel() {
            return Err(Violation::state(*cmd, cycle, "rank out of range"));
        }
        if (cmd.kind.is_cas() || cmd.kind == CommandKind::Activate)
            && cmd.bank.0 >= self.geom.banks_per_rank()
        {
            return Err(Violation::state(*cmd, cycle, "bank out of range"));
        }
        if let Some(last) = self.last_issue {
            if cycle < last {
                return Err(Violation::state(*cmd, cycle, "commands issued out of order"));
            }
        }
        let rank = &self.ranks[cmd.rank.0 as usize];
        rank.can_issue(cmd, cycle, &self.t)?;
        if cmd.kind.is_cas() || matches!(cmd.kind, CommandKind::Activate | CommandKind::Precharge) {
            rank.banks().can_issue(cmd.bank.0 as usize, cmd, cycle, &self.t)?;
        } else if matches!(cmd.kind, CommandKind::PrechargeAll | CommandKind::Refresh) {
            for b in 0..rank.banks().len() {
                rank.banks().can_issue(b, cmd, cycle, &self.t)?;
            }
        }
        self.channel.can_issue(cmd, cycle, &self.t)
    }

    /// Issues `cmd` at `cycle`, validating first.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] if the command is illegal; the
    /// device state is unchanged in that case, so a scheduler may walk
    /// its candidates calling `issue` and stop at the first `Ok`, paying
    /// one validation per command it issues.
    pub fn issue(&mut self, cmd: &Command, cycle: Cycle) -> Result<IssueOutcome, Violation> {
        self.can_issue(cmd, cycle)?;
        Ok(self.apply(cmd, cycle, false))
    }

    /// Applies a command *without* legality checks and *without* touching
    /// DRAM array activity counters beyond timing state.
    ///
    /// This implements FS energy optimisation 1 ("suppressed
    /// reads/writes"): the controller updates timing state *as if* the
    /// dummy command had issued, but the device does not spend array or
    /// bus energy. The command is still checked (a suppressed command
    /// must still be legal, or the pipeline math is wrong) and still
    /// recorded on the tap, because the *schedule* is what security
    /// verification replays.
    pub fn issue_suppressed(
        &mut self,
        cmd: &Command,
        cycle: Cycle,
    ) -> Result<IssueOutcome, Violation> {
        self.can_issue(cmd, cycle)?;
        Ok(self.apply(cmd, cycle, true))
    }

    /// Applies a validated command: timing state, activity counters (a
    /// suppressed CAS counts only as suppressed) and one tap record.
    fn apply(&mut self, cmd: &Command, cycle: Cycle, suppressed: bool) -> IssueOutcome {
        let rank_idx = cmd.rank.0 as usize;
        self.ranks[rank_idx].apply(cmd, cycle, &self.t);
        self.channel.apply(cmd, cycle, &self.t);
        self.last_issue = Some(cycle);
        let rc = self.counters.rank_mut(rank_idx);
        match cmd.kind {
            _ if suppressed => rc.suppressed += cmd.kind.is_cas() as u64,
            CommandKind::Activate => rc.activates += 1,
            CommandKind::Read | CommandKind::ReadAp => rc.reads += 1,
            CommandKind::Write | CommandKind::WriteAp => rc.writes += 1,
            CommandKind::Precharge | CommandKind::PrechargeAll => rc.precharges += 1,
            CommandKind::Refresh => rc.refreshes += 1,
            _ => {}
        }
        let data_done = if cmd.kind.is_read() {
            Some(cycle + (self.t.t_cas + self.t.t_burst) as Cycle)
        } else if cmd.kind.is_write() {
            Some(cycle + (self.t.t_cwd + self.t.t_burst) as Cycle)
        } else {
            None
        };
        if let Some(l) = &mut self.tap {
            l.push(ObsCommand { cmd: *cmd, cycle, suppressed, data_done });
        }
        IssueOutcome { data_done }
    }

    /// Earliest cycle >= `from` at which `cmd` becomes legal, found by
    /// linear scan up to `limit` cycles ahead (schedulers use this for
    /// planning; FS never needs it because its schedule is precomputed).
    pub fn earliest_issue(&self, cmd: &Command, from: Cycle, limit: Cycle) -> Option<Cycle> {
        (from..from + limit).find(|&c| self.can_issue(cmd, c).is_ok())
    }

    /// The cycle of the most recent command on this channel, if any
    /// (simulators use this to detect no-op controller ticks).
    pub fn last_issue_at(&self) -> Option<Cycle> {
        self.last_issue
    }

    /// Constant-time *lower bound* on the first cycle `>= from` at which
    /// `cmd` could pass [`DramDevice::can_issue`], assuming no further
    /// commands issue in the meantime: the maximum of every bank- and
    /// rank-level window (tRC, tRCD, tRAS, tRRD, tFAW, CAS turnarounds,
    /// refresh recovery, power-down) and, for CAS commands, the first
    /// data-bus slot clearing the scheduled bursts and tRTRS gaps.
    /// `Cycle::MAX` when only another command could ever make `cmd`
    /// legal (wrong row open, rank powered down). Event-driven
    /// schedulers use this to advertise their next possible issue cycle
    /// without scanning.
    pub fn next_legal_at(&self, cmd: &Command, from: Cycle) -> Cycle {
        self.channel_legal_at(cmd, self.rank_level_next_legal_at(cmd, from))
    }

    /// The rank- and bank-level component of
    /// [`DramDevice::next_legal_at`]: the same lower bound *before*
    /// channel (data-bus, command-bus) constraints apply. Cheap — a
    /// handful of window comparisons, no data-bus scan.
    ///
    /// For a fixed rank and CAS direction, [`DramDevice::channel_legal_at`]
    /// is one shared monotone function of this value, so a scheduler
    /// minimising over many same-class candidates can take the minimum
    /// of this bound across them and pay for a single channel scan:
    /// the candidate with the smallest pre-channel bound also achieves
    /// the smallest full legality cycle.
    pub fn rank_level_next_legal_at(&self, cmd: &Command, from: Cycle) -> Cycle {
        self.ranks[cmd.rank.0 as usize].next_legal_at(cmd, &self.t).max(from)
    }

    /// Pre-channel event floors of one rank's candidate classes,
    /// `[read CAS, write CAS, PRE, ACT]`: for each class, the earliest
    /// cycle at which any of its banks clears every rank- and bank-level
    /// window ([`DramDevice::rank_level_next_legal_at`] minimised over
    /// the class), assuming no further commands issue in the meantime.
    /// `Cycle::MAX` for an empty class, and for every class while the
    /// rank is powered down. The floors depend only on this rank's state
    /// and masks, so a scheduler may cache them per rank and recompute a
    /// rank only after a command on it or a change to its masks.
    ///
    /// `masks` are the rank's bank bitmasks (`bit = bank`) per class,
    /// and each set bit's class must match the bank's row-buffer state:
    /// CAS bits require the target row to be open, PRE bits an open
    /// bank, ACT bits a closed bank.
    pub fn rank_event_floors(&self, rank: RankId, masks: [u128; 4]) -> [Cycle; 4] {
        fn min_over(mask: u128, f: impl Fn(usize) -> Cycle) -> Cycle {
            let (mut best, mut m) = (Cycle::MAX, mask);
            while m != 0 {
                best = best.min(f(m.trailing_zeros() as usize));
                m &= m - 1;
            }
            best
        }
        let mut out = [Cycle::MAX; 4];
        // One OR, not an array compare: `masks == [0; 4]` compiles to a
        // `bcmp` call on this hot path.
        if masks[0] | masks[1] | masks[2] | masks[3] == 0 {
            return out;
        }
        let rank = &self.ranks[rank.0 as usize];
        let Some((quiet, act_floor, next_read, next_write)) = rank.event_bound_parts(&self.t)
        else {
            return out; // powered down: no candidate class applies
        };
        let banks = rank.banks();
        for (d, turn) in [next_read, next_write].into_iter().enumerate() {
            if masks[d] != 0 {
                // Per-bank CAS readiness must fold in the bank group's
                // tCCD_L floor, or grouped parts (DDR4/HBM) would report
                // a bound below the first legal cycle and the fast path
                // would diverge from per-cycle stepping. The readiness
                // array is contiguous (SoA), so this walk stays within
                // one or two cache lines per rank.
                let cas = banks.next_cas_slice();
                let best = min_over(masks[d], |b| cas[b].max(rank.cas_group_floor(b, d == 0)));
                out[d] = quiet.max(turn).max(best);
            }
        }
        if masks[2] != 0 {
            let pre_ready = banks.next_precharge_slice();
            out[2] = quiet.max(min_over(masks[2], |b| pre_ready[b]));
        }
        if masks[3] != 0 {
            let act_ready = banks.next_activate_slice();
            out[3] = quiet.max(act_floor).max(min_over(masks[3], |b| act_ready[b]));
        }
        out
    }

    /// Candidate bound for event-driven schedulers: a lower bound on the
    /// first cycle `>= from` at which any command in the candidate
    /// classes whose per-rank floors `floors` holds (`floors[r]` is rank
    /// `r`'s [`DramDevice::rank_event_floors`], possibly cached; one entry
    /// per rank of the channel) could pass [`DramDevice::can_issue`],
    /// assuming no further commands issue in the meantime. Equivalent to
    /// taking the minimum of
    /// [`DramDevice::next_legal_at`] over one representative command per
    /// candidate bank: within a class the bank-level term is the only
    /// one that varies, and the channel completion is one shared
    /// monotone function per (rank, direction) that never lowers its
    /// argument, so each class minimum is achieved by its floor.
    ///
    /// The PRE and ACT floors of every rank come first; a CAS floor then
    /// pays for its data-bus scan only while it lies below the best
    /// bound so far, and the scan returns `from` as soon as some term
    /// reaches it.
    pub fn next_event_bound(&self, from: Cycle, floors: &[[Cycle; 4]]) -> Cycle {
        debug_assert_eq!(floors.len(), self.geom.ranks_per_channel() as usize);
        let bump = |at: Cycle| if self.last_issue == Some(at) { at + 1 } else { at };
        let mut next = Cycle::MAX;
        for f in floors {
            next = next.min(bump(f[2].max(from))).min(bump(f[3].max(from)));
            if next <= from {
                return from;
            }
        }
        for (r, f) in floors.iter().enumerate() {
            for (d, is_read) in [(0, true), (1, false)] {
                let at = f[d].max(from);
                if at < next {
                    let slot =
                        self.channel.next_data_slot_for(is_read, RankId(r as u8), at, &self.t);
                    next = next.min(bump(slot));
                }
            }
            if next <= from {
                return from;
            }
        }
        next
    }

    /// Channel-level completion of
    /// [`DramDevice::rank_level_next_legal_at`]: for every `cmd` and
    /// `from`, `next_legal_at(cmd, from)` equals
    /// `channel_legal_at(cmd, rank_level_next_legal_at(cmd, from))`.
    /// Monotone non-decreasing in `at`; depends on `cmd` only through
    /// its rank and CAS direction.
    pub fn channel_legal_at(&self, cmd: &Command, at: Cycle) -> Cycle {
        if at == Cycle::MAX {
            return at;
        }
        let at = self.channel.next_data_slot_at(cmd, at, &self.t);
        // Command bus: one command per cycle.
        if self.last_issue == Some(at) {
            at + 1
        } else {
            at
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::TimingChecker;
    use crate::geometry::ColId;
    use proptest::prelude::*;

    fn dev() -> DramDevice {
        DramDevice::new(Geometry::paper_default(), TimingParams::ddr3_1600())
    }

    #[test]
    fn read_transaction_data_timing() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 0).unwrap();
        let out = d.issue(&Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0)), 11).unwrap();
        assert_eq!(out.data_done, Some(11 + 11 + 4));
    }

    #[test]
    fn illegal_issue_leaves_state_unchanged() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 0).unwrap();
        let early = Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0));
        assert!(d.issue(&early, 5).is_err());
        // Still legal at the proper time: the failed issue did not corrupt
        // bank state.
        assert!(d.issue(&early, 11).is_ok());
    }

    #[test]
    fn recorded_log_passes_checker() {
        let mut d = dev();
        d.record_commands();
        let mut c = 0;
        for i in 0..8u8 {
            let act = Command::activate(RankId(i), BankId(0), RowId(1));
            c = d.earliest_issue(&act, c, 1000).unwrap();
            d.issue(&act, c).unwrap();
            let rd = Command::read_ap(RankId(i), BankId(0), RowId(1), ColId(0));
            c = d.earliest_issue(&rd, c, 1000).unwrap();
            d.issue(&rd, c).unwrap();
        }
        let log = d.take_log();
        assert_eq!(log.len(), 16);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        assert!(checker.verify(&log).is_ok(), "{:?}", checker.check(&log));
    }

    #[test]
    fn counters_track_commands() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(2), BankId(0), RowId(1)), 0).unwrap();
        d.issue(&Command::write_ap(RankId(2), BankId(0), RowId(1), ColId(0)), 11).unwrap();
        assert_eq!(d.counters().rank(2).activates, 1);
        assert_eq!(d.counters().rank(2).writes, 1);
        assert_eq!(d.counters().total_reads(), 0);
    }

    #[test]
    fn suppressed_issue_counts_separately_but_blocks_timing() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 0).unwrap();
        d.issue_suppressed(&Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0)), 11)
            .unwrap();
        assert_eq!(d.counters().rank(0).reads, 0);
        assert_eq!(d.counters().rank(0).suppressed, 1);
        // Timing state advanced: the bank is auto-precharging, so an
        // activate at cycle 12 is illegal exactly as for a real read.
        assert!(d.can_issue(&Command::activate(RankId(0), BankId(0), RowId(2)), 12).is_err());
    }

    #[test]
    fn tap_records_each_issue_once_with_outcomes() {
        let mut d = dev();
        assert!(!d.has_obs());
        d.record_commands();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 0).unwrap();
        d.issue(&Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0)), 11).unwrap();
        d.issue(&Command::activate(RankId(1), BankId(0), RowId(2)), 12).unwrap();
        d.issue_suppressed(&Command::read_ap(RankId(1), BankId(0), RowId(2), ColId(0)), 23)
            .unwrap();
        assert!(d.has_obs());
        let mut obs = Vec::new();
        d.take_obs_into(&mut obs);
        assert_eq!(obs.len(), 4);
        assert_eq!(obs[0].cycle, 0);
        assert_eq!(obs[0].data_done, None);
        assert_eq!(obs[1].data_done, Some(11 + 11 + 4));
        assert!(!obs[1].suppressed);
        assert!(obs[3].suppressed);
        assert_eq!(obs[3].data_done, Some(23 + 11 + 4));
        // Drained; recording stays on, and the checker view of the same
        // tap is its `timed` projection.
        assert!(!d.has_obs());
        let pre = Command::precharge(RankId(0), BankId(0));
        d.issue(&pre, 40).unwrap();
        assert!(d.has_obs());
        assert_eq!(d.take_log(), vec![TimedCommand::new(pre, 40)]);
        assert!(d.is_recording() && !d.has_obs());
    }

    #[test]
    fn out_of_order_issue_rejected() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 50).unwrap();
        let v = d.issue(&Command::activate(RankId(1), BankId(0), RowId(1)), 49).unwrap_err();
        assert!(v.to_string().contains("out of order"));
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let d = dev();
        let cmd = Command::activate(RankId(8), BankId(0), RowId(0));
        assert!(d.can_issue(&cmd, 0).is_err());
    }

    #[test]
    fn earliest_issue_finds_trcd_boundary() {
        let mut d = dev();
        d.issue(&Command::activate(RankId(0), BankId(0), RowId(1)), 0).unwrap();
        let rd = Command::read_ap(RankId(0), BankId(0), RowId(1), ColId(0));
        assert_eq!(d.earliest_issue(&rd, 0, 100), Some(11));
    }

    /// A device with row 1 open on bank 0 of every rank, and the first
    /// cycle by which every such CAS has cleared its rank and bank
    /// windows.
    fn opened(generation: crate::DeviceGeneration) -> (DramDevice, Cycle) {
        let p = generation.profile();
        let mut d = DramDevice::new(p.geometry, p.timing);
        let mut c = 0;
        for r in 0..p.geometry.ranks_per_channel() {
            let act = Command::activate(RankId(r), BankId(0), RowId(1));
            c = d.earliest_issue(&act, c, 1000).unwrap();
            d.issue(&act, c).unwrap();
        }
        (d, c + 200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn data_bus_ranks_match_the_slot_search_and_can_issue(
            bursts in prop::collection::vec(
                // Half the bursts take no slack at all.
                (0u8..8, any::<bool>(), 0u64..24)
                    .prop_map(|(r, read, s)| (r, read, s.saturating_sub(12))),
                1..24,
            ),
        ) {
            // Bursts land at the first slot their bus admits after a
            // random slack, so same-rank ones often run back to back and
            // cross-rank ones sit right at the tRTRS edge. After each,
            // every probe cycle until the bus clears, every rank and both
            // directions compare the mask with the slot search and with
            // the device's full validation of a CAS whose rank and bank
            // windows are all open (the bursts bypass the rank state).
            for generation in crate::DeviceGeneration::all() {
                let (mut d, mut cycle) = opened(generation);
                let t = d.t;
                let ranks = d.geom.ranks_per_channel();
                let all = u128::MAX >> (128 - ranks as u32);
                // Past this many cycles after the last burst's CAS, no
                // probe's window reaches a scheduled transfer.
                let span = (2 * (t.t_burst + t.t_rtrs) + t.t_cas.abs_diff(t.t_cwd)) as Cycle;
                let cas = |r, read| {
                    if read {
                        Command::read(r, BankId(0), RowId(1), ColId(0))
                    } else {
                        Command::write(r, BankId(0), RowId(1), ColId(0))
                    }
                };
                let mut seen = [false; 3]; // empty, one rank, every rank
                for &(rank, is_read, slack) in &bursts {
                    let rank = RankId(rank % ranks);
                    let at = d.channel.next_data_slot_for(is_read, rank, cycle + 1 + slack, &t);
                    d.channel.apply(&cas(rank, is_read), at, &t);
                    cycle = at;
                    for c in cycle + 1..=cycle + 1 + span {
                        for read in [true, false] {
                            let mask = d.data_bus_ranks(read, c);
                            prop_assert_eq!(mask & !all, 0);
                            seen[0] |= mask == 0;
                            seen[1] |= mask.count_ones() == 1;
                            seen[2] |= mask == all;
                            for r in (0..ranks).map(RankId) {
                                let admits = mask >> r.0 & 1 != 0;
                                let slot = d.channel.next_data_slot_for(read, r, c, &t);
                                prop_assert_eq!(
                                    admits, slot == c,
                                    "{} rank {} read {} at {}", generation, r.0, read, c
                                );
                                let verdict = d.can_issue(&cas(r, read), c);
                                prop_assert_eq!(
                                    admits, verdict.is_ok(),
                                    "{} rank {} read {} at {}: {:?}", generation, r.0, read, c,
                                    verdict
                                );
                            }
                        }
                    }
                }
                prop_assert_eq!(seen, [true; 3], "{}", generation);
            }
        }
    }
}
