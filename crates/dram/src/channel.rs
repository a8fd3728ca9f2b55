//! Shared per-channel resources: the command bus (one command per cycle)
//! and the data bus (burst occupancy plus the rank-to-rank switch gap).

use crate::checker::Violation;
use crate::command::Command;
use crate::geometry::RankId;
use crate::timing::TimingParams;
use crate::Cycle;

/// One scheduled data-bus burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transfer {
    start: Cycle,
    end: Cycle,
    rank: RankId,
}

/// Occupancy state of one channel's command and data buses.
///
/// Data transfers are *scheduled into the future* at CAS-issue time (a read
/// CAS at cycle `c` occupies the bus at `[c + tCAS, c + tCAS + tBURST)`),
/// so the bus model keeps a short horizon of upcoming transfers and checks
/// each new CAS against all of them, not just the latest — a later-issued
/// write burst can start *before* an earlier-issued read burst.
#[derive(Debug, Clone, Default)]
pub struct ChannelState {
    last_cmd_cycle: Option<Cycle>,
    transfers: Vec<Transfer>,
    busy_cycles: Cycle,
    /// Pruning floor `min(tCAS, tCWD)`, hoisted from the device profile
    /// at construction instead of being recomputed on every CAS apply.
    /// `Default` leaves it 0, which only shrinks the pruning horizon —
    /// a superset of transfers is retained and every legality answer is
    /// unchanged — so timing-less construction stays safe.
    min_cas_lat: Cycle,
}

impl ChannelState {
    pub fn new() -> Self {
        ChannelState::default()
    }

    /// Channel state bound to one device profile, with the transfer
    /// pruning horizon fixed up front.
    pub fn for_timing(t: &TimingParams) -> Self {
        ChannelState { min_cas_lat: t.t_cas.min(t.t_cwd) as Cycle, ..ChannelState::default() }
    }

    /// Total data-bus busy cycles so far (for utilization statistics).
    pub fn data_bus_busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Checks that the command bus is free at `cycle` and, for CAS
    /// commands, that the implied data burst fits on the data bus.
    pub fn can_issue(
        &self,
        cmd: &Command,
        cycle: Cycle,
        t: &TimingParams,
    ) -> Result<(), Violation> {
        if self.last_cmd_cycle == Some(cycle) {
            return Err(Violation::state(*cmd, cycle, "command-bus collision"));
        }
        if let Some(prev) = self.last_cmd_cycle {
            if cycle < prev {
                return Err(Violation::state(*cmd, cycle, "commands issued out of order"));
            }
        }
        if cmd.kind.is_cas() {
            let (start, end) = self.burst_window(cmd, cycle, t);
            for tr in &self.transfers {
                if start < tr.end && tr.start < end {
                    return Err(Violation::state(*cmd, cycle, "data-bus overlap"));
                }
                if tr.rank != cmd.rank {
                    // Enforce the tRTRS gap on both sides of the new burst.
                    let gap = t.t_rtrs as Cycle;
                    if start < tr.end + gap && tr.start < end + gap {
                        return Err(Violation::state(*cmd, cycle, "tRTRS rank-to-rank data gap"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Earliest cycle `>= from` at which `cmd`'s implied data burst fits
    /// the data bus, given the currently scheduled transfers (exact
    /// against [`ChannelState::can_issue`]'s overlap and tRTRS rules).
    /// Non-CAS commands carry no data and return `from` unchanged.
    pub fn next_data_slot_at(&self, cmd: &Command, from: Cycle, t: &TimingParams) -> Cycle {
        if !cmd.kind.is_cas() {
            return from;
        }
        self.next_data_slot_for(cmd.kind.is_read(), cmd.rank, from, t)
    }

    /// [`ChannelState::next_data_slot_at`] for a CAS identified only by
    /// its direction and rank — burst timing depends on nothing else.
    pub fn next_data_slot_for(
        &self,
        is_read: bool,
        rank: RankId,
        from: Cycle,
        t: &TimingParams,
    ) -> Cycle {
        let lat = if is_read { t.t_cas } else { t.t_cwd } as Cycle;
        let burst = t.t_burst as Cycle;
        let mut at = from;
        // Each bump slides the burst past one conflicting transfer; the
        // list is short (pruned to the active horizon) and every bump
        // strictly increases `at`, so this settles in a few rounds.
        loop {
            let (start, end) = (at + lat, at + lat + burst);
            let mut next_at = at;
            for tr in &self.transfers {
                let gap = if tr.rank == rank { 0 } else { t.t_rtrs as Cycle };
                if start < tr.end + gap && tr.start < end + gap {
                    next_at = next_at.max((tr.end + gap).saturating_sub(lat)).max(at + 1);
                }
            }
            if next_at == at {
                return at;
            }
            at = next_at;
        }
    }

    /// The ranks (bit `r` = rank `r`, among the first `ranks`; a
    /// `Geometry` has 1 to 128 per channel) whose data bus admits a CAS
    /// of direction `is_read` issued at `cycle`: bit `r` is set iff
    /// `next_data_slot_for(is_read, r, cycle, t) == cycle`. One pass over
    /// the scheduled transfers: a true overlap admits no rank, and a
    /// transfer that only the tRTRS-widened window reaches admits its own
    /// rank alone.
    pub fn data_bus_ranks(&self, is_read: bool, cycle: Cycle, ranks: u8, t: &TimingParams) -> u128 {
        let lat = if is_read { t.t_cas } else { t.t_cwd } as Cycle;
        let (start, end) = (cycle + lat, cycle + lat + t.t_burst as Cycle);
        let gap = t.t_rtrs as Cycle;
        let mut mask = u128::MAX >> (128 - u32::from(ranks));
        for tr in &self.transfers {
            if start < tr.end && tr.start < end {
                return 0;
            }
            if start < tr.end + gap && tr.start < end + gap {
                mask &= 1 << tr.rank.0;
            }
        }
        mask
    }

    /// Records `cmd` at `cycle`. Caller must have validated legality.
    pub fn apply(&mut self, cmd: &Command, cycle: Cycle, t: &TimingParams) {
        self.last_cmd_cycle = Some(cycle);
        if cmd.kind.is_cas() {
            let (start, end) = self.burst_window(cmd, cycle, t);
            self.transfers.push(Transfer { start, end, rank: cmd.rank });
            self.busy_cycles += end - start;
            // Prune bursts that can no longer interact with new CAS
            // commands. Any later query is for a command at `cycle + 1`
            // or after (the command bus admits one command per cycle and
            // rejects out-of-order issues before reaching the data-bus
            // check), so its burst starts at `cycle + 1 + min(tCAS,
            // tCWD)` at the earliest; a transfer whose window — widened
            // by the cross-rank tRTRS gap — ends before that can never
            // conflict again.
            let horizon = cycle + 1 + self.min_cas_lat;
            self.transfers.retain(|tr| tr.end + t.t_rtrs as Cycle >= horizon);
        }
    }

    fn burst_window(&self, cmd: &Command, cycle: Cycle, t: &TimingParams) -> (Cycle, Cycle) {
        let lat = if cmd.kind.is_read() { t.t_cas } else { t.t_cwd };
        let start = cycle + lat as Cycle;
        (start, start + t.t_burst as Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, ColId, RowId};

    fn t() -> TimingParams {
        TimingParams::ddr3_1600()
    }

    fn rd(rank: u8) -> Command {
        Command::read_ap(RankId(rank), BankId(0), RowId(0), ColId(0))
    }
    fn wr(rank: u8) -> Command {
        Command::write_ap(RankId(rank), BankId(0), RowId(0), ColId(0))
    }

    #[test]
    fn command_bus_one_per_cycle() {
        let timing = t();
        let mut ch = ChannelState::new();
        ch.apply(&rd(0), 10, &timing);
        assert!(ch.can_issue(&rd(1), 10, &timing).is_err());
        // Only the bus constraint applies here: 11 is fine for the command
        // bus even though data would conflict (checked separately below).
        assert!(ch
            .can_issue(&Command::activate(RankId(1), BankId(0), RowId(0)), 11, &timing)
            .is_ok());
    }

    #[test]
    fn same_rank_bursts_may_be_contiguous() {
        let timing = t();
        let mut ch = ChannelState::new();
        ch.apply(&rd(0), 0, &timing); // data [11,15)
        assert!(ch.can_issue(&rd(0), 4, &timing).is_ok()); // data [15,19)
    }

    #[test]
    fn cross_rank_bursts_need_trtrs() {
        let timing = t();
        let mut ch = ChannelState::new();
        ch.apply(&rd(0), 0, &timing); // data [11,15)
        assert!(ch.can_issue(&rd(1), 4, &timing).is_err()); // [15,19): gap 0
        assert!(ch.can_issue(&rd(1), 5, &timing).is_err()); // [16,20): gap 1
        assert!(ch.can_issue(&rd(1), 6, &timing).is_ok()); // [17,21): gap 2
    }

    #[test]
    fn later_write_burst_before_earlier_read_burst_detected() {
        let timing = t();
        let mut ch = ChannelState::new();
        ch.apply(&rd(0), 0, &timing); // read data [11,15)
                                      // A write CAS at cycle 4 puts data at [9,13): overlaps the read.
        assert!(ch.can_issue(&wr(0), 4, &timing).is_err());
        // A write CAS at cycle 10 puts data at [15,19): same rank, legal
        // at bus level.
        assert!(ch.can_issue(&wr(0), 10, &timing).is_ok());
    }

    /// Reference data-slot search over the *unpruned* transfer history.
    fn unpruned_slot(
        history: &[(Cycle, Cycle, RankId)],
        is_read: bool,
        rank: RankId,
        from: Cycle,
        t: &TimingParams,
    ) -> Cycle {
        let lat = if is_read { t.t_cas } else { t.t_cwd } as Cycle;
        let burst = t.t_burst as Cycle;
        let mut at = from;
        loop {
            let (start, end) = (at + lat, at + lat + burst);
            let mut next_at = at;
            for &(ts, te, tr) in history {
                let gap = if tr == rank { 0 } else { t.t_rtrs as Cycle };
                if start < te + gap && ts < end + gap {
                    next_at = next_at.max((te + gap).saturating_sub(lat)).max(at + 1);
                }
            }
            if next_at == at {
                return at;
            }
            at = next_at;
        }
    }

    #[test]
    fn pruning_never_drops_a_needed_transfer_on_any_generation() {
        // Drive a packed CAS stream through the pruned channel while a
        // shadow list keeps every burst ever scheduled; after each apply
        // the pruned list must answer every future data-slot query (any
        // rank, either direction — exactly what `StreamMonitor` and the
        // schedulers still need) identically to the full history.
        for timing in [
            TimingParams::ddr3_1600(),
            TimingParams::ddr4_2400(),
            TimingParams::lpddr4_3200(),
            TimingParams::hbm2(),
        ] {
            let mut ch = ChannelState::for_timing(&timing);
            let mut shadow: Vec<(Cycle, Cycle, RankId)> = Vec::new();
            let mut cycle: Cycle = 0;
            let mut state = 0x243f_6a88_85a3_08d3u64;
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let rank = RankId(((state >> 33) % 4) as u8);
                let is_read = state >> 62 & 1 == 0;
                let jitter = ((state >> 40) % 7) as Cycle;
                let at = ch.next_data_slot_for(is_read, rank, cycle + 1 + jitter, &timing);
                let cmd = if is_read { rd(rank.0) } else { wr(rank.0) };
                assert!(ch.can_issue(&cmd, at, &timing).is_ok());
                ch.apply(&cmd, at, &timing);
                let lat = if is_read { timing.t_cas } else { timing.t_cwd } as Cycle;
                shadow.push((at + lat, at + lat + timing.t_burst as Cycle, rank));
                cycle = at;
                for probe_rank in 0..4u8 {
                    for probe_read in [false, true] {
                        for from in cycle + 1..cycle + 2 + 2 * timing.t_burst as Cycle {
                            let got = ch.next_data_slot_for(
                                probe_read,
                                RankId(probe_rank),
                                from,
                                &timing,
                            );
                            let want = unpruned_slot(
                                &shadow,
                                probe_read,
                                RankId(probe_rank),
                                from,
                                &timing,
                            );
                            assert_eq!(
                                got, want,
                                "pruned channel diverged (rank {probe_rank}, read \
                                 {probe_read}, from {from})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn busy_cycle_accounting() {
        let timing = t();
        let mut ch = ChannelState::new();
        ch.apply(&rd(0), 0, &timing);
        ch.apply(&rd(0), 4, &timing);
        assert_eq!(ch.data_bus_busy_cycles(), 8);
    }
}
