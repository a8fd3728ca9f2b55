//! Online (incremental) timing-legality monitor: the crate's one encoding
//! of the Table-1 rules.
//!
//! [`StreamMonitor`] checks one command at a time, as the stream is
//! produced. It is the witness half of a continuously-enforced invariant:
//! a controller wired through the monitor cannot issue an illegal command
//! *silently* — the violation is flagged on the cycle it happens, with the
//! offending command attached. The replay entry point,
//! [`crate::checker::TimingChecker`], sorts a finished log by cycle and
//! feeds it through a fresh monitor, so online and replay checks share
//! every rule. [`crate::device::DramDevice`] stays the independent
//! producer the rules are cross-checked against.
//!
//! The monitor expects commands in non-decreasing cycle order (the order a
//! [`crate::device::DramDevice`] command log is appended in). State updates
//! are applied even for violating commands, so one bad command does not
//! cascade into spurious follow-on reports.
//!
//! Like the device, the monitor keeps its state in arrays sized from the
//! [`Geometry`] at construction: one `RankTrack` per rank, one
//! `BankTrack` per bank (index `rank * banks_per_rank + bank`), and a
//! `[write, read]` tCCD_L slot per (rank, bank group). A command whose
//! rank, or whose bank for ACT/CAS/PRE, lies outside the geometry touches
//! no state and yields exactly one `rank or bank outside the geometry`
//! violation.

use crate::checker::Violation;
use crate::command::{CommandKind, TimedCommand};
use crate::geometry::{Geometry, RankId, RowId};
use crate::timing::TimingParams;
use crate::Cycle;

#[derive(Debug, Clone, Copy, Default)]
struct BankTrack {
    open_row: Option<RowId>,
    act_at: Option<Cycle>,
    last_read: Option<Cycle>,
    last_write: Option<Cycle>,
    pre_start: Option<Cycle>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RankTrack {
    refresh_until: Cycle,
    powered_down: bool,
    wake_at: Cycle,
    /// Cycle of the last observed refresh. Cycle 0 counts as refreshed:
    /// a device starts from a clean array.
    last_refresh: Cycle,
    /// Cycles of the last four activates, oldest first (tRRD / tFAW).
    acts: [Option<Cycle>; 4],
    /// Last CAS: (cycle, is_read).
    last_cas: Option<(Cycle, bool)>,
}

/// Incremental Table-1 rule checker over a live command stream.
#[derive(Debug, Clone)]
pub struct StreamMonitor {
    geom: Geometry,
    t: TimingParams,
    /// Cycle of the most recently observed command (command-bus rule).
    last_cmd_cycle: Option<Cycle>,
    /// Upcoming data-bus bursts within the interaction horizon:
    /// (start, end, rank). A list, not just the latest burst — data
    /// transfers are scheduled into the future at CAS time, and on parts
    /// with a deep read latency (LPDDR4, HBM2) a later write CAS can
    /// legally place its burst entirely *before* a pending read burst,
    /// which a latest-only model would misreport as an overlap.
    transfers: Vec<(Cycle, Cycle, RankId)>,
    /// Indexed by rank id.
    ranks: Vec<RankTrack>,
    /// Indexed `rank * banks_per_rank + bank`.
    banks: Vec<BankTrack>,
    /// Last `[write, read]` CAS per (rank, bank group) for tCCD_L,
    /// indexed `rank * bank_groups + group`; only used on bank-grouped
    /// geometries so flat parts keep identical violation streams.
    group_cas: Vec<[Option<Cycle>; 2]>,
    /// Pruning floor `min(tCAS, tCWD)`, hoisted from the profile at
    /// construction (mirrors [`crate::channel::ChannelState`]).
    min_cas_lat: Cycle,
}

impl StreamMonitor {
    pub fn new(geom: Geometry, t: TimingParams) -> Self {
        let ranks = geom.ranks_per_channel() as usize;
        StreamMonitor {
            geom,
            t,
            last_cmd_cycle: None,
            transfers: Vec::new(),
            ranks: vec![RankTrack::default(); ranks],
            banks: vec![BankTrack::default(); ranks * geom.banks_per_rank() as usize],
            group_cas: vec![[None; 2]; ranks * geom.bank_groups() as usize],
            min_cas_lat: t.t_cas.min(t.t_cwd) as Cycle,
        }
    }

    /// The cycle at which `rank` was last refreshed (0 if never).
    ///
    /// Exposed so a higher layer can enforce refresh *deadlines* — a
    /// liveness property the per-command rules cannot see.
    pub fn last_refresh(&self, rank: RankId) -> Cycle {
        self.ranks.get(rank.0 as usize).map_or(0, |r| r.last_refresh)
    }

    /// Feeds one command through every rule family, returning all
    /// violations it triggers (empty for a legal command).
    pub fn observe(&mut self, tc: &TimedCommand) -> Vec<Violation> {
        let c = tc.cycle;
        let cmd = tc.cmd;
        let t = &self.t;
        let bpr = self.geom.banks_per_rank() as usize;
        let (rank, bank) = (cmd.rank.0 as usize, cmd.bank.0 as usize);
        let bank_scoped =
            cmd.kind.is_cas() || matches!(cmd.kind, CommandKind::Activate | CommandKind::Precharge);
        if rank >= self.ranks.len() || (bank_scoped && bank >= bpr) {
            return vec![Violation::state(cmd, c, "rank or bank outside the geometry")];
        }
        let mut out = Vec::new();

        // Rule: one command per cycle on the command bus.
        if self.last_cmd_cycle == Some(c) {
            out.push(Violation::state(cmd, c, "command-bus collision"));
        }
        if self.last_cmd_cycle.is_none_or(|prev| c >= prev) {
            self.last_cmd_cycle = Some(c);
        }

        // Rank-level rules: tRFC exclusion and power-down state.
        let r = &mut self.ranks[rank];
        match cmd.kind {
            CommandKind::Refresh => {
                if c < r.refresh_until {
                    out.push(Violation::too_early(cmd, c, r.refresh_until, "tRFC"));
                }
                r.refresh_until = c + t.t_rfc as Cycle;
                r.last_refresh = c;
            }
            CommandKind::PowerDownEnter => {
                if r.powered_down {
                    out.push(Violation::state(cmd, c, "already powered down"));
                }
                r.powered_down = true;
            }
            CommandKind::PowerDownExit => {
                if !r.powered_down {
                    out.push(Violation::state(cmd, c, "power-up of an active rank"));
                }
                r.powered_down = false;
                r.wake_at = c + t.t_xp as Cycle;
            }
            _ => {
                if c < r.refresh_until {
                    out.push(Violation::too_early(cmd, c, r.refresh_until, "command during tRFC"));
                }
                if r.powered_down {
                    out.push(Violation::state(cmd, c, "command to a powered-down rank"));
                } else if c < r.wake_at {
                    out.push(Violation::too_early(cmd, c, r.wake_at, "tXP power-down exit"));
                }
            }
        }

        // Bank-state rules: row state, tRC, tRCD, tRAS, tRTP, tWR, tRP.
        let banks = &mut self.banks[rank * bpr..][..bpr];
        match cmd.kind {
            CommandKind::Activate => {
                let b = &mut banks[bank];
                if b.open_row.is_some() {
                    out.push(Violation::state(cmd, c, "activate while a row is open"));
                }
                if let Some(p) = b.pre_start {
                    if c < p + t.t_rp as Cycle {
                        out.push(Violation::too_early(cmd, c, p + t.t_rp as Cycle, "tRP"));
                    }
                }
                if let Some(a) = b.act_at {
                    if c < a + t.t_rc as Cycle {
                        out.push(Violation::too_early(cmd, c, a + t.t_rc as Cycle, "tRC"));
                    }
                }
                *b = BankTrack { open_row: Some(cmd.row), act_at: Some(c), ..BankTrack::default() };

                // Rank-level activate spacing: tRRD and the tFAW window.
                if let Some(prev) = r.acts[3] {
                    if c < prev + t.t_rrd as Cycle {
                        out.push(Violation::too_early(cmd, c, prev + t.t_rrd as Cycle, "tRRD"));
                    }
                }
                if let Some(oldest) = r.acts[0] {
                    if c < oldest + t.t_faw as Cycle {
                        out.push(Violation::too_early(cmd, c, oldest + t.t_faw as Cycle, "tFAW"));
                    }
                }
                r.acts.rotate_left(1);
                r.acts[3] = Some(c);
            }
            k if k.is_cas() => {
                let b = &mut banks[bank];
                match b.open_row {
                    None => out.push(Violation::state(cmd, c, "CAS on a closed bank")),
                    Some(row) if row != cmd.row => {
                        out.push(Violation::state(cmd, c, "CAS to a row that is not open"))
                    }
                    Some(_) => {
                        let a = b.act_at.unwrap_or(0);
                        if c < a + t.t_rcd as Cycle {
                            out.push(Violation::too_early(cmd, c, a + t.t_rcd as Cycle, "tRCD"));
                        }
                    }
                }
                if k.is_read() {
                    b.last_read = Some(c);
                } else {
                    b.last_write = Some(c);
                }
                if k.has_auto_precharge() {
                    let recovery = if k.is_read() {
                        c + t.t_rtp as Cycle
                    } else {
                        c + t.write_ap_pre_offset() as Cycle
                    };
                    let ras_done = b.act_at.unwrap_or(0) + t.t_ras as Cycle;
                    b.pre_start = Some(recovery.max(ras_done));
                    b.open_row = None;
                }

                // Same-rank CAS-to-CAS spacing.
                if let Some((prev, prev_read)) = r.last_cas {
                    let (min_gap, name): (u32, &'static str) = match (prev_read, k.is_read()) {
                        (true, true) | (false, false) => (t.t_ccd, "tCCD"),
                        (true, false) => (t.rd_to_wr_same_rank(), "read-to-write turnaround"),
                        (false, true) => (t.wr_to_rd_same_rank(), "tWTR write-to-read"),
                    };
                    if c < prev + min_gap as Cycle {
                        out.push(Violation::too_early(cmd, c, prev + min_gap as Cycle, name));
                    }
                }
                r.last_cas = Some((c, k.is_read()));

                // Same-bank-group same-type spacing (tCCD_L), only on
                // grouped parts.
                let groups = self.geom.bank_groups() as usize;
                if groups > 1 {
                    let group = rank * groups + self.geom.bank_group_of(cmd.bank) as usize;
                    let last = &mut self.group_cas[group][k.is_read() as usize];
                    if let Some(prev) = *last {
                        if c < prev + t.t_ccd_l as Cycle {
                            out.push(Violation::too_early(
                                cmd,
                                c,
                                prev + t.t_ccd_l as Cycle,
                                "tCCD_L same bank group",
                            ));
                        }
                    }
                    *last = Some(c);
                }

                // Data-bus occupancy: bursts never overlap, and cross-rank
                // bursts keep a tRTRS gap — against *every* burst still in
                // the interaction horizon, mirroring the channel model.
                let lat = if k.is_read() { t.t_cas } else { t.t_cwd };
                let start = c + lat as Cycle;
                let end = start + t.t_burst as Cycle;
                // A rank switch is reported once; its hint is the first
                // cycle that clears every burst it conflicts with.
                let gap = t.t_rtrs as Cycle;
                let mut rtrs_earliest = None;
                for &(tr_start, tr_end, tr_rank) in &self.transfers {
                    if start < tr_end && tr_start < end {
                        out.push(Violation::state(cmd, c, "data-bus overlap"));
                    } else if tr_rank != cmd.rank && start < tr_end + gap && tr_start < end + gap {
                        rtrs_earliest = rtrs_earliest.max(Some(c + (tr_end + gap - start)));
                    }
                }
                if let Some(e) = rtrs_earliest {
                    out.push(Violation::too_early(cmd, c, e, "tRTRS rank-to-rank data gap"));
                }
                self.transfers.push((start, end, cmd.rank));
                // Any later CAS arrives at `c + 1` or after, so its burst
                // starts at `c + 1 + min(tCAS, tCWD)` at the earliest;
                // bursts whose tRTRS-widened window ends before that can
                // never conflict again (same pruning as `ChannelState`).
                let horizon = c + 1 + self.min_cas_lat;
                self.transfers.retain(|&(_, tr_end, _)| tr_end + gap >= horizon);
            }
            CommandKind::Precharge | CommandKind::PrechargeAll => {
                let targets = if cmd.kind == CommandKind::PrechargeAll {
                    banks
                } else {
                    &mut banks[bank..=bank]
                };
                for b in targets {
                    if b.open_row.is_none() {
                        continue; // precharging a closed bank is a NOP
                    }
                    let a = b.act_at.unwrap_or(0);
                    if c < a + t.t_ras as Cycle {
                        out.push(Violation::too_early(cmd, c, a + t.t_ras as Cycle, "tRAS"));
                    }
                    if let Some(rd) = b.last_read {
                        if c < rd + t.t_rtp as Cycle {
                            out.push(Violation::too_early(cmd, c, rd + t.t_rtp as Cycle, "tRTP"));
                        }
                    }
                    if let Some(w) = b.last_write {
                        let rec = w + t.write_ap_pre_offset() as Cycle;
                        if c < rec {
                            out.push(Violation::too_early(cmd, c, rec, "write recovery (tWR)"));
                        }
                    }
                    b.pre_start = Some(c);
                    b.open_row = None;
                }
            }
            CommandKind::Refresh => {
                for b in banks {
                    if b.open_row.is_some() {
                        out.push(Violation::state(cmd, c, "refresh with a row open"));
                    }
                    if let Some(p) = b.pre_start {
                        if c < p + t.t_rp as Cycle {
                            out.push(Violation::too_early(
                                cmd,
                                c,
                                p + t.t_rp as Cycle,
                                "tRP before REF",
                            ));
                        }
                    }
                    // The rank is unusable for tRFC; model as a pending
                    // precharge completing at REF + tRFC - tRP so that the
                    // tRP rule enforces it.
                    b.pre_start = Some(c + (t.t_rfc - t.t_rp) as Cycle);
                    b.act_at = None;
                }
            }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::TimingChecker;
    use crate::command::Command;
    use crate::geometry::{BankId, ColId};

    fn monitor() -> StreamMonitor {
        StreamMonitor::new(Geometry::paper_default(), TimingParams::ddr3_1600())
    }

    fn checker() -> TimingChecker {
        TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600())
    }

    fn feed(mon: &mut StreamMonitor, cmds: &[TimedCommand]) -> Vec<Violation> {
        cmds.iter().flat_map(|tc| mon.observe(tc)).collect()
    }

    fn tc(cmd: Command, cycle: Cycle) -> TimedCommand {
        TimedCommand::new(cmd, cycle)
    }

    #[test]
    fn legal_read_stream_is_clean() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 11),
            tc(Command::activate(RankId(0), BankId(1), RowId(5)), 17),
            tc(Command::read_ap(RankId(0), BankId(1), RowId(5), ColId(0)), 28),
        ];
        let mut mon = monitor();
        assert!(feed(&mut mon, &cmds).is_empty());
    }

    #[test]
    fn early_cas_flagged_online() {
        let mut mon = monitor();
        assert!(mon.observe(&tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0)).is_empty());
        let vs = mon.observe(&tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 10));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].constraint, "tRCD");
        assert_eq!(vs[0].earliest, Some(11));
    }

    #[test]
    fn refresh_updates_last_refresh_and_blocks_rank() {
        let mut mon = monitor();
        assert!(mon.observe(&tc(Command::refresh(RankId(1)), 100)).is_empty());
        assert_eq!(mon.last_refresh(RankId(1)), 100);
        assert_eq!(mon.last_refresh(RankId(0)), 0);
        let vs = mon.observe(&tc(Command::activate(RankId(1), BankId(0), RowId(1)), 200));
        assert!(vs.iter().any(|v| v.constraint == "command during tRFC"), "{vs:?}");
    }

    #[test]
    fn state_updates_survive_violations() {
        // A too-early second activate still replaces the open row, so the
        // follow-up CAS to the *new* row is judged against the new state.
        let mut mon = monitor();
        mon.observe(&tc(Command::activate(RankId(0), BankId(0), RowId(1)), 0));
        let vs = mon.observe(&tc(Command::activate(RankId(0), BankId(0), RowId(2)), 5));
        assert!(vs.iter().any(|v| v.constraint == "activate while a row is open"));
        let vs = mon.observe(&tc(Command::read_ap(RankId(0), BankId(0), RowId(2), ColId(0)), 16));
        assert!(vs.is_empty(), "{vs:?}");
    }

    /// Tiny deterministic LCG so the shuffle test needs no RNG crate.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Rotating ACT/CAS transactions that are legal under `tp` when
    /// undisturbed; half the streams get backward jitter and stray
    /// refreshes injected so the corpus exercises both sides of the
    /// legality predicate.
    fn random_stream(rng: &mut Lcg, tp: &TimingParams, txns: usize) -> Vec<TimedCommand> {
        let chaotic = rng.below(2) == 1;
        let mut out = Vec::new();
        let mut t: Cycle = 20;
        let mut last: Cycle = 0;
        let mut push = |cmd: Command, cycle: Cycle, last: &mut Cycle| {
            let c = cycle.max(*last);
            *last = c;
            out.push(tc(cmd, c));
        };
        for i in 0..txns {
            let rank = RankId((i % 2) as u8);
            let bank = BankId(((i / 2) % 4) as u8);
            let row = RowId((i % 3) as u32);
            if chaotic && rng.below(10) == 0 {
                push(Command::refresh(rank), t + rng.below(8), &mut last);
                t += tp.t_rfc as Cycle + rng.below(16);
            }
            let jitter =
                |rng: &mut Lcg| if chaotic && rng.below(4) == 0 { rng.below(6) } else { 0 };
            let act_c = t.saturating_sub(jitter(rng));
            push(Command::activate(rank, bank, row), act_c, &mut last);
            let cas_c = (t + tp.t_rcd as Cycle).saturating_sub(jitter(rng));
            let cas = if rng.below(4) == 0 {
                Command::write_ap(rank, bank, row, ColId(0))
            } else {
                Command::read_ap(rank, bank, row, ColId(0))
            };
            push(cas, cas_c, &mut last);
            t += 17 + rng.below(4);
        }
        out
    }

    /// Shuffles `stream` (non-decreasing in cycle) a run of same-cycle
    /// commands at a time: the runs land in random order, each keeping
    /// its own internal order, which is all a stable sort can restore.
    fn shuffle_runs(rng: &mut Lcg, stream: &[TimedCommand]) -> Vec<TimedCommand> {
        let mut runs: Vec<&[TimedCommand]> = stream.chunk_by(|a, b| a.cycle == b.cycle).collect();
        for i in (1..runs.len()).rev() {
            runs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        runs.concat()
    }

    /// The replay checker's one job is ordering: on a flat (DDR3) and a
    /// bank-grouped (DDR4) geometry, checking a shuffled log gives the
    /// same violations, in the same order, as checking the sorted log.
    #[test]
    fn checker_is_order_insensitive_on_flat_and_grouped_geometries() {
        let parts = [
            (Geometry::paper_default(), TimingParams::ddr3_1600(), 0x5EED_CAFE),
            (
                Geometry::with_bank_groups(1, 8, 16, 4, 32768, 128),
                TimingParams::ddr4_2400(),
                0xDD44_2400,
            ),
        ];
        for (geom, t, seed) in parts {
            let chk = TimingChecker::new(geom, t);
            let (mut rng, mut shuffle) = (Lcg(seed), Lcg(!seed));
            let mut illegal = 0usize;
            for case in 0..300 {
                let stream = random_stream(&mut rng, &t, 24);
                let sorted = chk.check(&stream);
                let shuffled = shuffle_runs(&mut shuffle, &stream);
                assert_eq!(chk.check(&shuffled), sorted, "case {case}: stream={stream:?}");
                if !sorted.is_empty() {
                    illegal += 1;
                }
            }
            // The generator must actually exercise both sides of the predicate.
            assert!(illegal > 30, "only {illegal} illegal streams generated");
            assert!(illegal < 270, "only {} legal streams generated", 300 - illegal);
        }
    }

    /// Pins the whole violation stream, not only rule names: an FNV-1a
    /// digest of every violation's `Debug` form (command, cycle, earliest
    /// hint, rule) over seeded random streams on all four generations'
    /// geometry and timing.
    #[test]
    fn violation_stream_digest_is_pinned() {
        let (mut digest, mut flagged) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        for (i, gen) in crate::DeviceGeneration::all().into_iter().enumerate() {
            let p = gen.profile();
            let mut rng = Lcg(0xD16E_5700 + i as u64);
            for _ in 0..200 {
                let mut mon = StreamMonitor::new(p.geometry, p.timing);
                for tc in random_stream(&mut rng, &p.timing, 32) {
                    for v in mon.observe(&tc) {
                        for byte in format!("{v:?}").bytes() {
                            digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                        }
                        flagged += 1;
                    }
                }
            }
        }
        assert_eq!((flagged, digest), (18229, 0xba77_d27b_df60_a89d));
    }

    #[test]
    fn same_group_cas_flagged_online_on_ddr4() {
        let geom = Geometry::with_bank_groups(1, 8, 16, 4, 32768, 128);
        let t = TimingParams::ddr4_2400();
        let mut mon = StreamMonitor::new(geom, t);
        let acts = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(0), BankId(4), RowId(5)), t.t_rrd as Cycle),
            tc(Command::activate(RankId(0), BankId(1), RowId(5)), 2 * t.t_rrd as Cycle),
        ];
        assert!(feed(&mut mon, &acts).is_empty());
        // Cross-group read at tCCD_S after the bank-1 read is clean.
        let vs = mon.observe(&tc(Command::read_ap(RankId(0), BankId(1), RowId(5), ColId(0)), 56));
        assert!(vs.is_empty(), "{vs:?}");
        let vs = mon.observe(&tc(
            Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)),
            56 + t.t_ccd as Cycle,
        ));
        assert!(vs.is_empty(), "{vs:?}");
        // Same-group read only tCCD_S after the bank-0 read: flagged.
        let vs = mon.observe(&tc(
            Command::read_ap(RankId(0), BankId(4), RowId(5), ColId(0)),
            56 + 2 * t.t_ccd as Cycle,
        ));
        assert!(vs.iter().any(|v| v.constraint == "tCCD_L same bank group"), "{vs:?}");
    }

    /// On streams that are legal per the batch checker, the monitor agrees
    /// violation-for-violation (both empty), including across refreshes.
    #[test]
    fn legal_multi_rank_stream_with_refresh() {
        let cmds = [
            tc(Command::activate(RankId(0), BankId(0), RowId(5)), 0),
            tc(Command::activate(RankId(1), BankId(0), RowId(5)), 1),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(5), ColId(0)), 12),
            tc(Command::read_ap(RankId(1), BankId(0), RowId(5), ColId(0)), 18),
            tc(Command::refresh(RankId(0)), 60),
            tc(Command::activate(RankId(0), BankId(0), RowId(6)), 268),
            tc(Command::read_ap(RankId(0), BankId(0), RowId(6), ColId(0)), 279),
        ];
        assert!(checker().verify(&cmds).is_ok());
        let mut mon = monitor();
        assert!(feed(&mut mon, &cmds).is_empty());
    }
}
