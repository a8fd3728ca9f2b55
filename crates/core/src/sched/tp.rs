//! Temporal Partitioning (Wang et al., HPCA 2014) — the prior secure
//! scheme the paper compares against (Section 2.3) — and its flush-based
//! relative from the `fence.t` family (arXiv:2409.07576).
//!
//! Time is sliced into fixed *turns*; only the turn's owner domain may
//! start memory transactions, and no transaction may start during the
//! *dead time* at the end of a turn (so its resource usage cannot spill
//! into the next owner's turn). Three policies share this skeleton and
//! differ only in what a turn may leave behind:
//!
//! * **Bank partitioned** (`TpBankPartitioned`): banks are private to a
//!   domain, so rows may stay open across turns (the next owner touches
//!   different banks) and the dead time only covers the shared-bus tail
//!   (~12 ns).
//! * **No partitioning** (`TpNoPartition`): banks are shared, so the turn
//!   runs close-page — every CAS auto-precharges — and the dead time
//!   covers the full bank-recovery worst case (~65 ns).
//! * **Fence** (`TpFence`): banks are shared but the owner runs
//!   *open-page* (keeping the row-buffer benefit TP-NP gives up); the
//!   dead time is a *fence window* in which in-flight work drains and a
//!   precharge-all sweep flushes every row buffer. The next owner always
//!   inherits all-closed banks, so nothing about the previous owner's row
//!   or bank footprint survives the hand-off. The window is derived from
//!   the device timing ([`fence_cycles`]), so the policy constructs on
//!   every shipped device generation.

use crate::domain::DomainId;
use crate::error::ConfigError;
use crate::queues::{QueueFull, TransactionQueue};
use crate::refresh::RefreshManager;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::{Transaction, TxnKind};
use fsmc_dram::command::Command;
use fsmc_dram::geometry::{BankId, Geometry, RankId};
use fsmc_dram::{Cycle, DramDevice, TimingParams};

/// Dead time (cycles) for bank-partitioned TP: the paper quotes ~12 ns
/// (~10 DRAM cycles) because only the shared data bus constrains the
/// hand-off.
pub const DEAD_TIME_BP: u32 = 10;
/// Dead time for non-partitioned TP: ~65 ns (~52 cycles) covering the
/// worst-case bank occupancy of the last transaction plus the precharge
/// sweep that returns the banks to the next owner closed.
pub const DEAD_TIME_NP: u32 = 52;

/// The fence window in cycles for a given device timing: the worst-case
/// tail of the last transaction allowed to start (ACT → CAS → data →
/// write recovery) plus the precharge-all flush, with a little slack for
/// bus turnaround.
pub fn fence_cycles(t: &TimingParams) -> u32 {
    t.t_rcd + t.t_cas.max(t.t_cwd) + t.t_burst + t.t_wr + t.t_ras + t.t_rp + 2 * t.t_rtrs + 8
}

/// One queued transaction and its command progress.
#[derive(Debug, Clone, Copy)]
struct Pending {
    txn: Transaction,
    issued_act: bool,
}

/// Temporal-partitioning controller for one channel.
#[derive(Debug)]
pub struct TpScheduler {
    device: DramDevice,
    t: TimingParams,
    refresh: RefreshManager,
    stats: McStats,
    kind: SchedulerKind,
    queues: Vec<TransactionQueue>,
    /// Owner-turn transactions currently being walked through their
    /// command sequences (ACT then CAS).
    in_flight: Vec<Pending>,
    /// Banks are private to a domain: only the turn owner's in-flight
    /// work may pump, and rows persist across turns. Otherwise banks are
    /// shared and close at the dead time.
    bank_partitioned: bool,
    /// Close-page turns: every CAS auto-precharges, a transaction only
    /// starts if its CAS slot is predicted to follow the ACT, and a
    /// conflicting open row is never precharged to make room.
    close_page: bool,
    turn: u32,
    dead: u32,
    domains: u8,
}

impl TpScheduler {
    /// Creates the TP controller `kind` names (`TpBankPartitioned`,
    /// `TpNoPartition` or `TpFence`); its parameter is the turn length in
    /// DRAM cycles (Figure 5 sweeps this).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `kind` is not a TP policy, `domains` is zero, or
    /// the turn does not exceed the dead time plus one ACT-to-CAS delay.
    pub fn try_new(
        geom: Geometry,
        t: TimingParams,
        domains: u8,
        kind: SchedulerKind,
    ) -> Result<Self, ConfigError> {
        let (turn, dead, bank_partitioned, close_page) = match kind {
            SchedulerKind::TpBankPartitioned { turn } => (turn, DEAD_TIME_BP, true, false),
            SchedulerKind::TpNoPartition { turn } => (turn, DEAD_TIME_NP, false, true),
            SchedulerKind::TpFence { period } => (period, fence_cycles(&t), false, false),
            other => {
                return Err(ConfigError::new(format!(
                    "{other} is not a temporal-partitioning policy"
                )))
            }
        };
        if domains == 0 {
            return Err(ConfigError::new("domains must be non-zero"));
        }
        if turn <= dead + t.t_rcd {
            return Err(ConfigError::new(format!(
                "turn length {turn} leaves no usable issue window (dead time {dead})"
            )));
        }
        Ok(TpScheduler {
            device: DramDevice::new(geom, t),
            t,
            refresh: RefreshManager::new(&t, geom.ranks_per_channel()),
            stats: McStats::new(domains as usize),
            kind,
            queues: (0..domains).map(|d| TransactionQueue::new(DomainId(d), 32)).collect(),
            in_flight: Vec::new(),
            bank_partitioned,
            close_page,
            turn,
            dead,
            domains,
        })
    }

    /// The domain owning the turn at `now`.
    pub fn owner_at(&self, now: Cycle) -> DomainId {
        DomainId(((now / self.turn as Cycle) % self.domains as Cycle) as u8)
    }

    /// Position within the current turn.
    fn turn_pos(&self, now: Cycle) -> u32 {
        (now % self.turn as Cycle) as u32
    }

    /// Issues the CAS for an in-flight transaction whose row is open.
    /// Returns whether a command went out.
    ///
    /// With bank partitioning, only the *current turn owner's* commands
    /// may issue — a previous owner's leftover work must wait for its own
    /// next turn (its rows persist safely in its private banks). With
    /// shared banks, new starts stop at the dead time, so anything still
    /// in flight belongs to the current or immediately preceding owner
    /// and drains within it.
    fn pump_in_flight(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> bool {
        let owner = self.owner_at(now);
        for i in 0..self.in_flight.len() {
            let p = self.in_flight[i];
            let txn = p.txn;
            if self.bank_partitioned && txn.domain != owner {
                continue;
            }
            if self.device.open_row(txn.loc.rank, txn.loc.bank) != Some(txn.loc.row) {
                continue; // its ACT has not happened yet
            }
            // Close-page turns auto-precharge so the bank returns to the
            // next owner closed; open-page turns leave the row open.
            let (rank, bank, row, col) = (txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col);
            let cas = match (txn.is_write, self.close_page) {
                (true, false) => Command::write(rank, bank, row, col),
                (false, false) => Command::read(rank, bank, row, col),
                (true, true) => Command::write_ap(rank, bank, row, col),
                (false, true) => Command::read_ap(rank, bank, row, col),
            };
            if let Ok(out) = self.device.issue(&cas, now) {
                self.in_flight.remove(i);
                if p.issued_act {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                let finish = out.data_done.expect("CAS produces data");
                if !txn.is_write && txn.kind == TxnKind::Demand {
                    let ds = self.stats.domain_mut(txn.domain);
                    ds.read_latency_sum += finish.saturating_sub(txn.arrival);
                    ds.reads_completed += 1;
                }
                completions.push(Completion { txn, finish });
                return true;
            }
        }
        false
    }

    /// Starts the next transaction for the owner.
    ///
    /// Open-page turns adopt row hits directly and precharge/activate
    /// misses. Close-page turns only start a transaction if its CAS is
    /// predicted to follow the ACT within a couple of cycles — this is
    /// what bounds TP-NP's dead time at ~52 cycles.
    fn start_owner_transaction(&mut self, owner: DomainId, now: Cycle) -> bool {
        // Bank-partitioned owners keep up to 8 transactions in flight.
        // Close-page turns serialise: the CAS-slot prediction below is
        // only sound when no other CAS is pending, and serialisation is
        // what keeps the auto-precharge tail inside the dead time. The
        // fence admits 4, all drained by its window.
        let busy = if self.bank_partitioned {
            self.in_flight.iter().filter(|p| p.txn.domain == owner).count() >= 8
        } else {
            self.in_flight.len() >= if self.close_page { 1 } else { 4 }
        };
        if busy {
            return false;
        }
        if !self.close_page {
            // Pass 1: row hits in the owner's queue (open-page benefit).
            let device = &self.device;
            let hit = self.queues[owner.0 as usize]
                .take_first(|t| device.open_row(t.loc.rank, t.loc.bank) == Some(t.loc.row));
            if let Some(txn) = hit {
                self.in_flight.push(Pending { txn, issued_act: false });
                // The CAS itself issues via pump_in_flight on a later cycle.
                return false;
            }
        }
        // Pass 2: oldest transaction whose bank can take its next command.
        let in_flight = &self.in_flight;
        let device = &self.device;
        let close_page = self.close_page;
        let t = self.t;
        let candidate = self.queues[owner.0 as usize].take_first(|txn| {
            // Don't start a second miss to a bank that an in-flight
            // transaction is still using.
            if in_flight
                .iter()
                .any(|p| p.txn.loc.rank == txn.loc.rank && p.txn.loc.bank == txn.loc.bank)
            {
                return false;
            }
            if close_page {
                // The CAS must land at ACT + tRCD (small slack), or the
                // auto-precharge tail would cross the turn boundary.
                let cas_ready = device.rank_next_cas_at(txn.loc.rank, !txn.is_write);
                if cas_ready + t.t_rtrs as Cycle > now + t.t_rcd as Cycle {
                    return false;
                }
            }
            match device.open_row(txn.loc.rank, txn.loc.bank) {
                Some(_) => {
                    !close_page
                        && device
                            .can_issue(&Command::precharge(txn.loc.rank, txn.loc.bank), now)
                            .is_ok()
                }
                None => device
                    .can_issue(&Command::activate(txn.loc.rank, txn.loc.bank, txn.loc.row), now)
                    .is_ok(),
            }
        });
        let Some(txn) = candidate else { return false };
        match self.device.open_row(txn.loc.rank, txn.loc.bank) {
            Some(_) => {
                let pre = Command::precharge(txn.loc.rank, txn.loc.bank);
                self.device.issue(&pre, now).expect("validated precharge");
                // Requeued as in-flight needing an ACT, which `pump_acts`
                // will issue once the precharge completes.
                self.in_flight.push(Pending { txn, issued_act: true });
            }
            None => {
                let act = Command::activate(txn.loc.rank, txn.loc.bank, txn.loc.row);
                self.device.issue(&act, now).expect("validated activate");
                self.in_flight.push(Pending { txn, issued_act: true });
            }
        }
        true
    }

    /// Issues pending ACTs for in-flight transactions whose bank is now
    /// closed (after an explicit precharge).
    fn pump_acts(&mut self, now: Cycle) -> bool {
        let owner = self.owner_at(now);
        for p in &mut self.in_flight {
            let txn = p.txn;
            if self.bank_partitioned && txn.domain != owner {
                continue;
            }
            if self.device.open_row(txn.loc.rank, txn.loc.bank).is_none() {
                let act = Command::activate(txn.loc.rank, txn.loc.bank, txn.loc.row);
                if self.device.issue(&act, now).is_ok() {
                    return true;
                }
            }
        }
        false
    }

    /// Sweeps precharge-alls across ranks with open rows, one command per
    /// cycle: the pre-refresh quiesce, and with shared banks the dead
    /// time's hand-back of every bank closed.
    fn close_rows(&mut self, now: Cycle) {
        let geom = *self.device.geometry();
        for r in 0..geom.ranks_per_channel() {
            let any_open = (0..geom.banks_per_rank())
                .any(|b| self.device.open_row(RankId(r), BankId(b)).is_some());
            if any_open {
                let pre = Command::precharge_all(RankId(r));
                if self.device.issue(&pre, now).is_ok() {
                    return;
                }
            }
        }
    }
}

impl MemoryController for TpScheduler {
    fn can_accept(&self, domain: DomainId) -> bool {
        !self.queues[domain.0 as usize].is_full()
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let ds = self.stats.domain_mut(txn.domain);
        if txn.is_write {
            ds.demand_writes += 1;
        } else {
            ds.demand_reads += 1;
        }
        self.queues[txn.domain.0 as usize].push(txn)
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        if let Some(cmd) = self.refresh.command_at(now) {
            self.device.issue(&cmd, now).expect("refresh must be legal after quiesce");
            return;
        }
        if self.refresh.in_window(now) {
            return;
        }
        // Finish work already started (part of the owner's footprint,
        // covered by the dead-time accounting). CAS tails are bounded, so
        // they are safe even inside the pre-refresh quiesce.
        if self.pump_in_flight(now, out) {
            return;
        }
        let act_ok = self.refresh.allows_transaction(now);
        if act_ok && self.pump_acts(now) {
            return;
        }
        if !act_ok {
            // Pre-refresh quiesce: close banks so REF is legal.
            self.close_rows(now);
            return;
        }
        let pos = self.turn_pos(now);
        if pos >= self.turn - self.dead {
            // Dead time: no new transactions; with shared banks, drain and
            // then hand the banks back closed.
            if !self.bank_partitioned && self.in_flight.is_empty() {
                self.close_rows(now);
            }
            return;
        }
        let owner = self.owner_at(now);
        self.start_owner_transaction(owner, now);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // In-flight transactions poll the device for CAS/ACT readiness
        // every cycle, so the bound is trivial while any work is mid-
        // sequence. Otherwise the next possible activity is the earliest
        // of: a queued domain's next usable owned-turn cycle, the
        // wall-clock refresh cadence, and (with open rows) the quiesce
        // sweep or the shared-bank dead-time close.
        if !self.in_flight.is_empty() {
            return now + 1;
        }
        let mut next = self.refresh.next_command_cycle(now);
        let turn = self.turn as Cycle;
        let dead = self.dead as Cycle;
        let domains = self.domains as Cycle;
        let from = now + 1;
        for q in &self.queues {
            if q.is_empty() {
                continue;
            }
            let d = q.domain().0 as Cycle;
            let k = from / turn;
            let candidate = if k % domains == d && from % turn < turn - dead {
                from
            } else {
                // Start of domain d's next turn after `k`.
                let k2 = k + 1;
                (k2 + (d + domains - (k2 % domains)) % domains) * turn
            };
            next = next.min(candidate);
        }
        if self.device.any_open_row() {
            next = next.min(self.refresh.next_blocked_cycle(from));
            if !self.bank_partitioned {
                let pos = from % turn;
                let dz = if pos >= turn - dead { from } else { from - pos + (turn - dead) };
                next = next.min(dz);
            }
        }
        next.max(from)
    }

    fn device(&self) -> &DramDevice {
        &self.device
    }

    fn finish(&mut self, now: Cycle) {
        self.device.finish(now);
    }

    fn stats(&self) -> &McStats {
        &self.stats
    }

    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn record_obs(&mut self) {
        self.device.record_commands();
    }

    fn take_obs_into(&mut self, out: &mut Vec<fsmc_dram::ObsCommand>) {
        self.device.take_obs_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnId;
    use fsmc_dram::geometry::LineAddr;
    use fsmc_dram::TimingChecker;

    const BP: SchedulerKind = SchedulerKind::TpBankPartitioned { turn: 60 };
    const NP: SchedulerKind = SchedulerKind::TpNoPartition { turn: 172 };
    const FENCE: SchedulerKind = SchedulerKind::TpFence { period: 300 };

    fn mk(kind: SchedulerKind) -> TpScheduler {
        TpScheduler::try_new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, kind).unwrap()
    }

    /// A transaction placed by `kind`'s partition policy.
    fn txn(kind: SchedulerKind, id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = kind.partition_policy().map(&geom, DomainId(domain), LineAddr(local));
        if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0)
        }
    }

    #[test]
    fn ownership_rotates_round_robin() {
        for (kind, turn) in [(BP, 60), (FENCE, 300)] {
            let mc = mk(kind);
            assert_eq!(mc.owner_at(0), DomainId(0));
            assert_eq!(mc.owner_at(turn - 1), DomainId(0));
            assert_eq!(mc.owner_at(turn), DomainId(1));
            assert_eq!(mc.owner_at(8 * turn), DomainId(0));
        }
    }

    #[test]
    fn non_owner_waits_for_its_turn() {
        let mut mc = mk(BP);
        // Domain 3's turn starts at cycle 180.
        mc.enqueue(txn(BP, 1, 3, 0, false)).unwrap();
        let mut first_act = None;
        for c in 0..400 {
            mc.tick(c);
            if mc.device().counters().total_activates() == 1 && first_act.is_none() {
                first_act = Some(c);
            }
        }
        let f = first_act.expect("transaction never issued");
        assert!((180..240).contains(&f), "ACT at {f}, expected inside domain 3's turn");
    }

    #[test]
    fn dead_time_blocks_late_starts() {
        let mut mc = mk(BP);
        // Arrive just inside the dead time of domain 0's turn (pos 50+).
        let t = txn(BP, 1, 0, 0, false);
        for c in 0..51 {
            mc.tick(c);
        }
        mc.enqueue(Transaction { arrival: 51, ..t }).unwrap();
        let mut first_act = None;
        for c in 51..700 {
            mc.tick(c);
            if mc.device().counters().total_activates() == 1 && first_act.is_none() {
                first_act = Some(c);
            }
        }
        // Must wait for domain 0's next turn at 480.
        assert_eq!(first_act, Some(480));
    }

    #[test]
    fn bank_partitioned_rows_persist_across_turns_for_row_hits() {
        let mut mc = mk(BP);
        // Two reads to the same row of domain 0, far enough apart that the
        // second lands in domain 0's *next* turn.
        mc.enqueue(txn(BP, 1, 0, 0, false)).unwrap();
        let mut done = Vec::new();
        for c in 0..480 {
            done.extend(mc.tick(c));
        }
        mc.enqueue(txn(BP, 2, 0, 1, false)).unwrap();
        for c in 480..1000 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1, "second read should hit the open row");
    }

    #[test]
    fn fence_open_page_within_a_period_yields_row_hits() {
        let mut mc = mk(FENCE);
        // Same-row reads of domain 0, all inside its first period.
        for i in 0..4u64 {
            mc.enqueue(txn(FENCE, i, 0, i, false)).unwrap();
        }
        let mut done = Vec::new();
        for c in 0..2_400u64 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 4);
        assert!(mc.stats().row_hits >= 3, "row hits {}", mc.stats().row_hits);
    }

    #[test]
    fn queuing_delay_spans_the_rotation() {
        // A TP read arriving at the start of someone else's turn waits
        // most of a rotation.
        let mut mc = mk(BP);
        mc.enqueue(txn(BP, 1, 4, 0, false)).unwrap();
        let mut done = Vec::new();
        for c in 0..1000 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 1);
        assert!(done[0].finish > 240, "finish {} should wait for turn 4", done[0].finish);
    }

    #[test]
    fn command_streams_are_legal_and_shared_banks_close_between_turns() {
        for (kind, turn, horizon) in [(BP, 60, 8_000u64), (NP, 172, 20_000), (FENCE, 300, 30_000)] {
            let mut mc = mk(kind);
            mc.record_commands();
            for i in 0..64u64 {
                mc.enqueue(txn(kind, i, (i % 8) as u8, i * 29, i % 4 == 0)).unwrap();
            }
            let mut done = 0;
            for c in 0..horizon {
                // At every turn boundary (before the new owner issues), no
                // rows may be open when domains share banks.
                if kind != BP && c > 0 && c % turn == 0 {
                    let geom = *mc.device().geometry();
                    for r in 0..geom.ranks_per_channel() {
                        for b in 0..geom.banks_per_rank() {
                            assert_eq!(
                                mc.device().open_row(RankId(r), BankId(b)),
                                None,
                                "{kind}: row open across turn boundary at {c}"
                            );
                        }
                    }
                }
                done += mc.tick(c).len();
            }
            assert!(done > 0, "{kind}: no transaction completed");
            let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
            let v = checker.check(&mc.take_command_log());
            assert!(v.is_empty(), "{kind}: {v:?}");
        }
    }

    #[test]
    fn fence_is_derived_from_timing_and_constructs_everywhere() {
        // Every shipped generation must admit the default period, and the
        // fence must cover a full transaction tail.
        for t in [
            TimingParams::ddr3_1600(),
            TimingParams::ddr4_2400(),
            TimingParams::lpddr4_3200(),
            TimingParams::hbm2(),
        ] {
            let f = fence_cycles(&t);
            assert!(f > t.t_rcd + t.t_cas + t.t_burst, "fence {f} too short");
            assert!(f + t.t_rcd < 300, "fence {f} does not fit the default period");
            assert!(TpScheduler::try_new(Geometry::paper_default(), t, 8, FENCE).is_ok());
        }
    }

    #[test]
    fn rejects_turns_without_an_issue_window_and_non_tp_kinds() {
        let (geom, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
        for kind in [
            SchedulerKind::TpBankPartitioned { turn: 5 },
            SchedulerKind::TpNoPartition { turn: 40 },
            SchedulerKind::TpFence { period: 80 },
        ] {
            let e = TpScheduler::try_new(geom, t, 8, kind).unwrap_err();
            assert!(e.message.contains("no usable issue window"), "{kind}: {e}");
        }
        assert!(TpScheduler::try_new(geom, t, 0, BP).is_err());
        assert!(TpScheduler::try_new(geom, t, 8, SchedulerKind::Baseline).is_err());
    }

    #[test]
    fn next_event_skips_are_sound() {
        // Sparse ticking (only at next_event cycles) must reproduce the
        // dense per-cycle run exactly, across idle turns and two refresh
        // windows, for every TP variant.
        for kind in [BP, NP, FENCE] {
            let (mut dense, mut sparse) = (mk(kind), mk(kind));
            dense.record_commands();
            sparse.record_commands();
            for i in 0..12u64 {
                let t = txn(kind, i, (i % 8) as u8, i * 29, i % 4 == 0);
                dense.enqueue(t).unwrap();
                sparse.enqueue(t).unwrap();
            }
            let horizon = 14_000u64;
            let mut dense_done = Vec::new();
            for c in 0..horizon {
                dense_done.extend(dense.tick(c));
            }
            let mut sparse_done = Vec::new();
            let mut c = 0u64;
            while c < horizon {
                sparse_done.extend(sparse.tick(c));
                c = sparse.next_event(c);
            }
            assert_eq!(dense_done, sparse_done, "{kind}");
            assert_eq!(dense.take_command_log(), sparse.take_command_log(), "{kind}");
            assert_eq!(dense.stats(), sparse.stats(), "{kind}");
        }
    }
}
