//! Temporal Partitioning (Wang et al., HPCA 2014) — the prior secure
//! scheme the paper compares against (Section 2.3).
//!
//! Time is sliced into fixed *turns*; only the turn's owner domain may
//! start memory transactions, and no transaction may start during the
//! *dead time* at the end of a turn (so its resource usage cannot spill
//! into the next owner's turn).
//!
//! With **bank partitioning**, banks are private to a domain, so rows may
//! stay open across turns (the next owner touches different banks) and
//! the dead time only covers the shared-bus tail (~12 ns). Without
//! partitioning, banks are shared: every row must be closed again before
//! the turn ends, and the dead time covers the full bank-recovery worst
//! case (~65 ns).

use crate::domain::DomainId;
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

/// Minimum sensible turn length with bank partitioning (Figure 5's
/// smallest point).
pub fn min_turn_bp() -> u32 {
    60
}
/// Minimum turn length without partitioning (Figure 5 uses 172).
pub fn min_turn_np() -> u32 {
    172
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
    /// command sequences (open-page: ACT then CAS, rows left open).
    in_flight: Vec<Pending>,
    bank_partitioned: bool,
    turn: u32,
    dead: u32,
    domains: u8,
}

impl TpScheduler {
    /// Creates a TP controller.
    ///
    /// `bank_partitioned` selects the dead time and whether rows persist
    /// across turns; `turn` is the turn length in DRAM cycles (Figure 5
    /// sweeps this).
    ///
    /// # Panics
    ///
    /// Panics if `turn` does not exceed the dead time plus one transaction
    /// footprint, or if `domains` is zero.
    pub fn new(
        geom: Geometry,
        t: TimingParams,
        domains: u8,
        bank_partitioned: bool,
        turn: u32,
    ) -> Self {
        assert!(domains > 0, "domains must be non-zero");
        let dead = if bank_partitioned { DEAD_TIME_BP } else { DEAD_TIME_NP };
        assert!(
            turn > dead + t.t_rcd,
            "turn length {turn} leaves no usable issue window (dead time {dead})"
        );
        let device = DramDevice::new(geom, t);
        let refresh = RefreshManager::new(&t, geom.ranks_per_channel());
        let kind = if bank_partitioned {
            SchedulerKind::TpBankPartitioned { turn }
        } else {
            SchedulerKind::TpNoPartition { turn }
        };
        TpScheduler {
            device,
            t,
            refresh,
            stats: McStats::new(domains as usize),
            kind,
            queues: (0..domains).map(|d| TransactionQueue::new(DomainId(d), 32)).collect(),
            in_flight: Vec::new(),
            bank_partitioned,
            turn,
            dead,
            domains,
        }
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
    /// Returns `Some(issued_completion)` if a command went out.
    ///
    /// With bank partitioning, only the *current turn owner's* commands
    /// may issue — a previous owner's leftover work must wait for its own
    /// next turn (its rows persist safely in its private banks). Without
    /// partitioning, transactions are serialised and gated so tightly
    /// that any in-flight CAS belongs to the current or immediately
    /// preceding owner and completes within the dead time.
    fn pump_in_flight(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> bool {
        let owner = self.owner_at(now);
        for i in 0..self.in_flight.len() {
            let p = self.in_flight[i];
            let txn = p.txn;
            if self.bank_partitioned && txn.domain != owner {
                continue;
            }
            if self.device.open_row(txn.loc.rank, txn.loc.bank) != Some(txn.loc.row) {
                continue; // its ACT has not happened yet (shouldn't occur)
            }
            // Bank-partitioned turns leave the row open (the bank is
            // private); non-partitioned turns auto-precharge so the bank
            // returns to the next owner closed.
            let cas = match (txn.is_write, self.bank_partitioned) {
                (true, true) => {
                    Command::write(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
                }
                (false, true) => {
                    Command::read(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
                }
                (true, false) => {
                    Command::write_ap(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
                }
                (false, false) => {
                    Command::read_ap(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
                }
            };
            if self.device.can_issue(&cas, now).is_ok() {
                let out = self.device.issue(&cas, now).expect("validated CAS");
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
    /// Bank-partitioned turns run open-page: row hits are adopted
    /// directly, misses precharge/activate, and rows persist. Without
    /// partitioning the turn runs close-page, and a transaction only
    /// starts if its CAS is predicted to follow the ACT within a couple
    /// of cycles — this is what bounds the dead time at ~52 cycles.
    fn start_owner_transaction(&mut self, owner: DomainId, now: Cycle) -> bool {
        // Without partitioning, transactions serialise: the CAS-slot
        // prediction below is only sound when no other CAS is pending, and
        // serialisation is what keeps the auto-precharge tail inside the
        // dead time.
        let cap = if self.bank_partitioned { 8 } else { 1 };
        let owner_in_flight = self.in_flight.iter().filter(|p| p.txn.domain == owner).count();
        if owner_in_flight >= cap || (!self.bank_partitioned && !self.in_flight.is_empty()) {
            return false;
        }
        if self.bank_partitioned {
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
        let bank_partitioned = self.bank_partitioned;
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
            if !bank_partitioned {
                // Close-page: the CAS must land at ACT + tRCD (small
                // slack), or the auto-precharge tail would cross the turn
                // boundary.
                let cas_ready = device.rank_next_cas_at(txn.loc.rank, !txn.is_write);
                if cas_ready + t.t_rtrs as Cycle > now + t.t_rcd as Cycle {
                    return false;
                }
            }
            match device.open_row(txn.loc.rank, txn.loc.bank) {
                Some(_) => {
                    bank_partitioned
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
                if self.device.can_issue(&act, now).is_ok() {
                    self.device.issue(&act, now).expect("validated activate");
                    return true;
                }
            }
        }
        false
    }

    /// Without bank partitioning, the dead time also returns every bank to
    /// the next owner *closed*: sweep precharge-alls.
    fn dead_time_close(&mut self, now: Cycle) {
        let geom = *self.device.geometry();
        for r in 0..geom.ranks_per_channel() {
            let any_open = (0..geom.banks_per_rank())
                .any(|b| self.device.open_row(RankId(r), BankId(b)).is_some());
            if any_open {
                let pre = Command::precharge_all(RankId(r));
                if self.device.can_issue(&pre, now).is_ok() {
                    self.device.issue(&pre, now).expect("validated precharge-all");
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

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.tick_into(now, &mut completions);
        completions
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
            self.dead_time_close(now);
            return;
        }
        let pos = self.turn_pos(now);
        if pos >= self.turn - self.dead {
            // Dead time: no new transactions; without partitioning, also
            // hand the banks back closed.
            if !self.bank_partitioned && self.in_flight.is_empty() {
                self.dead_time_close(now);
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
        // sweep or the NP dead-zone close.
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
    use crate::domain::PartitionPolicy;
    use crate::txn::TxnId;
    use fsmc_dram::geometry::LineAddr;
    use fsmc_dram::TimingChecker;

    fn mk(bank_partitioned: bool, turn: u32) -> TpScheduler {
        TpScheduler::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            8,
            bank_partitioned,
            turn,
        )
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool, policy: PartitionPolicy) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = policy.map(&geom, DomainId(domain), LineAddr(local));
        if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0)
        }
    }

    #[test]
    fn ownership_rotates_round_robin() {
        let mc = mk(true, 60);
        assert_eq!(mc.owner_at(0), DomainId(0));
        assert_eq!(mc.owner_at(59), DomainId(0));
        assert_eq!(mc.owner_at(60), DomainId(1));
        assert_eq!(mc.owner_at(8 * 60), DomainId(0));
    }

    #[test]
    fn non_owner_waits_for_its_turn() {
        let mut mc = mk(true, 60);
        // Domain 3's turn starts at cycle 180.
        mc.enqueue(txn(1, 3, 0, false, PartitionPolicy::BankStriped)).unwrap();
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
        let mut mc = mk(true, 60);
        // Arrive just inside the dead time of domain 0's turn (pos 50+).
        let t = txn(1, 0, 0, false, PartitionPolicy::BankStriped);
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
        let mut mc = mk(true, 60);
        // Two reads to the same row of domain 0, far enough apart that the
        // second lands in domain 0's *next* turn.
        mc.enqueue(txn(1, 0, 0, false, PartitionPolicy::BankStriped)).unwrap();
        let mut done = Vec::new();
        for c in 0..480 {
            done.extend(mc.tick(c));
        }
        mc.enqueue(txn(2, 0, 1, false, PartitionPolicy::BankStriped)).unwrap();
        for c in 480..1000 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1, "second read should hit the open row");
    }

    #[test]
    fn queuing_delay_spans_the_rotation() {
        // A TP read arriving at the start of someone else's turn waits
        // most of a rotation.
        let mut mc = mk(true, 60);
        mc.enqueue(txn(1, 4, 0, false, PartitionPolicy::BankStriped)).unwrap();
        let mut done = Vec::new();
        for c in 0..1000 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 1);
        assert!(done[0].finish > 240, "finish {} should wait for turn 4", done[0].finish);
    }

    #[test]
    fn command_stream_is_legal_bp() {
        let mut mc = mk(true, 60);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 29, i % 4 == 0, PartitionPolicy::BankStriped))
                .unwrap();
        }
        let mut done = 0;
        for c in 0..8000 {
            done += mc.tick(c).len();
        }
        assert!(done > 0);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn command_stream_is_legal_np_and_banks_close_between_turns() {
        let mut mc = mk(false, 172);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 29, i % 4 == 0, PartitionPolicy::None)).unwrap();
        }
        for c in 0..20_000u64 {
            // At every turn boundary (before the new owner issues), no
            // rows may be open (non-partitioned domains share banks).
            if c > 0 && c % 172 == 0 {
                let geom = *mc.device().geometry();
                for r in 0..geom.ranks_per_channel() {
                    for b in 0..geom.banks_per_rank() {
                        assert_eq!(
                            mc.device().open_row(RankId(r), BankId(b)),
                            None,
                            "row open across NP turn boundary at {c}"
                        );
                    }
                }
            }
            mc.tick(c);
        }
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "no usable issue window")]
    fn rejects_turn_shorter_than_dead_time() {
        mk(false, 40);
    }

    #[test]
    fn next_event_skips_are_sound_for_bp_and_np() {
        // Sparse ticking (only at next_event cycles) must reproduce the
        // dense per-cycle run exactly, across idle turns and two refresh
        // windows, for both TP variants.
        for (bp, turn, policy) in
            [(true, 60, PartitionPolicy::BankStriped), (false, 172, PartitionPolicy::None)]
        {
            let (mut dense, mut sparse) = (mk(bp, turn), mk(bp, turn));
            dense.record_commands();
            sparse.record_commands();
            for i in 0..12u64 {
                let t = txn(i, (i % 8) as u8, i * 29, i % 4 == 0, policy);
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
            assert_eq!(dense_done, sparse_done, "bp={bp}");
            assert_eq!(dense.take_command_log(), sparse.take_command_log(), "bp={bp}");
            assert_eq!(dense.stats(), sparse.stats(), "bp={bp}");
        }
    }
}
