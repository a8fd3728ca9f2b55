//! Flush-based temporal partitioning (the `fence.t` family,
//! arXiv:2409.07576) — the literature's third point between TP and FS.
//!
//! Time is sliced into fixed *periods* owned round-robin by the domains,
//! like [`crate::sched::tp::TpScheduler`] without spatial partitioning —
//! but instead of running close-page with a worst-case dead time, the
//! owner runs *open-page* over the shared banks (keeping the row-buffer
//! benefit TP-NP gives up) and the tail of every period is a *fence
//! window*: no new transactions start, in-flight work drains, and a
//! precharge-all sweep flushes every row buffer. The next owner therefore
//! always inherits the same microarchitectural state — all banks closed —
//! so nothing about the previous owner's row or bank footprint survives
//! the hand-off.
//!
//! The fence window is derived from the device timing (the worst-case
//! drain of one late transaction plus the flush sweep), so the policy
//! constructs on every shipped device generation.

use crate::domain::DomainId;
use crate::queues::{QueueFull, TransactionQueue};
use crate::refresh::RefreshManager;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::{Transaction, TxnKind};
use fsmc_dram::command::Command;
use fsmc_dram::geometry::{BankId, Geometry, RankId};
use fsmc_dram::{Cycle, DramDevice, TimingParams};

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

/// Fence-style flush-based TP controller for one channel.
#[derive(Debug)]
pub struct FenceScheduler {
    device: DramDevice,
    refresh: RefreshManager,
    stats: McStats,
    queues: Vec<TransactionQueue>,
    /// Owner transactions being walked through ACT → CAS (open-page; rows
    /// stay open until the fence flushes them).
    in_flight: Vec<Pending>,
    period: u32,
    fence: u32,
    domains: u8,
}

impl FenceScheduler {
    /// Creates a fence controller with the given period (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `period` does not leave a usable issue window beyond the
    /// timing-derived fence, or if `domains` is zero.
    pub fn new(geom: Geometry, t: TimingParams, domains: u8, period: u32) -> Self {
        assert!(domains > 0, "domains must be non-zero");
        let fence = fence_cycles(&t);
        assert!(
            period > fence + t.t_rcd,
            "period {period} leaves no usable issue window (fence {fence})"
        );
        let device = DramDevice::new(geom, t);
        let refresh = RefreshManager::new(&t, geom.ranks_per_channel());
        FenceScheduler {
            device,
            refresh,
            stats: McStats::new(domains as usize),
            queues: (0..domains).map(|d| TransactionQueue::new(DomainId(d), 32)).collect(),
            in_flight: Vec::new(),
            period,
            fence,
            domains,
        }
    }

    /// The domain owning the period at `now`.
    pub fn owner_at(&self, now: Cycle) -> DomainId {
        DomainId(((now / self.period as Cycle) % self.domains as Cycle) as u8)
    }

    fn period_pos(&self, now: Cycle) -> u32 {
        (now % self.period as Cycle) as u32
    }

    /// Issues the CAS for an in-flight transaction whose row is open.
    /// Open-page: no auto-precharge — the fence flush closes the rows.
    /// In-flight work always pumps regardless of owner: new starts stop at
    /// the fence, so anything still in flight is draining toward it.
    fn pump_in_flight(&mut self, now: Cycle, completions: &mut Vec<Completion>) -> bool {
        for i in 0..self.in_flight.len() {
            let p = self.in_flight[i];
            let txn = p.txn;
            if self.device.open_row(txn.loc.rank, txn.loc.bank) != Some(txn.loc.row) {
                continue; // its ACT has not happened yet
            }
            let cas = if txn.is_write {
                Command::write(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
            } else {
                Command::read(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
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

    /// Starts the next transaction for the owner (open-page over shared
    /// banks: row hits adopted directly, misses precharge/activate).
    fn start_owner_transaction(&mut self, owner: DomainId, now: Cycle) -> bool {
        if self.in_flight.len() >= 4 {
            return false;
        }
        // Pass 1: row hits in the owner's queue (the open-page benefit
        // this policy keeps and TP-NP gives up).
        let device = &self.device;
        let hit = self.queues[owner.0 as usize]
            .take_first(|t| device.open_row(t.loc.rank, t.loc.bank) == Some(t.loc.row));
        if let Some(txn) = hit {
            self.in_flight.push(Pending { txn, issued_act: false });
            // The CAS itself issues via pump_in_flight on a later cycle.
            return false;
        }
        // Pass 2: oldest transaction whose bank can take its next command.
        let in_flight = &self.in_flight;
        let candidate = self.queues[owner.0 as usize].take_first(|txn| {
            if in_flight
                .iter()
                .any(|p| p.txn.loc.rank == txn.loc.rank && p.txn.loc.bank == txn.loc.bank)
            {
                return false;
            }
            match device.open_row(txn.loc.rank, txn.loc.bank) {
                Some(_) => {
                    device.can_issue(&Command::precharge(txn.loc.rank, txn.loc.bank), now).is_ok()
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
        for p in &mut self.in_flight {
            let txn = p.txn;
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

    /// The fence flush (also the pre-refresh quiesce): sweep precharge-all
    /// across ranks with open rows, one command per cycle.
    fn flush_rows(&mut self, now: Cycle) {
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

impl MemoryController for FenceScheduler {
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
        if self.pump_in_flight(now, out) {
            return;
        }
        let act_ok = self.refresh.allows_transaction(now);
        if act_ok && self.pump_acts(now) {
            return;
        }
        if !act_ok {
            // Pre-refresh quiesce: close banks so REF is legal.
            self.flush_rows(now);
            return;
        }
        let pos = self.period_pos(now);
        if pos >= self.period - self.fence {
            // Fence window: no new starts; drain, then flush every row
            // buffer so the next owner inherits all-closed banks.
            if self.in_flight.is_empty() {
                self.flush_rows(now);
            }
            return;
        }
        let owner = self.owner_at(now);
        self.start_owner_transaction(owner, now);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // Mirrors TpScheduler::next_event: trivial while work is mid-
        // sequence; otherwise the earliest of refresh cadence, a queued
        // domain's next usable owned-period cycle, and (with open rows)
        // the refresh quiesce or the fence flush.
        if !self.in_flight.is_empty() {
            return now + 1;
        }
        let mut next = self.refresh.next_command_cycle(now);
        let period = self.period as Cycle;
        let fence = self.fence as Cycle;
        let domains = self.domains as Cycle;
        let from = now + 1;
        for q in &self.queues {
            if q.is_empty() {
                continue;
            }
            let d = q.domain().0 as Cycle;
            let k = from / period;
            let candidate = if k % domains == d && from % period < period - fence {
                from
            } else {
                let k2 = k + 1;
                (k2 + (d + domains - (k2 % domains)) % domains) * period
            };
            next = next.min(candidate);
        }
        if self.device.any_open_row() {
            next = next.min(self.refresh.next_blocked_cycle(from));
            let pos = from % period;
            let fz = if pos >= period - fence { from } else { from - pos + (period - fence) };
            next = next.min(fz);
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
        SchedulerKind::TpFence { period: self.period }
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

    fn mk(period: u32) -> FenceScheduler {
        FenceScheduler::new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, period)
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::None.map(&geom, DomainId(domain), LineAddr(local));
        if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0)
        }
    }

    #[test]
    fn ownership_rotates_round_robin() {
        let mc = mk(300);
        assert_eq!(mc.owner_at(0), DomainId(0));
        assert_eq!(mc.owner_at(299), DomainId(0));
        assert_eq!(mc.owner_at(300), DomainId(1));
        assert_eq!(mc.owner_at(8 * 300), DomainId(0));
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
        }
    }

    #[test]
    #[should_panic(expected = "no usable issue window")]
    fn rejects_period_shorter_than_fence() {
        mk(80);
    }

    #[test]
    fn rows_are_flushed_at_every_period_boundary() {
        let mut mc = mk(300);
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 29, i % 4 == 0)).unwrap();
        }
        let mut done = 0;
        for c in 0..30_000u64 {
            // At every period boundary (before the new owner issues), no
            // rows may be open: the fence flushed them all.
            if c > 0 && c % 300 == 0 {
                let geom = *mc.device().geometry();
                for r in 0..geom.ranks_per_channel() {
                    for b in 0..geom.banks_per_rank() {
                        assert_eq!(
                            mc.device().open_row(RankId(r), BankId(b)),
                            None,
                            "row open across fence boundary at {c}"
                        );
                    }
                }
            }
            done += mc.tick(c).len();
        }
        assert!(done > 0, "no transaction completed");
    }

    #[test]
    fn open_page_within_a_period_yields_row_hits() {
        let mut mc = mk(300);
        // Same-row reads of domain 0, all inside its first period.
        for i in 0..4u64 {
            mc.enqueue(txn(i, 0, i, false)).unwrap();
        }
        let mut done = Vec::new();
        for c in 0..2_400u64 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 4);
        assert!(mc.stats().row_hits >= 3, "row hits {}", mc.stats().row_hits);
    }

    #[test]
    fn command_stream_is_legal() {
        let mut mc = mk(300);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 29, i % 4 == 0)).unwrap();
        }
        let mut done = 0;
        for c in 0..30_000u64 {
            done += mc.tick(c).len();
        }
        assert!(done > 0);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn next_event_skips_are_sound() {
        // Sparse ticking (only at next_event cycles) must reproduce the
        // dense per-cycle run exactly, across idle periods and refresh
        // windows.
        let (mut dense, mut sparse) = (mk(300), mk(300));
        dense.record_commands();
        sparse.record_commands();
        for i in 0..12u64 {
            let t = txn(i, (i % 8) as u8, i * 29, i % 4 == 0);
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
        assert_eq!(dense_done, sparse_done);
        assert_eq!(dense.take_command_log(), sparse.take_command_log());
        assert_eq!(dense.stats(), sparse.stats());
    }
}
