//! The non-secure baseline: FR-FCFS open-page scheduling with
//! watermark-driven write draining and optional sandbox prefetching.
//!
//! This is the normalisation denominator for every figure in the paper.
//! (The paper uses the MSC-2012 winner; FR-FCFS open-page with write
//! drain is the same class of aggressive row-hit-first scheduler — see
//! DESIGN.md for the substitution note.)

use crate::domain::{DomainId, PartitionPolicy};
use crate::prefetch::SandboxPrefetcher;
use crate::queues::QueueFull;
use crate::refresh::RefreshManager;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::{Transaction, TxnId, TxnKind};
use fsmc_dram::command::Command;
use fsmc_dram::geometry::{BankId, Geometry, LineAddr, RankId};
use fsmc_dram::{Cycle, DramDevice, TimingParams, NO_ROW};

/// Immutable per-tick view of the device and queue state shared by the
/// (up to) two [`BaselineScheduler::try_issue`] attempts of one tick:
/// a flat open-row table, rank-level legality floors, and the
/// pending-row-hit bank mask for the FR-FCFS precharge guard. Nothing
/// it caches can change between the attempts — the second runs only
/// when the first issued no command — so one build serves both, and
/// every queue entry is classified with plain array loads instead of
/// per-entry device accessor calls.
///
/// `rows`/`hit_mask` are valid only when `!wide` (geometry fits 128
/// banks; the paper's is 64); wide geometries keep the direct scans.
struct IssueSnapshot {
    rows: [u32; 128],
    /// Per-bank command floors (`BankArrays` ready cycles), flat-indexed
    /// like `rows`: the passes touch them once per candidate entry, so
    /// one indexed load beats the accessor chain through the device.
    cas_bank_f: [Cycle; 128],
    act_bank_f: [Cycle; 128],
    pre_bank_f: [Cycle; 128],
    pre_f: [Cycle; 16],
    act_f: [Cycle; 16],
    /// Rank CAS floors by direction, indexed `[is_write][rank]` so the
    /// branchless classification sweeps select without a branch.
    cas_dir_f: [[Cycle; 16]; 2],
    /// Lazily-built FR-FCFS precharge guard: banks with a pending row
    /// hit. Only pass 2 reads it, and ticks that issue a CAS in pass 1
    /// never reach pass 2 — so the two-queue sweep is deferred until
    /// first use (`None` = not built yet).
    hit_mask: std::cell::Cell<Option<u128>>,
    bpr: u32,
    prefilter: bool,
    wide: bool,
}

/// One queued transaction and its command progress.
#[derive(Debug, Clone, Copy)]
struct Pending {
    txn: Transaction,
    issued_act: bool,
}

/// FR-FCFS open-page controller for one channel.
#[derive(Debug)]
pub struct BaselineScheduler {
    device: DramDevice,
    t: TimingParams,
    refresh: RefreshManager,
    stats: McStats,
    kind: SchedulerKind,
    reads: Vec<Pending>,
    writes: Vec<Pending>,
    read_capacity: usize,
    write_capacity: usize,
    drain_hi: usize,
    drain_lo: usize,
    draining: bool,
    prefetchers: Vec<SandboxPrefetcher>,
    next_prefetch_id: u64,
    domains: u8,
    /// Cached provable-no-op bound: every tick at a cycle strictly below
    /// this issues nothing and mutates nothing. Taken from `next_event`
    /// after a tick that issued no command; cleared (0) by anything that
    /// could create a new issue candidate — an enqueue, or any tick that
    /// touched the device. Queue contents and row state are constant
    /// while it holds, so both `tick_into` and `next_event` answer in
    /// O(1) instead of rescanning two 64-entry queues per idle cycle.
    idle_until: Cycle,
}

impl BaselineScheduler {
    /// Creates a baseline controller; `prefetch` enables the sandbox
    /// prefetcher (the `Baseline_Prefetch` design point of Figure 7).
    pub fn new(geom: Geometry, t: TimingParams, domains: u8, prefetch: bool) -> Self {
        let device = DramDevice::new(geom, t);
        let refresh = RefreshManager::new(&t, geom.ranks_per_channel());
        BaselineScheduler {
            device,
            t,
            refresh,
            stats: McStats::new(domains as usize),
            kind: if prefetch { SchedulerKind::BaselinePrefetch } else { SchedulerKind::Baseline },
            reads: Vec::new(),
            writes: Vec::new(),
            read_capacity: 64,
            write_capacity: 64,
            drain_hi: 40,
            drain_lo: 16,
            draining: false,
            prefetchers: (0..domains).map(|_| SandboxPrefetcher::new()).collect(),
            next_prefetch_id: 1 << 62,
            domains,
            idle_until: 0,
        }
    }

    fn prefetch_enabled(&self) -> bool {
        matches!(self.kind, SchedulerKind::BaselinePrefetch)
    }

    /// Generate prefetch transactions while there is queue headroom.
    fn pump_prefetches(&mut self, now: Cycle) {
        if !self.prefetch_enabled() {
            return;
        }
        let geom = *self.device.geometry();
        // Prefetches only ride on an otherwise lightly-loaded read queue;
        // under load they would steal bandwidth from demand misses.
        for d in 0..self.domains {
            while self.reads.len() < self.domains as usize {
                let Some(local) = self.prefetchers[d as usize].next_prefetch() else { break };
                let loc = PartitionPolicy::None.map(&geom, DomainId(d), local);
                let txn = Transaction {
                    id: TxnId(self.next_prefetch_id),
                    domain: DomainId(d),
                    loc,
                    local_addr: local,
                    is_write: false,
                    arrival: now,
                    kind: TxnKind::Prefetch,
                };
                self.next_prefetch_id += 1;
                self.reads.push(Pending { txn, issued_act: false });
                self.stats.domain_mut(DomainId(d)).prefetches += 1;
            }
        }
    }

    /// During the pre-refresh quiesce, close banks that are still open so
    /// the refresh window starts with every bank precharged.
    fn quiesce_precharge(&mut self, now: Cycle) {
        let Some((start, _)) = self.refresh.next_window(now) else { return };
        if now + self.t.t_rp as Cycle > start {
            return; // too late for a precharge to recover before the REF
        }
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

    /// Builds the per-tick issue snapshot (see [`IssueSnapshot`]).
    fn snapshot(&self) -> IssueSnapshot {
        let geom = self.device.geometry();
        let nranks = geom.ranks_per_channel() as usize;
        let bpr = geom.banks_per_rank() as u32;
        let wide = nranks as u32 * bpr > 128;
        let mut s = IssueSnapshot {
            rows: [NO_ROW; 128],
            cas_bank_f: [0; 128],
            act_bank_f: [0; 128],
            pre_bank_f: [0; 128],
            pre_f: [0; 16],
            act_f: [0; 16],
            cas_dir_f: [[0; 16]; 2],
            hit_mask: std::cell::Cell::new(None),
            bpr,
            prefilter: nranks <= 16,
            wide,
        };
        if s.prefilter {
            for r in 0..nranks {
                let (p, a, rd, wr) = self.device.rank_floor_parts(RankId(r as u8));
                s.pre_f[r] = p;
                s.act_f[r] = a;
                s.cas_dir_f[0][r] = rd;
                s.cas_dir_f[1][r] = wr;
            }
        }
        if !wide {
            for r in 0..nranks {
                let banks = self.device.banks_of(RankId(r as u8));
                let rows = banks.open_rows_slice();
                let base = r * bpr as usize;
                s.rows[base..][..rows.len()].copy_from_slice(rows);
                s.cas_bank_f[base..][..rows.len()].copy_from_slice(banks.next_cas_slice());
                s.act_bank_f[base..][..rows.len()].copy_from_slice(banks.next_activate_slice());
                s.pre_bank_f[base..][..rows.len()].copy_from_slice(banks.next_precharge_slice());
            }
        }
        s
    }

    /// The deferred pending-row-hit mask of `snap` (see
    /// [`IssueSnapshot::hit_mask`]), building it on first use.
    fn hit_mask_of(&self, snap: &IssueSnapshot) -> u128 {
        if let Some(m) = snap.hit_mask.get() {
            return m;
        }
        let mut m = 0u128;
        for q in self.reads.iter().chain(self.writes.iter()) {
            let l = q.txn.loc;
            let gbi = l.rank.0 as u32 * snap.bpr + l.bank.0 as u32;
            if snap.rows[gbi as usize] == l.row.0 {
                m |= 1u128 << gbi;
            }
        }
        snap.hit_mask.set(Some(m));
        m
    }

    /// Attempts FR-FCFS issue from `queue`; returns a completion if a CAS
    /// retired a transaction. At most one command is issued.
    ///
    /// The rank-level floors in `snap` reject candidates blocked by a
    /// rank-wide constraint (tCCD between row hits, tRRD/tFAW between
    /// ACTs, refresh recovery) with one compare instead of a full
    /// `can_issue` validation. Sound because a floor past `now` makes
    /// `can_issue` fail for that class — the same candidates are
    /// attempted, in the same order, with identical outcomes.
    fn try_issue(
        &mut self,
        is_write_queue: bool,
        now: Cycle,
        act_allowed: bool,
        snap: &IssueSnapshot,
    ) -> (bool, Option<Completion>) {
        // Pass 1: row hits, oldest first. On table-backed geometries the
        // sweep is branchless — every entry contributes one candidate
        // bit computed from indexed loads (no per-entry branch to
        // mispredict on the irregular hit pattern) — and only the few
        // floor-ready hits pay a `can_issue`, oldest first.
        let queue = if is_write_queue { &self.writes } else { &self.reads };
        let mut cas_idx = None;
        if !snap.wide && snap.prefilter && queue.len() <= 64 {
            let mut cand = 0u64;
            for (i, p) in queue.iter().enumerate() {
                let l = p.txn.loc;
                let gbi = (l.rank.0 as u32 * snap.bpr + l.bank.0 as u32) as usize;
                let hit = (snap.rows[gbi] == l.row.0) as u64;
                let rank_floor = snap.cas_dir_f[p.txn.is_write as usize][l.rank.0 as usize];
                let ready = (rank_floor.max(snap.cas_bank_f[gbi]) <= now) as u64;
                cand |= (hit & ready) << i;
            }
            // Candidates that clear the rank/bank floors mostly fail on
            // the data bus (cross-rank tRTRS gaps around in-flight
            // bursts). That verdict depends only on (direction, rank,
            // cycle), so probe it once per pair and skip the full
            // validation for every candidate behind a blocked bus.
            let mut bus = [[0u8; 16]; 2]; // 0 unknown, 1 admits, 2 blocked
            while cand != 0 {
                let i = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let p = &queue[i];
                let l = p.txn.loc;
                let d = p.txn.is_write as usize;
                let r = l.rank.0 as usize;
                let admits = match bus[d][r] {
                    0 => {
                        let a = self.device.data_bus_admits(!p.txn.is_write, l.rank, now);
                        bus[d][r] = if a { 1 } else { 2 };
                        a
                    }
                    m => m == 1,
                };
                if !admits {
                    continue;
                }
                let cas = if p.txn.is_write {
                    Command::write(l.rank, l.bank, l.row, l.col)
                } else {
                    Command::read(l.rank, l.bank, l.row, l.col)
                };
                if self.device.can_issue(&cas, now).is_ok() {
                    cas_idx = Some((i, cas));
                    break;
                }
            }
        } else {
            for (i, p) in queue.iter().enumerate() {
                let l = p.txn.loc;
                if self.device.open_row(l.rank, l.bank) == Some(l.row) {
                    let cas = if p.txn.is_write {
                        Command::write(l.rank, l.bank, l.row, l.col)
                    } else {
                        Command::read(l.rank, l.bank, l.row, l.col)
                    };
                    if self.device.can_issue(&cas, now).is_ok() {
                        cas_idx = Some((i, cas));
                        break;
                    }
                }
            }
        }
        if let Some((i, cas)) = cas_idx {
            let p = if is_write_queue { self.writes.remove(i) } else { self.reads.remove(i) };
            let out = self.device.issue(&cas, now).expect("validated CAS");
            if p.issued_act {
                self.stats.row_misses += 1;
            } else {
                self.stats.row_hits += 1;
            }
            let finish = out.data_done.expect("CAS produces data");
            if !p.txn.is_write && p.txn.kind == TxnKind::Demand {
                let ds = self.stats.domain_mut(p.txn.domain);
                ds.read_latency_sum += finish.saturating_sub(p.txn.arrival);
                ds.reads_completed += 1;
            }
            // Writes complete too: the producer uses this to retire its
            // store-to-load forwarding window.
            return (true, Some(Completion { txn: p.txn, finish }));
        }

        // Pass 2: oldest transaction whose next command (PRE or ACT) can
        // issue. Never precharge a row some pending transaction still hits.
        // The guard is answered with the snapshot's bitmask (row state
        // is constant until a command issues, and pass 2 returns as
        // soon as it issues); geometries too wide for a u128 fall back
        // to the direct scan.
        let queue_len = if is_write_queue { self.writes.len() } else { self.reads.len() };
        if !snap.wide && snap.prefilter && queue_len <= 64 {
            // Branchless class sweep: one candidate bit per entry whose
            // PRE (conflict) or ACT (closed bank) clears its floors.
            // The FR-FCFS precharge guard and the full validation run
            // only per candidate, oldest first.
            let mut cand = 0u64;
            {
                let queue = if is_write_queue { &self.writes } else { &self.reads };
                for (i, p) in queue.iter().enumerate() {
                    let l = p.txn.loc;
                    let r = l.rank.0 as usize;
                    let gbi = (l.rank.0 as u32 * snap.bpr + l.bank.0 as u32) as usize;
                    let open = snap.rows[gbi];
                    let closed = open == NO_ROW;
                    let conflict = !closed & (open != l.row.0);
                    let act_ready = act_allowed & (snap.act_f[r].max(snap.act_bank_f[gbi]) <= now);
                    let pre_ready = snap.pre_f[r].max(snap.pre_bank_f[gbi]) <= now;
                    cand |= (((closed & act_ready) | (conflict & pre_ready)) as u64) << i;
                }
            }
            while cand != 0 {
                let i = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let loc =
                    if is_write_queue { self.writes[i].txn.loc } else { self.reads[i].txn.loc };
                let gbi = (loc.rank.0 as u32 * snap.bpr + loc.bank.0 as u32) as usize;
                if snap.rows[gbi] == NO_ROW {
                    let act = Command::activate(loc.rank, loc.bank, loc.row);
                    if self.device.can_issue(&act, now).is_ok() {
                        self.device.issue(&act, now).expect("validated activate");
                        if is_write_queue {
                            self.writes[i].issued_act = true;
                        } else {
                            self.reads[i].issued_act = true;
                        }
                        return (true, None);
                    }
                } else {
                    if self.hit_mask_of(snap) & (1u128 << gbi) != 0 {
                        continue; // deferred: some pending txn still hits
                    }
                    let pre = Command::precharge(loc.rank, loc.bank);
                    if self.device.can_issue(&pre, now).is_ok() {
                        self.device.issue(&pre, now).expect("validated precharge");
                        return (true, None);
                    }
                }
            }
            return (false, None);
        }
        for i in 0..queue_len {
            let loc = if is_write_queue { self.writes[i].txn.loc } else { self.reads[i].txn.loc };
            match self.device.open_row(loc.rank, loc.bank) {
                Some(r) if r == loc.row => { /* covered by pass 1; bus busy */ }
                Some(open_row) => {
                    let someone_hits = self.reads.iter().chain(self.writes.iter()).any(|q| {
                        q.txn.loc.rank == loc.rank
                            && q.txn.loc.bank == loc.bank
                            && q.txn.loc.row == open_row
                    });
                    if !someone_hits {
                        let pre = Command::precharge(loc.rank, loc.bank);
                        if self.device.can_issue(&pre, now).is_ok() {
                            self.device.issue(&pre, now).expect("validated precharge");
                            return (true, None);
                        }
                    }
                }
                None => {
                    if act_allowed {
                        let act = Command::activate(loc.rank, loc.bank, loc.row);
                        if self.device.can_issue(&act, now).is_ok() {
                            self.device.issue(&act, now).expect("validated activate");
                            if is_write_queue {
                                self.writes[i].issued_act = true;
                            } else {
                                self.reads[i].issued_act = true;
                            }
                            return (true, None);
                        }
                    }
                }
            }
        }
        (false, None)
    }
}

impl MemoryController for BaselineScheduler {
    fn can_accept(&self, _domain: DomainId) -> bool {
        self.reads.len() < self.read_capacity && self.writes.len() < self.write_capacity
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let queue_full = if txn.is_write {
            self.writes.len() >= self.write_capacity
        } else {
            self.reads.len() >= self.read_capacity
        };
        if queue_full {
            return Err(QueueFull { domain: txn.domain });
        }
        let ds = self.stats.domain_mut(txn.domain);
        if txn.is_write {
            ds.demand_writes += 1;
        } else {
            ds.demand_reads += 1;
            if self.prefetch_enabled() {
                self.prefetchers[txn.domain.0 as usize].on_access(txn.local_addr);
            }
        }
        let pending = Pending { txn, issued_act: false };
        if txn.is_write {
            self.writes.push(pending);
        } else {
            self.reads.push(pending);
        }
        self.idle_until = 0;
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        // Provably-idle tick: the cached bound was a full `next_event`
        // scan of this exact state (every mutation since would have
        // cleared it), and that scan folded in the refresh command
        // cycles, the quiesce onset, and every FR-FCFS candidate — so
        // nothing below could fire either. Skip the queue scans.
        if now < self.idle_until {
            return;
        }
        // Refresh window handling (identical across policies).
        if let Some(cmd) = self.refresh.command_at(now) {
            self.device.issue(&cmd, now).expect("refresh must be legal after quiesce");
            self.idle_until = 0;
            return;
        }
        if self.refresh.in_window(now) {
            return;
        }
        let act_allowed = self.refresh.allows_transaction(now);
        if !act_allowed {
            self.quiesce_precharge(now);
            // CAS to already-open rows could run past the window; stop
            // everything except the precharges above. The quiesce may
            // have touched the device, so drop any cached bound.
            self.idle_until = 0;
            return;
        }

        self.pump_prefetches(now);

        // Write-drain hysteresis.
        if self.writes.len() >= self.drain_hi {
            self.draining = true;
        } else if self.writes.len() <= self.drain_lo {
            self.draining = false;
        }
        let drain = self.draining || self.reads.is_empty();

        let snap = self.snapshot();
        let (issued, c) = self.try_issue(drain, now, act_allowed, &snap);
        if let Some(c) = c {
            out.push(c);
        }
        let mut any = issued;
        if !issued {
            // Opportunistic issue from the other queue (device and
            // queue state unchanged — the first attempt issued
            // nothing — so the snapshot is still exact).
            let (issued2, c2) = self.try_issue(!drain, now, act_allowed, &snap);
            any = issued2;
            if let Some(c2) = c2 {
                out.push(c2);
            }
        }
        self.idle_until = if any {
            0
        } else {
            // Nothing issued and nothing mutated: the state this tick
            // scanned stays exactly as-is until the bound (or an
            // enqueue clears it), so the scans need not repeat.
            self.next_event(now)
        };
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // Same reasoning as in `tick_into`: the cached bound is the
        // result of scanning this exact (unchanged) state, so a fresh
        // scan could only return the same cycle.
        if now < self.idle_until {
            return self.idle_until;
        }
        // The prefetcher can inject new work on any tick with headroom.
        if self.prefetchers.iter().any(|p| p.has_prefetch()) {
            return now + 1;
        }
        // Wall-clock refresh: the staggered REF commands themselves, and
        // (outside a window) the quiesce onset where ACTs stop and open
        // rows get swept closed.
        let mut next = self.refresh.next_command_cycle(now);
        if self.refresh.in_window(now + 1) {
            // Inside the window nothing but REFs issue; the first
            // transaction command can come no earlier than the window end.
            if let Some((_, end)) = self.refresh.next_window(now + 1) {
                next = next.min(end);
            }
            return next.max(now + 1);
        }
        next = next.min(self.refresh.next_blocked_cycle(now + 1));
        // FR-FCFS candidates: for each pending transaction, the earliest
        // cycle its next command (CAS, PRE or ACT per current row state)
        // could become device-legal *and* pass the scheduler's own
        // guards. Row state and queue contents only change when a
        // command issues (the simulator lowers the cached bound via
        // `enqueue_event_hint` on every enqueue), so no tick before the
        // minimum over all candidates can issue anything — those cycles
        // are provable no-ops. A precharge
        // deferred because pending row hits still target the open row is
        // excluded: it stays deferred until one of those hits' CAS — a
        // candidate in its own right — issues first.
        // Candidate legality is row- and column-independent within each
        // command class (ACT gates on the bank being closed, CAS on the
        // row already matching, PRE on the bank being open), so the
        // per-transaction candidate set dedupes to one representative
        // command per populated (bank, class): a single classification
        // pass over both queues builds read-hit / write-hit / conflict /
        // closed bitmasks — they fit a u128 for any realistic geometry
        // (the paper's is 8 ranks x 8 banks) — then each set bit costs
        // one device probe instead of one per queued transaction.
        let geom = *self.device.geometry();
        let bpr = geom.banks_per_rank() as u32;
        if geom.ranks_per_channel() as u32 * bpr > 128 {
            // Geometry too wide for the bitmasks: per-transaction scan.
            for p in self.reads.iter().chain(self.writes.iter()) {
                let loc = p.txn.loc;
                let cmd = match self.device.open_row(loc.rank, loc.bank) {
                    Some(r) if r == loc.row => {
                        if p.txn.is_write {
                            Command::write(loc.rank, loc.bank, loc.row, loc.col)
                        } else {
                            Command::read(loc.rank, loc.bank, loc.row, loc.col)
                        }
                    }
                    Some(open_row) => {
                        let someone_hits = self.reads.iter().chain(self.writes.iter()).any(|q| {
                            q.txn.loc.rank == loc.rank
                                && q.txn.loc.bank == loc.bank
                                && q.txn.loc.row == open_row
                        });
                        if someone_hits {
                            continue;
                        }
                        Command::precharge(loc.rank, loc.bank)
                    }
                    None => Command::activate(loc.rank, loc.bank, loc.row),
                };
                next = next.min(self.device.next_legal_at(&cmd, now + 1));
                if next <= now + 1 {
                    return now + 1;
                }
            }
            return next.max(now + 1);
        }
        // Flat open-row table once, then one indexed load per entry —
        // the classification sweep touches up to 128 queue entries.
        let nranks = geom.ranks_per_channel() as usize;
        let mut rows = [NO_ROW; 128];
        for r in 0..nranks {
            let src = self.device.banks_of(RankId(r as u8)).open_rows_slice();
            rows[r * bpr as usize..][..src.len()].copy_from_slice(src);
        }
        let (mut read_hit, mut write_hit, mut conflict, mut closed) = (0u128, 0u128, 0u128, 0u128);
        for q in self.reads.iter().chain(self.writes.iter()) {
            let l = q.txn.loc;
            let gbi = l.rank.0 as u32 * bpr + l.bank.0 as u32;
            let bit = 1u128 << gbi;
            match rows[gbi as usize] {
                r if r == l.row.0 => {
                    if q.txn.is_write {
                        write_hit |= bit;
                    } else {
                        read_hit |= bit;
                    }
                }
                NO_ROW => closed |= bit,
                _ => conflict |= bit,
            }
        }
        // One fused device scan evaluates every candidate: a bank with
        // any pending row hit never precharges (the FR-FCFS guard), so
        // conflicted banks only contribute a PRE candidate when no hit
        // shares the bank.
        next = next.min(self.device.next_event_bound(
            now + 1,
            read_hit,
            write_hit,
            conflict & !(read_hit | write_hit),
            closed,
        ));
        next.max(now + 1)
    }

    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        // A demand read may just have trained the prefetcher (see
        // `enqueue`); fresh prefetches are pumped on the very next tick.
        if self.prefetchers.iter().any(|p| p.has_prefetch()) {
            return now + 1;
        }
        // The only *new* issue candidate is this transaction's own next
        // command: both queues are tried opportunistically every tick,
        // so existing entries' candidacy is unchanged, and every other
        // enqueue side effect (row-hit guards on deferred precharges,
        // drain-priority flips) can only *delay* issues. The precharge
        // guard is deliberately ignored — a too-early bound merely
        // costs one no-op tick.
        let loc = txn.loc;
        let cmd = match self.device.open_row(loc.rank, loc.bank) {
            Some(r) if r == loc.row => {
                if txn.is_write {
                    Command::write(loc.rank, loc.bank, loc.row, loc.col)
                } else {
                    Command::read(loc.rank, loc.bank, loc.row, loc.col)
                }
            }
            Some(_) => Command::precharge(loc.rank, loc.bank),
            None => Command::activate(loc.rank, loc.bank, loc.row),
        };
        let at = self.device.next_legal_at(&cmd, now + 1);
        if at == Cycle::MAX {
            // Legality hinges on some other command issuing first; fall
            // back to a plain re-tick rather than claiming "never".
            return now + 1;
        }
        at.max(now + 1)
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

/// Convenience: map a domain-local address for this controller's
/// (unpartitioned) address space.
pub fn map_local(geom: &Geometry, domain: DomainId, local: LineAddr) -> fsmc_dram::Location {
    PartitionPolicy::None.map(geom, domain, local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_dram::TimingChecker;

    fn mk() -> BaselineScheduler {
        BaselineScheduler::new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, false)
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::None.map(&geom, DomainId(domain), LineAddr(local));
        if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0).with_local_addr(LineAddr(local))
        }
    }

    fn run(mc: &mut BaselineScheduler, cycles: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for c in 0..cycles {
            all.extend(mc.tick(c));
        }
        all
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let mut mc = mk();
        mc.enqueue(txn(1, 0, 100, false)).unwrap();
        let done = run(&mut mc, 60);
        assert_eq!(done.len(), 1);
        // ACT at 0, CAS at 11, data done at 11 + 11 + 4 = 26.
        assert_eq!(done[0].finish, 26);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn second_read_to_same_row_is_a_row_hit() {
        let mut mc = mk();
        mc.enqueue(txn(1, 0, 100, false)).unwrap();
        mc.enqueue(txn(2, 0, 101, false)).unwrap();
        let done = run(&mut mc, 80);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 1);
        // The hit's CAS follows tCCD after the first CAS.
        assert_eq!(done[1].finish - done[0].finish, 4);
    }

    #[test]
    fn writes_drain_when_reads_are_absent() {
        let mut mc = mk();
        for i in 0..4 {
            mc.enqueue(txn(i, 0, i * 1000, true)).unwrap();
        }
        run(&mut mc, 400);
        let w: u64 = mc.device().counters().total_writes();
        assert_eq!(w, 4);
    }

    #[test]
    fn command_stream_is_legal() {
        let mut mc = mk();
        mc.record_commands();
        for i in 0..32u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 37, i % 3 == 0)).unwrap();
        }
        run(&mut mc, 3000);
        let log = mc.take_command_log();
        assert!(log.len() >= 32);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let violations = checker.check(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn refresh_windows_interleave_without_violations() {
        let mut mc = mk();
        mc.record_commands();
        let mut id = 0;
        let mut completions = 0;
        for c in 0..14_000u64 {
            if c % 50 == 0 && mc.can_accept(DomainId(0)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 53, false)).unwrap();
                id += 1;
            }
            completions += mc.tick(c).len();
        }
        assert!(completions > 100);
        // Two refresh windows elapsed; all 8 ranks refreshed in each.
        assert_eq!(mc.device().counters().total_refreshes(), 16);
        let log = mc.take_command_log();
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let violations = checker.check(&log);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn next_event_skips_are_sound_across_idle_refresh_spans() {
        // A short burst drains, then the controller idles across two
        // refresh windows; ticking only at next_event cycles must give a
        // byte-identical command log and stats.
        let (mut dense, mut sparse) = (mk(), mk());
        dense.record_commands();
        sparse.record_commands();
        for i in 0..8u64 {
            let t = txn(i, (i % 8) as u8, i * 37, i % 3 == 0);
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

    #[test]
    fn next_event_skips_are_sound_under_sustained_load() {
        // A steady mixed read/write stream keeps the queues busy across
        // refresh windows, write-drain flips, row conflicts and tFAW
        // pressure — exercising the per-transaction earliest-issue bound
        // rather than the idle wall-clock one. The sparse loop also wakes
        // at arrival cycles, mirroring the simulator (which never skips
        // while any core could enqueue).
        let (mut dense, mut sparse) = (mk(), mk());
        dense.record_commands();
        sparse.record_commands();
        let arrivals: Vec<(u64, Transaction)> = (0..120u64)
            .map(|i| (40 * (i / 4), txn(i, (i % 8) as u8, i * 97, i % 4 == 3)))
            .collect();
        let horizon = 14_000u64;
        let mut dense_done = Vec::new();
        let mut ai = 0;
        for c in 0..horizon {
            while ai < arrivals.len() && arrivals[ai].0 <= c {
                dense.enqueue(arrivals[ai].1).unwrap();
                ai += 1;
            }
            dense_done.extend(dense.tick(c));
        }
        let mut sparse_done = Vec::new();
        let mut ai = 0;
        let mut c = 0u64;
        while c < horizon {
            while ai < arrivals.len() && arrivals[ai].0 <= c {
                sparse.enqueue(arrivals[ai].1).unwrap();
                ai += 1;
            }
            sparse_done.extend(sparse.tick(c));
            let mut next = sparse.next_event(c);
            if ai < arrivals.len() {
                next = next.min(arrivals[ai].0.max(c + 1));
            }
            c = next;
        }
        assert_eq!(dense_done, sparse_done);
        assert_eq!(dense.take_command_log(), sparse.take_command_log());
        assert_eq!(dense.stats(), sparse.stats());
    }

    #[test]
    fn backpressure_on_full_read_queue() {
        let mut mc = mk();
        for i in 0..64 {
            mc.enqueue(txn(i, 0, i, false)).unwrap();
        }
        assert!(!mc.can_accept(DomainId(0)));
        assert!(mc.enqueue(txn(99, 0, 99, false)).is_err());
    }

    #[test]
    fn prefetcher_injects_prefetch_reads_on_streaming_pattern() {
        let mut mc =
            BaselineScheduler::new(Geometry::paper_default(), TimingParams::ddr3_1600(), 8, true);
        let mut cycle = 0u64;
        for i in 0..600u64 {
            mc.enqueue(txn(i, 0, i, false)).unwrap();
            for _ in 0..12 {
                mc.tick(cycle);
                cycle += 1;
            }
        }
        let pf = mc.stats().domain(DomainId(0)).prefetches;
        assert!(pf > 0, "sandbox prefetcher never activated");
    }
}
