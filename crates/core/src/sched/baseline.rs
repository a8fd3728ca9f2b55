//! The non-secure baseline: FR-FCFS open-page scheduling with
//! watermark-driven write draining and optional sandbox prefetching.
//!
//! This is the normalisation denominator for every figure in the paper.
//! (The paper uses the MSC-2012 winner; FR-FCFS open-page with write
//! drain is the same class of aggressive row-hit-first scheduler — see
//! DESIGN.md for the substitution note.)

use crate::domain::{DomainId, PartitionPolicy};
use crate::error::ConfigError;
use crate::prefetch::SandboxPrefetcher;
use crate::queues::QueueFull;
use crate::refresh::RefreshManager;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::{Transaction, TxnId, TxnKind};
use fsmc_dram::command::{Command, CommandKind};
use fsmc_dram::device::IssueOutcome;
use fsmc_dram::geometry::{Geometry, LineAddr, RankId};
use fsmc_dram::{Cycle, DramDevice, TimingParams, NO_ROW};

/// Banks per channel the candidate masks cover (one `u128` bit each).
const MAX_BANKS: usize = 128;
/// Entries per queue; the per-queue row-hit mask is one `u64`.
const QUEUE_CAPACITY: usize = 64;

/// One queued transaction and its command progress.
#[derive(Debug, Clone, Copy)]
struct Pending {
    txn: Transaction,
    /// Global bank index `rank * banks_per_rank + bank`.
    gbi: u8,
    issued_act: bool,
}

/// The command the issue passes issued: entry `i` of queue `d` and the
/// next command of its transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    d: usize,
    i: usize,
    cmd: Command,
}

/// Queue mask `m` with bit `i` removed and the bits above it shifted
/// down one, as `Vec::remove(i)` shifts the queue.
fn compress(m: u64, i: usize) -> u64 {
    let low = (1u64 << i) - 1;
    (m & low) | ((m >> 1) & !low)
}

/// The two FR-FCFS queues and the per-bank candidate state derived from
/// them and the device's row buffers. Every queue or row change goes
/// through [`Candidates::push`], [`Candidates::remove`],
/// [`Candidates::activate`] or [`Candidates::close`], which update only
/// what that change touched and mark its rank dirty, so the issue
/// passes, the precharge guard and `next_event` read the classification
/// instead of rebuilding it.
#[derive(Debug)]
struct Candidates {
    /// `[reads, writes]`, each oldest first.
    queues: [Vec<Pending>; 2],
    /// Per queue: bit `i` set iff entry `i` targets its bank's open row.
    hits: [u64; 2],
    /// Per queue and rank: bit `i` set iff entry `i` targets that rank.
    positions: [Vec<u64>; 2],
    /// Open-row mirror by global bank index ([`NO_ROW`] = precharged).
    rows: [u32; MAX_BANKS],
    /// Queued entries per bank, and queued row hits per direction and bank.
    occupancy: [u8; MAX_BANKS],
    hit_count: [[u8; MAX_BANKS]; 2],
    /// Banks with a queued entry, with an open row, and with a queued
    /// read / write row hit (`[read, write]`).
    occupied: u128,
    open: u128,
    hit_banks: [u128; 2],
    /// Ranks whose candidate classes or device state changed since
    /// their floors were cached (one bit per rank).
    dirty: u128,
    bpr: u32,
}

impl Candidates {
    fn new(bpr: u32, ranks: usize) -> Self {
        Candidates {
            queues: [Vec::new(), Vec::new()],
            hits: [0; 2],
            positions: [vec![0; ranks], vec![0; ranks]],
            rows: [NO_ROW; MAX_BANKS],
            occupancy: [0; MAX_BANKS],
            hit_count: [[0; MAX_BANKS]; 2],
            occupied: 0,
            open: 0,
            hit_banks: [0; 2],
            dirty: 0,
            bpr,
        }
    }

    /// The banks of `rank` as a mask.
    fn rank_mask(&self, rank: RankId) -> u128 {
        let width = if self.bpr >= 128 { u128::MAX } else { (1u128 << self.bpr) - 1 };
        width << (rank.0 as u32 * self.bpr)
    }

    /// Rank `r`'s candidate classes `[read CAS, write CAS, PRE, ACT]` as
    /// bank masks of that rank: banks with a queued read / write row hit,
    /// open banks with queued entries but no hit (a bank with any pending
    /// row hit never precharges — the FR-FCFS guard), and closed banks
    /// with queued entries.
    fn rank_classes(&self, r: RankId) -> [u128; 4] {
        let hits = self.hit_banks[0] | self.hit_banks[1];
        let (mask, shift) = (self.rank_mask(r), r.0 as u32 * self.bpr);
        [
            self.hit_banks[0],
            self.hit_banks[1],
            self.occupied & self.open & !hits,
            self.occupied & !self.open,
        ]
        .map(|m| (m & mask) >> shift)
    }

    /// The positions in queue `d` of the entries that target a rank in
    /// `ranks` (bit `r` = rank `r`).
    fn positions_of(&self, d: usize, ranks: u128) -> u64 {
        let (mut out, mut m) = (0, ranks);
        while m != 0 {
            out |= self.positions[d][m.trailing_zeros() as usize];
            m &= m - 1;
        }
        out
    }

    /// Writes the event floors ([`DramDevice::rank_event_floors`]) of
    /// every dirty rank `r` into `floors[r]`.
    fn eval_dirty(&self, device: &DramDevice, floors: &mut [[Cycle; 4]]) {
        let mut m = self.dirty;
        while m != 0 {
            let r = RankId(m.trailing_zeros() as u8);
            m &= m - 1;
            floors[r.0 as usize] = device.rank_event_floors(r, self.rank_classes(r));
        }
    }

    /// Marks the rank of global bank `g` dirty.
    fn touch(&mut self, g: usize) {
        self.dirty |= 1 << (g as u32 / self.bpr);
    }

    fn add_hit(&mut self, d: usize, g: usize) {
        self.hit_count[d][g] += 1;
        self.hit_banks[d] |= 1 << g;
    }

    /// Appends `txn` to its direction's queue.
    fn push(&mut self, txn: Transaction) {
        let l = txn.loc;
        let g = (l.rank.0 as u32 * self.bpr + l.bank.0 as u32) as usize;
        let d = txn.is_write as usize;
        let i = self.queues[d].len();
        self.queues[d].push(Pending { txn, gbi: g as u8, issued_act: false });
        self.positions[d][l.rank.0 as usize] |= 1 << i;
        self.occupancy[g] += 1;
        self.occupied |= 1 << g;
        self.touch(g);
        if self.rows[g] == l.row.0 {
            self.hits[d] |= 1 << i;
            self.add_hit(d, g);
        }
    }

    /// Removes entry `i` of queue `d`, shifting the hit and position
    /// masks with the queue.
    fn remove(&mut self, d: usize, i: usize) -> Pending {
        let p = self.queues[d].remove(i);
        let g = p.gbi as usize;
        let was_hit = self.hits[d] >> i & 1 != 0;
        self.hits[d] = compress(self.hits[d], i);
        for m in &mut self.positions[d] {
            *m = compress(*m, i);
        }
        if was_hit {
            self.hit_count[d][g] -= 1;
            if self.hit_count[d][g] == 0 {
                self.hit_banks[d] &= !(1 << g);
            }
        }
        self.occupancy[g] -= 1;
        if self.occupancy[g] == 0 {
            self.occupied &= !(1 << g);
        }
        self.touch(g);
        p
    }

    /// Bank `g` opened `row`: its queued entries for that row become hits.
    fn activate(&mut self, g: usize, row: u32) {
        self.rows[g] = row;
        self.open |= 1 << g;
        self.touch(g);
        for d in 0..2 {
            for i in 0..self.queues[d].len() {
                let p = &self.queues[d][i];
                if p.gbi as usize == g && p.txn.loc.row.0 == row {
                    self.hits[d] |= 1 << i;
                    self.add_hit(d, g);
                }
            }
        }
    }

    /// The banks in `banks`, all of one rank, were precharged: their
    /// queued hits (only the refresh quiesce closes a bank that still has
    /// some) stop being hits.
    fn close(&mut self, banks: u128) {
        self.touch(banks.trailing_zeros() as usize);
        let mut m = banks & self.open;
        while m != 0 {
            let g = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rows[g] = NO_ROW;
            self.hit_count[0][g] = 0;
            self.hit_count[1][g] = 0;
        }
        self.open &= !banks;
        for d in 0..2 {
            if self.hit_banks[d] & banks == 0 {
                continue;
            }
            self.hit_banks[d] &= !banks;
            let mut m = self.hits[d];
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                if banks >> self.queues[d][i].gbi & 1 != 0 {
                    self.hits[d] &= !(1 << i);
                }
            }
        }
    }
}

/// FR-FCFS open-page controller for one channel.
#[derive(Debug)]
pub struct BaselineScheduler {
    device: DramDevice,
    t: TimingParams,
    refresh: RefreshManager,
    stats: McStats,
    kind: SchedulerKind,
    cand: Candidates,
    /// Per-rank event floors of the candidate classes
    /// ([`DramDevice::rank_event_floors`]), one entry per rank, exact for
    /// every rank not in `cand.dirty`. Every tick leaves all of them
    /// exact; only an enqueue between ticks dirties a rank.
    events: Vec<[Cycle; 4]>,
    drain_hi: usize,
    drain_lo: usize,
    draining: bool,
    /// One sandbox prefetcher per domain; empty without prefetching.
    prefetchers: Vec<SandboxPrefetcher>,
    next_prefetch_id: u64,
    domains: u8,
    /// Cached provable-no-op bound: every tick at a cycle strictly below
    /// this issues nothing and mutates nothing. Taken from `next_event`
    /// at the end of every full tick, issuing or not; cleared (0) by an
    /// enqueue and by a tick that refresh ends before the issue passes.
    /// Queue contents and row state are constant while it holds, so both
    /// `tick_into` and `next_event` answer in O(1).
    idle_until: Cycle,
}

impl BaselineScheduler {
    /// Creates a baseline controller; `prefetch` enables the sandbox
    /// prefetcher (the `Baseline_Prefetch` design point of Figure 7).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the channel has more than 128 banks, the width
    /// of the per-bank candidate masks.
    pub fn try_new(
        geom: Geometry,
        t: TimingParams,
        domains: u8,
        prefetch: bool,
    ) -> Result<Self, ConfigError> {
        let nranks = geom.ranks_per_channel() as usize;
        let bpr = geom.banks_per_rank() as u32;
        if nranks * bpr as usize > MAX_BANKS {
            return Err(ConfigError::new(format!(
                "{nranks} ranks x {bpr} banks exceed the FR-FCFS limit of {MAX_BANKS} banks per \
                 channel"
            )));
        }
        Ok(BaselineScheduler {
            device: DramDevice::new(geom, t),
            t,
            refresh: RefreshManager::new(&t, geom.ranks_per_channel()),
            stats: McStats::new(domains as usize),
            kind: if prefetch { SchedulerKind::BaselinePrefetch } else { SchedulerKind::Baseline },
            cand: Candidates::new(bpr, nranks),
            events: vec![[Cycle::MAX; 4]; nranks],
            drain_hi: 40,
            drain_lo: 16,
            draining: false,
            prefetchers: if prefetch {
                (0..domains).map(|_| SandboxPrefetcher::new()).collect()
            } else {
                Vec::new()
            },
            next_prefetch_id: 1 << 62,
            domains,
            idle_until: 0,
        })
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
        let limit = (self.domains as usize).min(QUEUE_CAPACITY);
        for d in 0..self.domains {
            while self.cand.queues[0].len() < limit {
                let Some(local) = self.prefetchers[d as usize].next_prefetch() else { break };
                let loc = PartitionPolicy::None.map(&geom, DomainId(d), local);
                self.cand.push(Transaction {
                    id: TxnId(self.next_prefetch_id),
                    domain: DomainId(d),
                    loc,
                    local_addr: local,
                    is_write: false,
                    arrival: now,
                    kind: TxnKind::Prefetch,
                });
                self.next_prefetch_id += 1;
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
        for r in 0..self.device.geometry().ranks_per_channel() {
            let banks = self.cand.rank_mask(RankId(r));
            if self.cand.open & banks != 0
                && self.device.issue(&Command::precharge_all(RankId(r)), now).is_ok()
            {
                self.cand.close(banks);
                return;
            }
        }
    }

    /// The drain mode the write-drain hysteresis gives for the current
    /// write count.
    fn drain_mode(&self) -> bool {
        let writes = self.cand.queues[1].len();
        if writes >= self.drain_hi {
            true
        } else if writes <= self.drain_lo {
            false
        } else {
            self.draining
        }
    }

    /// Re-evaluates the cached floors of the dirty ranks.
    fn settle_floors(&mut self) {
        self.cand.eval_dirty(&self.device, &mut self.events);
        self.cand.dirty = 0;
    }

    /// The FR-FCFS candidates' [`DramDevice::next_event_bound`] from
    /// `from`, read straight from the cached floors, which every tick
    /// leaves settled. Only an enqueue since the last tick leaves dirty
    /// ranks; their floors are evaluated into a scratch copy.
    fn candidate_bound(&self, from: Cycle) -> Cycle {
        if self.cand.dirty == 0 {
            return self.device.next_event_bound(from, &self.events);
        }
        let mut floors = self.events.clone();
        self.cand.eval_dirty(&self.device, &mut floors);
        self.device.next_event_bound(from, &floors)
    }

    /// [`MemoryController::next_event`] evaluated from the current state,
    /// without the cached `idle_until` bound.
    fn scan_next_event(&self, now: Cycle) -> Cycle {
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
        // The write-drain hysteresis is state a full tick updates: if the
        // write count crossed a watermark since the last full tick, the
        // next tick flips the drain mode, so it is not a no-op.
        if self.drain_mode() != self.draining {
            return now + 1;
        }
        // FR-FCFS candidates: for each pending transaction, the earliest
        // cycle its next command (CAS, PRE or ACT per current row state)
        // could become device-legal *and* pass the scheduler's own
        // guards. Row state and queue contents only change when a
        // command issues (the simulator lowers the cached bound via
        // `enqueue_event_hint` on every enqueue), so no tick before the
        // minimum over all candidates can issue anything — those cycles
        // are provable no-ops. Candidate legality is row- and
        // column-independent within each command class, so the
        // candidate set dedupes to one command per populated (bank,
        // class) — exactly the per-bank masks the scheduler keeps, and
        // each rank's class floors change only with those masks or a
        // command on that rank, so they are cached per rank.
        next = next.min(self.candidate_bound(now + 1));
        next.max(now + 1)
    }

    /// Issues the FR-FCFS pick at `now`: the first of queue `drain`
    /// (`is_write`), else of the other queue, as
    /// [`BaselineScheduler::pick`] finds it.
    fn choose(&mut self, drain: bool, now: Cycle) -> Option<(Pick, IssueOutcome)> {
        self.pick(drain as usize, now).or_else(|| self.pick(!drain as usize, now))
    }

    /// Issues the next command of the oldest entry of queue `d`
    /// (`is_write`) that the device accepts at `now`: a row hit's CAS
    /// first, else an ACT on a closed bank or a PRE on a conflicting row.
    /// Never precharges a row some pending transaction still hits (the
    /// FR-FCFS guard).
    ///
    /// The passes select ranks before they touch an entry. A rank whose
    /// cached event floor for the command class lies past `now` has no
    /// bank that could issue that class, and a CAS can pass only on a
    /// rank whose data bus admits its burst
    /// ([`DramDevice::data_bus_ranks`], one pass over the scheduled
    /// transfers). Only the entries of the remaining ranks are walked,
    /// oldest first; each is rejected by its bank's ready cycle
    /// (`BankArrays`) with one compare, else offered to
    /// [`DramDevice::issue`], which validates it in full and leaves the
    /// device unchanged when it refuses. Every entry skipped would fail
    /// `can_issue`, so the pick is the one a walk of every entry in age
    /// order makes, and the command it issues is validated once.
    fn pick(&mut self, d: usize, now: Cycle) -> Option<(Pick, IssueOutcome)> {
        let (mut cas_ranks, mut row_ranks) = (0u128, 0u128);
        for (r, e) in self.events.iter().enumerate() {
            cas_ranks |= ((e[d] <= now) as u128) << r;
            row_ranks |= ((e[2].min(e[3]) <= now) as u128) << r;
        }
        // Pass 1: row hits of the ranks whose CAS floor and data bus admit.
        let is_write = d == 1;
        if cas_ranks != 0 {
            cas_ranks &= self.device.data_bus_ranks(!is_write, now);
        }
        let mut cand = self.cand.hits[d] & self.cand.positions_of(d, cas_ranks);
        while cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let l = self.cand.queues[d][i].txn.loc;
            if self.device.banks_of(l.rank).next_cas_slice()[l.bank.0 as usize] > now {
                continue;
            }
            let cmd = if is_write {
                Command::write(l.rank, l.bank, l.row, l.col)
            } else {
                Command::read(l.rank, l.bank, l.row, l.col)
            };
            if let Ok(out) = self.device.issue(&cmd, now) {
                return Some((Pick { d, i, cmd }, out));
            }
        }

        // Pass 2: non-hit entries of the ranks whose PRE or ACT floor
        // admits; the floor of the entry's own class decides.
        let guard = self.cand.hit_banks[0] | self.cand.hit_banks[1];
        let mut rest = self.cand.positions_of(d, row_ranks) & !self.cand.hits[d];
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let p = &self.cand.queues[d][i];
            let (l, g) = (p.txn.loc, p.gbi as usize);
            let (e, b) = (&self.events[l.rank.0 as usize], l.bank.0 as usize);
            let banks = self.device.banks_of(l.rank);
            let cmd = if self.cand.rows[g] == NO_ROW {
                if e[3].max(banks.next_activate_slice()[b]) > now {
                    continue;
                }
                Command::activate(l.rank, l.bank, l.row)
            } else {
                if guard >> g & 1 != 0 {
                    continue; // deferred: some pending txn still hits
                }
                if e[2].max(banks.next_precharge_slice()[b]) > now {
                    continue;
                }
                Command::precharge(l.rank, l.bank)
            };
            if let Ok(out) = self.device.issue(&cmd, now) {
                return Some((Pick { d, i, cmd }, out));
            }
        }
        None
    }

    /// Updates the candidate state for a pick the device issued with
    /// outcome `out`; returns the completion when a CAS retired its
    /// transaction.
    fn apply_pick(&mut self, Pick { d, i, cmd }: Pick, out: IssueOutcome) -> Option<Completion> {
        let g = self.cand.queues[d][i].gbi as usize;
        match cmd.kind {
            CommandKind::Activate => {
                self.cand.queues[d][i].issued_act = true;
                self.cand.activate(g, cmd.row.0);
                None
            }
            CommandKind::Precharge => {
                self.cand.close(1 << g);
                None
            }
            _ => {
                let p = self.cand.remove(d, i);
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
                // Writes complete too: the producer uses this to retire
                // its store-to-load forwarding window.
                Some(Completion { txn: p.txn, finish })
            }
        }
    }

    /// The part of a tick before the issue passes. Returns the queue the
    /// passes try first (`true` = writes), or `None` when the tick ends
    /// here: the cached no-op bound holds, or refresh owns the cycle.
    /// Either way the cached floors are left settled.
    fn begin_tick(&mut self, now: Cycle) -> Option<bool> {
        // Provably-idle tick: the cached bound was a full `next_event`
        // of this exact state (every mutation since would have cleared
        // it), and that bound folded in the refresh command cycles, the
        // quiesce onset, and every FR-FCFS candidate — so nothing below
        // could fire either. The tick that cached it settled every rank.
        if now < self.idle_until {
            return None;
        }
        // Refresh window handling (identical across policies). During
        // the quiesce, CAS to already-open rows could run past the
        // window; everything except its precharges stops.
        if let Some(cmd) = self.refresh.command_at(now) {
            self.device.issue(&cmd, now).expect("refresh must be legal after quiesce");
            self.cand.dirty |= 1 << cmd.rank.0;
        } else if self.refresh.allows_transaction(now) {
            self.pump_prefetches(now);
            self.draining = self.drain_mode();
            return Some(self.draining || self.cand.queues[0].is_empty());
        } else if !self.refresh.in_window(now) {
            self.quiesce_precharge(now);
        }
        // The refresh work may have touched the device, so drop any
        // cached bound.
        self.settle_floors();
        self.idle_until = 0;
        None
    }

    /// The issue passes and what follows them: at most one command, the
    /// drain queue first, then opportunistically the other one; then the
    /// floors settled and the no-op bound cached. Returns the command
    /// issued.
    fn issue_tick(&mut self, drain: bool, now: Cycle, out: &mut Vec<Completion>) -> Option<Pick> {
        self.settle_floors();
        let pick = self.choose(drain, now).map(|(pick, outcome)| {
            out.extend(self.apply_pick(pick, outcome));
            pick
        });
        // The state this tick left stays exactly as-is until the bound
        // (or an enqueue clears it), so the ticks before it need not
        // repeat the passes — after an issue as after a quiet tick.
        self.settle_floors();
        self.idle_until = self.scan_next_event(now);
        pick
    }
}

impl MemoryController for BaselineScheduler {
    fn can_accept(&self, _domain: DomainId) -> bool {
        self.cand.queues.iter().all(|q| q.len() < QUEUE_CAPACITY)
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        if self.cand.queues[txn.is_write as usize].len() >= QUEUE_CAPACITY {
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
        self.cand.push(txn);
        self.idle_until = 0;
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        if let Some(drain) = self.begin_tick(now) {
            self.issue_tick(drain, now, out);
        }
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // Same reasoning as in `tick_into`: the cached bound is the
        // result of evaluating this exact (unchanged) state, so a fresh
        // evaluation could only return the same cycle.
        if now < self.idle_until {
            return self.idle_until;
        }
        self.scan_next_event(now)
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
impl BaselineScheduler {
    /// Rank `r`'s event floors, evaluated from scratch.
    fn rank_events(&self, r: RankId) -> [Cycle; 4] {
        self.device.rank_event_floors(r, self.cand.rank_classes(r))
    }

    /// Rebuilds, from the device's row buffers and the queues, every
    /// piece of candidate state the scheduler keeps incrementally, and
    /// asserts it equals what the scheduler holds.
    fn check_candidates(&self) {
        use fsmc_dram::geometry::{BankId, ColId, RowId};
        let c = &self.cand;
        let geom = self.device.geometry();
        let bpr = geom.banks_per_rank() as usize;
        let mut rows = [NO_ROW; MAX_BANKS];
        let mut open = 0u128;
        for r in 0..geom.ranks_per_channel() {
            for b in 0..geom.banks_per_rank() {
                if let Some(row) = self.device.open_row(RankId(r), BankId(b)) {
                    let g = r as usize * bpr + b as usize;
                    rows[g] = row.0;
                    open |= 1 << g;
                }
            }
        }
        let mut hits = [0u64; 2];
        let mut positions = [0, 1].map(|_| vec![0u64; geom.ranks_per_channel() as usize]);
        let mut occupancy = [0u8; MAX_BANKS];
        let mut hit_count = [[0u8; MAX_BANKS]; 2];
        let (mut occupied, mut hit_banks) = (0u128, [0u128; 2]);
        for (d, q) in c.queues.iter().enumerate() {
            for (i, p) in q.iter().enumerate() {
                let l = p.txn.loc;
                let g = l.rank.0 as usize * bpr + l.bank.0 as usize;
                assert_eq!(p.gbi as usize, g, "cached bank index of queue {d} entry {i}");
                assert_eq!(p.txn.is_write, d == 1, "queue {d} entry {i} in the wrong queue");
                positions[d][l.rank.0 as usize] |= 1 << i;
                occupancy[g] += 1;
                occupied |= 1 << g;
                if rows[g] == l.row.0 {
                    hits[d] |= 1 << i;
                    hit_count[d][g] += 1;
                    hit_banks[d] |= 1 << g;
                }
            }
        }
        assert_eq!(c.rows, rows, "open-row mirror");
        assert_eq!(c.open, open, "open mask");
        assert_eq!(c.hits, hits, "per-queue hit masks");
        assert_eq!(c.positions, positions, "per-rank position masks");
        assert_eq!(c.occupancy, occupancy, "per-bank occupancy");
        assert_eq!(c.hit_count, hit_count, "per-bank hit counts");
        assert_eq!(c.occupied, occupied, "occupied mask");
        assert_eq!(c.hit_banks, hit_banks, "hit-bank masks");

        // The cached floors are exact for every clean rank, and the
        // bound the event floors give, cached or fresh, equals a full
        // evaluation that completes every class floor of every rank on
        // the channel, skipping none.
        let ranks = (0..geom.ranks_per_channel()).map(RankId);
        for r in ranks.clone().filter(|r| c.dirty >> r.0 & 1 == 0) {
            assert_eq!(self.events[r.0 as usize], self.rank_events(r), "rank {} event floors", r.0);
        }
        let fresh: Vec<_> = ranks.clone().map(|r| self.rank_events(r)).collect();
        let (b, row, col) = (BankId(0), RowId(0), ColId(0));
        let last = self.device.last_issue_at().unwrap_or(0);
        for from in [last, last + 1, last + 5, last + 40] {
            let mut full = Cycle::MAX;
            for r in ranks.clone() {
                let classes = [
                    Command::read(r, b, row, col),
                    Command::write(r, b, row, col),
                    Command::precharge(r, b),
                    Command::activate(r, b, row),
                ];
                for (floor, cmd) in self.rank_events(r).into_iter().zip(classes) {
                    full = full.min(self.device.channel_legal_at(&cmd, floor.max(from)));
                }
            }
            assert_eq!(self.candidate_bound(from), full, "candidate bound from {from}");
            assert_eq!(self.device.next_event_bound(from, &fresh), full, "fresh bound from {from}");
        }
    }

    /// The reference FR-FCFS pick: every entry of the drain queue, then
    /// of the other queue, in age order, row hits first, each next
    /// command validated in full — no floors, no masks, no cached state;
    /// row state from the device, the precharge guard from the queues.
    fn oracle(&self, drain: bool, now: Cycle) -> Option<Pick> {
        let open = |p: &Pending| self.device.open_row(p.txn.loc.rank, p.txn.loc.bank);
        let hits = |p: &Pending| open(p) == Some(p.txn.loc.row);
        let legal = |cmd: &Command| self.device.can_issue(cmd, now).is_ok();
        for d in [drain as usize, !drain as usize] {
            let q = &self.cand.queues[d];
            for (i, p) in q.iter().enumerate().filter(|(_, p)| hits(p)) {
                let l = p.txn.loc;
                let cmd = if d == 1 {
                    Command::write(l.rank, l.bank, l.row, l.col)
                } else {
                    Command::read(l.rank, l.bank, l.row, l.col)
                };
                if legal(&cmd) {
                    return Some(Pick { d, i, cmd });
                }
            }
            for (i, p) in q.iter().enumerate().filter(|(_, p)| !hits(p)) {
                let l = p.txn.loc;
                let cmd = if open(p).is_none() {
                    Command::activate(l.rank, l.bank, l.row)
                } else {
                    let same_bank =
                        |o: &Pending| o.txn.loc.rank == l.rank && o.txn.loc.bank == l.bank;
                    if self.cand.queues.iter().flatten().any(|o| same_bank(o) && hits(o)) {
                        continue;
                    }
                    Command::precharge(l.rank, l.bank)
                };
                if legal(&cmd) {
                    return Some(Pick { d, i, cmd });
                }
            }
        }
        None
    }

    /// Ticks at `now`, asserting that a tick that runs the issue passes
    /// issues what [`BaselineScheduler::oracle`] picks from the state
    /// before the passes, and that every tick leaves the floors settled.
    fn tick_checked(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        if let Some(drain) = self.begin_tick(now) {
            let expected = self.oracle(drain, now);
            let issued = self.issue_tick(drain, now, &mut out);
            assert_eq!(issued, expected, "FR-FCFS pick at {now}");
        }
        assert_eq!(self.cand.dirty, 0, "dirty ranks after the tick at {now}");
        out
    }

    /// Asserts that a cached no-op bound still holding at `now` is what
    /// a fresh evaluation of the current state gives.
    fn check_idle_bound(&self, now: Cycle) {
        if now < self.idle_until {
            assert_eq!(self.idle_until, self.scan_next_event(now), "idle bound at {now}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_dram::command::TimedCommand;
    use fsmc_dram::geometry::{BankId, ChannelId, ColId, RowId};
    use fsmc_dram::{DeviceGeneration, Location, TimingChecker};
    use proptest::prelude::*;

    fn mk() -> BaselineScheduler {
        mk_on(DeviceGeneration::Ddr3_1600, false)
    }

    fn mk_on(generation: DeviceGeneration, prefetch: bool) -> BaselineScheduler {
        let p = generation.profile();
        BaselineScheduler::try_new(p.geometry, p.timing, 8, prefetch).unwrap()
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        txn_on(&Geometry::paper_default(), id, domain, local, write)
    }

    fn txn_on(geom: &Geometry, id: u64, domain: u8, local: u64, write: bool) -> Transaction {
        let loc = PartitionPolicy::None.map(geom, DomainId(domain), LineAddr(local));
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

    /// How [`replay`] drives a controller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Drive {
        /// Every cycle, with the cached no-op bound dropped before each
        /// tick, so every tick runs its issue passes: the reference.
        Full,
        /// Every cycle, through the controller's own idle shortcut.
        Dense,
        /// Only at `next_event` bounds and arrival cycles, as the
        /// simulator's fast path does (it never skips while a core could
        /// enqueue).
        Hop,
    }

    /// Offers `arrivals` (sorted by cycle, each offered before the tick
    /// of its cycle; one meeting a full queue is dropped, by the same
    /// rule in every drive) to a fresh controller until `horizon`.
    /// Returns the completions, the command log and the controller.
    fn replay(
        generation: DeviceGeneration,
        prefetch: bool,
        arrivals: &[(u64, Transaction)],
        horizon: u64,
        drive: Drive,
    ) -> (Vec<Completion>, Vec<TimedCommand>, BaselineScheduler) {
        let mut mc = mk_on(generation, prefetch);
        mc.record_commands();
        let (mut done, mut ai, mut c) = (Vec::new(), 0, 0u64);
        while c < horizon {
            while ai < arrivals.len() && arrivals[ai].0 <= c {
                let t = arrivals[ai].1;
                if mc.can_accept(t.domain) {
                    mc.enqueue(t).unwrap();
                }
                ai += 1;
            }
            if drive == Drive::Full {
                mc.idle_until = 0;
            }
            done.extend(mc.tick_checked(c));
            c = match drive {
                Drive::Hop => {
                    let next = mc.next_event(c);
                    arrivals.get(ai).map_or(next, |a| next.min(a.0.max(c + 1)))
                }
                _ => c + 1,
            };
        }
        let log = mc.take_command_log();
        (done, log, mc)
    }

    /// Asserts that every drive of `arrivals` gives the same completions,
    /// command log and stats as the reference; returns the reference's
    /// completions and controller.
    fn assert_drives_agree(
        generation: DeviceGeneration,
        prefetch: bool,
        arrivals: &[(u64, Transaction)],
        horizon: u64,
        drives: &[Drive],
    ) -> (Vec<Completion>, BaselineScheduler) {
        let what = format!("{generation} prefetch={prefetch}");
        let (done, log, mc) = replay(generation, prefetch, arrivals, horizon, Drive::Full);
        for &drive in drives {
            let (d, l, m) = replay(generation, prefetch, arrivals, horizon, drive);
            assert_eq!(done, d, "{what} {drive:?}: completions");
            assert_eq!(log, l, "{what} {drive:?}: command log");
            assert_eq!(mc.stats(), m.stats(), "{what} {drive:?}: stats");
        }
        (done, mc)
    }

    /// A steady mixed read/write stream that keeps the queues busy across
    /// refresh windows, write-drain flips, row conflicts and tFAW
    /// pressure, plus a sequential read stream that trains the sandbox
    /// prefetcher.
    fn sustained_arrivals(geom: &Geometry) -> Vec<(u64, Transaction)> {
        let mut arrivals: Vec<(u64, Transaction)> = (0..120u64)
            .map(|i| (40 * (i / 4), txn_on(geom, i, (i % 8) as u8, i * 97, i % 4 == 3)))
            .collect();
        arrivals.extend((0..600u64).map(|i| (12 * i, txn_on(geom, 1000 + i, 0, i, false))));
        arrivals.sort_by_key(|a| a.0);
        arrivals
    }

    /// Runs the sustained stream on every device generation, with and
    /// without prefetching, and checks it did real work.
    fn sustained_load_agrees(drives: &[Drive]) {
        for generation in DeviceGeneration::all() {
            for prefetch in [false, true] {
                let arrivals = sustained_arrivals(&generation.profile().geometry);
                let (done, mc) =
                    assert_drives_agree(generation, prefetch, &arrivals, 14_000, drives);
                let what = format!("{generation} prefetch={prefetch}");
                assert!(done.len() > 500, "{what}: {} completions", done.len());
                let prefetches = mc.stats().domain(DomainId(0)).prefetches;
                assert_eq!(prefetches > 0, prefetch, "{what}: {prefetches} prefetches");
            }
        }
    }

    #[test]
    fn next_event_skips_are_sound_under_sustained_load() {
        // The per-transaction earliest-issue bound, rather than the idle
        // wall-clock one, decides every hop here.
        sustained_load_agrees(&[Drive::Hop]);
    }

    #[test]
    fn idle_shortcut_matches_full_ticks_under_sustained_load() {
        // The shortcut fires after every command; a tick that runs its
        // passes every cycle must see nothing the shortcut skipped.
        sustained_load_agrees(&[Drive::Dense]);
    }

    #[test]
    fn next_event_after_an_enqueue_equals_the_settled_bound() {
        // Every tick leaves the floors settled; an enqueue between ticks
        // dirties its rank, and `next_event` then evaluates the dirty
        // ranks into scratch. From the same state, the floors a tick
        // settles must give the same bound.
        for generation in DeviceGeneration::all() {
            let arrivals = sustained_arrivals(&generation.profile().geometry);
            let mut mc = mk_on(generation, false);
            let (mut ai, mut checked) = (0, 0);
            for c in 0..14_000u64 {
                while ai < arrivals.len() && arrivals[ai].0 <= c {
                    if mc.can_accept(arrivals[ai].1.domain) {
                        mc.enqueue(arrivals[ai].1).unwrap();
                    }
                    ai += 1;
                }
                if mc.cand.dirty != 0 {
                    let cold = mc.next_event(c);
                    mc.settle_floors();
                    assert_eq!(cold, mc.scan_next_event(c), "{generation} at {c}");
                    checked += 1;
                }
                mc.tick_checked(c);
            }
            assert!(checked > 100, "{generation}: {checked} enqueues checked");
        }
    }

    /// Arrivals whose reference run holds a pending drain flip at a
    /// quiet tick: row-hit writes to rank 0 start a drain while reads to
    /// rank 1, one every `spacing` cycles across banks and rows, keep
    /// ACT, PRE and CAS candidates queued, so whenever both queues hold a
    /// legal candidate the drain mode decides which goes first. The
    /// reference looks for a tick `c - 1` whose write CAS leaves
    /// `drain_lo` writes while nothing could issue at `c`: only the drain
    /// flip makes the tick at `c` matter. Arrivals are cut there, and
    /// writes and reads arrive right after it, lifting the write count
    /// back between the watermarks, where the hysteresis keeps whatever
    /// mode the last full tick left. Returns the arrivals and `c`, or
    /// `None` if no such tick comes within 12,000 cycles.
    fn drain_flip_arrivals(
        generation: DeviceGeneration,
        spacing: u64,
    ) -> Option<(Vec<(u64, Transaction)>, u64)> {
        let bpr = generation.profile().geometry.banks_per_rank() as u64;
        let at = |rank: u8, bank: u64, row: u64, col: u64| Location {
            channel: ChannelId(0),
            rank: RankId(rank),
            bank: BankId((bank % bpr) as u8),
            row: RowId(row as u32),
            col: ColId(col as u16),
        };
        let write = |i: u64, c: u64| Transaction::write(TxnId(i), DomainId(0), at(0, 0, 0, i), c);
        let read = |i: u64, c: u64| {
            Transaction::read(TxnId(1 << 20 | i), DomainId(1), at(1, i + 1, i * 7 % 5, i), c)
        };
        let mut arrivals: Vec<(u64, Transaction)> = (0..44)
            .map(|i| (0, write(i, 0)))
            .chain((0..300).map(|i| (44 + 48 * i, write(44 + i, 44 + 48 * i))))
            .chain((0..12_000 / spacing).map(|i| (spacing * i, read(i, spacing * i))))
            .collect();
        arrivals.sort_by_key(|a| a.0);
        let mut mc = mk_on(generation, false);
        let (mut ai, mut c) = (0, 0u64);
        while c < 12_000 {
            while ai < arrivals.len() && arrivals[ai].0 <= c {
                let t = arrivals[ai].1;
                if mc.can_accept(t.domain) {
                    mc.enqueue(t).unwrap();
                }
                ai += 1;
            }
            mc.idle_until = 0;
            mc.tick(c);
            c += 1;
            let flips = mc.draining && mc.cand.queues[1].len() <= mc.drain_lo;
            if flips && mc.candidate_bound(c) > c && !mc.cand.queues[0].is_empty() {
                arrivals.truncate(ai);
                let after = (0..8).flat_map(|i| {
                    [(c + 1, write(1000 + i, c + 1)), (c + 1, read(1000 + i, c + 1))]
                });
                arrivals.extend(after);
                return Some((arrivals, c));
            }
        }
        None
    }

    #[test]
    fn drain_flip_survives_a_post_issue_elision() {
        // A drive that skipped the flipping tick at `c` keeps the old
        // drain mode and, at the first tick where both queues hold a
        // legal candidate, issues from the other one. Each part's read
        // spacing is one whose reference run reaches such a tick.
        use DeviceGeneration::*;
        for (generation, spacing) in
            [(Ddr3_1600, 16), (Ddr4_2400, 16), (Lpddr4_3200, 48), (Hbm2, 16)]
        {
            let (arrivals, c) = drain_flip_arrivals(generation, spacing)
                .unwrap_or_else(|| panic!("{generation}: no drain flip at a quiet tick"));
            let drives = [Drive::Dense, Drive::Hop];
            assert_drives_agree(generation, false, &arrivals, c + 2_000, &drives);
        }
    }

    #[test]
    fn quiesce_clears_pending_hits_on_the_banks_it_closes() {
        // A burst of row hits to one bank is still queued when the
        // pre-refresh quiesce starts; the precharge-all closes the bank
        // under them, so they must stop counting as hits (and become ACT
        // candidates again) — then all of them complete after the window.
        for generation in DeviceGeneration::all() {
            let mut mc = mk_on(generation, false);
            let onset = mc.refresh.next_blocked_cycle(1);
            let start = onset - 40;
            for i in 0..40u64 {
                let loc = Location {
                    channel: ChannelId(0),
                    rank: RankId(0),
                    bank: BankId(1),
                    row: RowId(5),
                    col: ColId(i as u16),
                };
                mc.enqueue(Transaction::read(TxnId(i), DomainId(0), loc, start)).unwrap();
            }
            let bank = 1u128 << 1; // rank 0, bank 1
            let mut done = 0;
            let mut closed_under_hits = false;
            for c in start..onset + generation.profile().timing.t_refi as u64 / 2 {
                let hits_before = mc.cand.hit_banks[0] & bank;
                done += mc.tick(c).len();
                mc.check_candidates();
                if hits_before != 0 && mc.cand.open & bank == 0 {
                    assert!(!mc.cand.queues[0].is_empty(), "{generation}");
                    closed_under_hits = true;
                }
            }
            assert!(closed_under_hits, "{generation}: the quiesce never closed a bank with hits");
            assert_eq!(done, 40, "{generation}");
        }
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
        let mut mc = mk_on(DeviceGeneration::Ddr3_1600, true);
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

    #[test]
    fn rejects_channels_wider_than_the_candidate_masks() {
        let t = TimingParams::ddr3_1600();
        let wide = Geometry::new(1, 16, 16, 32768, 128);
        let err = BaselineScheduler::try_new(wide, t, 8, false).unwrap_err();
        assert!(err.message.contains("16 ranks x 16 banks"), "{err}");
        assert!(BaselineScheduler::try_new(Geometry::new(1, 8, 16, 32768, 128), t, 8, true).is_ok());
    }

    /// One step of a random interleaving: enqueue transactions, or tick
    /// some cycles (densely, or hopping `next_event` bounds).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` transactions of one domain and direction to one row,
        /// `(domain, rank, bank, row, n, write)`; coordinates are taken
        /// modulo the geometry and rows are few, so hits and conflicts
        /// are both common.
        Burst(u8, u8, u8, u32, u16, bool),
        /// 16 sequential demand reads of `domain` (trains the prefetcher).
        Stream(u8),
        Tick(u64),
        Hop(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u8..8, 0u8..16, 0u32..3, 0u16..64, any::<bool>()).prop_map(
            |(k, rank, bank, row, n, write)| match k {
                0..=3 => Op::Burst(rank, rank, bank, row, 1 + n % 8, write),
                4..=6 => Op::Stream(rank % 2),
                7 | 8 => Op::Tick(1 + n as u64 * (1 + row as u64) * 4),
                _ => Op::Hop(1 + n as u8 % 8),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn incremental_candidates_equal_a_recompute(ops in prop::collection::vec(op(), 250..350)) {
            for generation in DeviceGeneration::all() {
                for prefetch in [false, true] {
                    let geom = generation.profile().geometry;
                    let mut mc = mk_on(generation, prefetch);
                    let (mut now, mut id, mut streamed) = (0u64, 0u64, [0u64; 2]);
                    for &op in &ops {
                        match op {
                            Op::Burst(domain, rank, bank, row, n, write) => {
                                for col in 0..n {
                                    let loc = Location {
                                        channel: ChannelId(0),
                                        rank: RankId(rank % geom.ranks_per_channel()),
                                        bank: BankId(bank % geom.banks_per_rank()),
                                        row: RowId(row),
                                        col: ColId(col),
                                    };
                                    let (d, id) = (DomainId(domain), TxnId(id + col as u64));
                                    let _ = mc.enqueue(if write {
                                        Transaction::write(id, d, loc, now)
                                    } else {
                                        Transaction::read(id, d, loc, now)
                                    });
                                    mc.check_candidates();
                                }
                            }
                            Op::Stream(domain) => {
                                for j in 0..16 {
                                    let local = streamed[domain as usize];
                                    streamed[domain as usize] += 1;
                                    let t = txn_on(&geom, id + j, domain, local, false);
                                    let _ = mc.enqueue(t);
                                    mc.check_candidates();
                                }
                            }
                            Op::Tick(n) => {
                                for _ in 0..n {
                                    mc.tick_checked(now);
                                    mc.check_candidates();
                                    mc.check_idle_bound(now);
                                    now += 1;
                                }
                            }
                            Op::Hop(n) => {
                                for _ in 0..n {
                                    mc.tick_checked(now);
                                    mc.check_candidates();
                                    mc.check_idle_bound(now);
                                    now = mc.next_event(now);
                                }
                            }
                        }
                        id += 16;
                    }
                }
            }
        }
    }
}
