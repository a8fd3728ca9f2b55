//! The Fixed Service (FS) memory controller — the paper's contribution.
//!
//! Every security domain is *shaped* to one memory transaction per
//! `Q = n * l` cycles (a dummy is inserted when the domain has nothing
//! pending), and the solved slot schedule guarantees the resulting
//! command stream is free of resource conflicts. A domain's observable
//! timing is therefore a function of its own requests only — the
//! executable form of the paper's non-interference proof, which the
//! `fsmc-security` crate verifies end to end.
//!
//! Design points, one [`SchedulerKind`] each: rank partitioning (l = 7,
//! optionally with sandbox prefetching into dummy slots), basic bank
//! partitioning (l = 15), reordered bank partitioning (Q = 63, reads
//! before writes, en-masse read release), naive no-partitioning (l = 43)
//! and triple alternation (l = 15 with rotating bank-group masks). The
//! pipeline table [`FsPipeline::for_kind`] solves each one, and
//! [`FsPipeline::certify`] certifies it; [`FsScheduler::try_new`] is the
//! one constructor. Energy optimisations 1–3: suppressed dummies,
//! row-hit energy boosting and rank power-down.

use crate::domain::{DomainId, PartitionPolicy};
use crate::error::{ConfigError, CoreError};
use crate::prefetch::SandboxPrefetcher;
use crate::queues::{QueueFull, TransactionQueue};
use crate::refresh::RefreshManager;
use crate::sched::{
    CadenceSpec, CmdFaultSpec, Completion, McStats, MemoryController, ReconfigEvent, SchedEvent,
    SchedulerKind, SlotGrantKind,
};
use crate::solver::{
    certify_reordered, certify_uniform, conservative_pipeline, solve, solve_for_threads, Anchor,
    CertifyReport, PartitionLevel, PipelineSolution, ReorderedBpSchedule, ScheduleVariant,
    SlotSchedule, SolveError,
};
use crate::txn::{Transaction, TxnId, TxnKind};
use fsmc_dram::checker::Violation;
use fsmc_dram::command::Command;
use fsmc_dram::geometry::{BankId, Geometry, LineAddr, Location, RankId, RowId};
use fsmc_dram::{Cycle, DramDevice, TimingParams};
use std::collections::HashMap;

/// A solved FS pipeline: the slot schedule every design point but
/// reordered bank partitioning runs (and the conservative fallback), or
/// reordered BP's interval schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsPipeline {
    Slots(SlotSchedule),
    Reordered(ReorderedBpSchedule),
}

impl FsPipeline {
    /// The FS pipeline table: the pipeline design point `kind` runs with
    /// `slots` issue slots per interval, solved from Eq. 1–4 for `t`.
    /// Controller construction, re-certification, `certify_all` and
    /// `fsmc certify` all read their pipelines from here.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when `kind` is not a single-channel FS
    /// design point, [`CoreError::Solve`] when it admits no pipeline
    /// for `t`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn for_kind(kind: SchedulerKind, t: &TimingParams, slots: u8) -> Result<Self, CoreError> {
        let uniform = |sol| FsPipeline::Slots(SlotSchedule::uniform(sol, slots));
        let ras = |level| solve_for_threads(t, Anchor::FixedPeriodicRas, level, slots);
        Ok(match kind {
            // The pitch stays at the idealised l = 7 for *any* thread
            // count; same-rank hazards at low thread counts (the Section 7
            // phenomenon) are handled dynamically by the rank-hazard
            // tracker: the scheduler picks a different transaction or
            // inserts a bubble, based only on the domain's own history.
            SchedulerKind::FsRankPartitioned | SchedulerKind::FsRankPartitionedPrefetch => {
                uniform(solve(t, Anchor::FixedPeriodicData, PartitionLevel::Rank)?)
            }
            SchedulerKind::FsBankPartitioned => uniform(ras(PartitionLevel::Bank)?),
            SchedulerKind::FsNoPartitionNaive => uniform(ras(PartitionLevel::None)?),
            SchedulerKind::FsTripleAlternation => {
                FsPipeline::Slots(SlotSchedule::triple_alternation(t, slots)?)
            }
            SchedulerKind::FsReorderedBankPartitioned => {
                FsPipeline::Reordered(ReorderedBpSchedule::new(t, slots))
            }
            other => {
                let msg = format!("{other} is not a single-channel FS design point");
                return Err(ConfigError::new(msg).into());
            }
        })
    }

    /// The conservative fallback every design point degrades onto: at
    /// construction when its own pipeline does not solve, and after a
    /// runtime timing violation.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when not even the conservative pipeline solves.
    pub fn conservative(t: &TimingParams, slots: u8) -> Result<SlotSchedule, SolveError> {
        Ok(SlotSchedule::uniform(conservative_pipeline(t, slots)?, slots))
    }

    /// Certifies the pipeline conflict-free on `geom`, pairwise over
    /// every slot pair and direction mix: uniform schedules at their
    /// solution's partition level over four intervals, triple
    /// alternation and reordered BP over three.
    pub fn certify(&self, t: &TimingParams, geom: &Geometry) -> CertifyReport {
        match self {
            FsPipeline::Slots(s) => {
                let span = match s.variant() {
                    ScheduleVariant::Uniform => 4,
                    ScheduleVariant::TripleAlternation => 3,
                };
                certify_uniform(s, s.solution().level, t, geom, span)
            }
            FsPipeline::Reordered(r) => certify_reordered(r, t, geom, 3),
        }
    }

    /// The per-domain guaranteed service interval Q in DRAM cycles.
    pub fn q(&self) -> u64 {
        match self {
            FsPipeline::Slots(s) => s.q(),
            FsPipeline::Reordered(r) => r.q(),
        }
    }

    /// The decision cycle of slot (or reordered-BP interval) `k`.
    fn decision_cycle(&self, k: u64) -> Cycle {
        match self {
            FsPipeline::Slots(s) => s.plan(k).decision_cycle,
            FsPipeline::Reordered(r) => r.decision_cycle(k),
        }
    }
}

/// The energy optimisations of Section 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyOptions {
    /// Optimisation 1: dummy operations update timing state but do not
    /// spend DRAM array/bus energy.
    pub suppress_dummies: bool,
    /// Optimisation 2: skip activate/precharge energy when the slot's row
    /// matches the previous access to that bank.
    pub row_hit_boost: bool,
    /// Optimisation 3: power a rank down instead of issuing a dummy
    /// (rank-partitioned only).
    pub power_down: bool,
}

impl EnergyOptions {
    /// All three optimisations enabled.
    pub fn all() -> Self {
        EnergyOptions { suppress_dummies: true, row_hit_boost: true, power_down: true }
    }
}

/// Tracks *committed* (possibly not yet issued) activates and column
/// commands per rank, so slot decisions can detect same-rank timing
/// hazards that the solved pitch does not cover — the Section 7
/// phenomenon at low thread counts, where a thread revisits its own rank
/// sooner than the worst-case turnarounds allow.
///
/// Under rank partitioning a rank is touched by exactly one domain, so
/// consulting this tracker depends only on that domain's own history:
/// rejecting a slot (different transaction, or a bubble) leaks nothing.
#[derive(Debug, Clone)]
struct RankHazardTracker {
    /// Last four committed activate cycles per rank, oldest first.
    acts: Vec<Vec<Cycle>>,
    /// Last committed CAS per rank: (cycle, is_write).
    last_cas: Vec<Option<(Cycle, bool)>>,
}

impl RankHazardTracker {
    fn new(ranks: usize) -> Self {
        RankHazardTracker { acts: vec![Vec::new(); ranks], last_cas: vec![None; ranks] }
    }

    /// Would an activate at `act` violate tRRD/tFAW against committed
    /// activates to this rank?
    fn act_ok(&self, rank: RankId, act: Cycle, t: &TimingParams) -> bool {
        let acts = &self.acts[rank.0 as usize];
        if let Some(&last) = acts.last() {
            if act < last + t.t_rrd as Cycle {
                return false;
            }
        }
        if acts.len() == 4 && act < acts[0] + t.t_faw as Cycle {
            return false;
        }
        true
    }

    /// Would a CAS at `cas` violate tCCD or a read/write turnaround
    /// against the last committed CAS to this rank?
    ///
    /// Same-type spacing uses the conservative tCCD_L (equal to tCCD_S
    /// on parts without bank groups): the solver guarantees tCCD_L at
    /// every same-rank slot distance, and admitting a slot based on the
    /// *bank group* a previous domain happened to hit would make one
    /// domain's admission observable to another — exactly the leak FS
    /// exists to prevent.
    fn cas_ok(&self, rank: RankId, cas: Cycle, is_write: bool, t: &TimingParams) -> bool {
        match self.last_cas[rank.0 as usize] {
            None => true,
            Some((prev, prev_write)) => {
                let gap = match (prev_write, is_write) {
                    (false, false) | (true, true) => t.t_ccd_l,
                    (false, true) => t.rd_to_wr_same_rank(),
                    (true, false) => t.wr_to_rd_same_rank(),
                };
                cas >= prev + gap as Cycle
            }
        }
    }

    fn commit(&mut self, rank: RankId, act: Cycle, cas: Cycle, is_write: bool) {
        let acts = &mut self.acts[rank.0 as usize];
        if acts.len() == 4 {
            acts.remove(0);
        }
        acts.push(act);
        self.last_cas[rank.0 as usize] = Some((cas, is_write));
    }
}

/// A command scheduled for a future cycle.
#[derive(Debug, Clone, Copy)]
struct CmdEvent {
    cycle: Cycle,
    cmd: Command,
    suppressed: bool,
    /// Completion to emit once the command issues (reads only).
    completion: Option<Completion>,
}

/// The Fixed Service scheduler for one channel.
///
/// ```
/// use fsmc_core::domain::{DomainId, PartitionPolicy};
/// use fsmc_core::sched::fs::{EnergyOptions, FsScheduler};
/// use fsmc_core::sched::{MemoryController, SchedulerKind};
/// use fsmc_core::txn::{Transaction, TxnId};
/// use fsmc_dram::geometry::LineAddr;
/// use fsmc_dram::{Geometry, TimingParams};
///
/// let geom = Geometry::paper_default();
/// let mut mc = FsScheduler::try_new(
///     geom,
///     TimingParams::ddr3_1600(),
///     &[1; 8], // eight equally served domains
///     SchedulerKind::FsRankPartitioned,
///     EnergyOptions::default(),
/// )
/// .unwrap();
/// assert_eq!(mc.interval_q(), 56); // one slot per domain every Q cycles
/// let loc = PartitionPolicy::Rank.map(&geom, DomainId(0), LineAddr(42));
/// mc.enqueue(Transaction::read(TxnId(1), DomainId(0), loc, 0)).unwrap();
/// let mut done = Vec::new();
/// for cycle in 0..120 {
///     done.extend(mc.tick(cycle));
/// }
/// assert_eq!(done.len(), 1, "the read is served in its domain's slot");
/// ```
#[derive(Debug)]
pub struct FsScheduler {
    device: DramDevice,
    t: TimingParams,
    refresh: RefreshManager,
    stats: McStats,
    kind: SchedulerKind,
    queues: Vec<TransactionQueue>,
    prefetchers: Option<Vec<SandboxPrefetcher>>,
    energy: EnergyOptions,
    pipeline: FsPipeline,
    /// The next slot (reordered BP: interval) to decide.
    next: u64,
    events: Vec<CmdEvent>,
    dummy_rotor: Vec<u64>,
    last_row: HashMap<(RankId, BankId), RowId>,
    rank_powered_down: Vec<bool>,
    hazards: RankHazardTracker,
    /// Slot ownership pattern (length = total SLA slots per interval).
    slot_pattern: Vec<DomainId>,
    /// Free command-bus phases (mod `l`) usable for power-down commands.
    free_phases: Vec<u64>,
    next_synth_id: u64,
    domains: u8,
    /// Running on the conservative fallback pipeline (after a runtime
    /// timing violation, or because the requested variant did not solve).
    degraded: bool,
    /// Set when degradation itself failed: the controller is poisoned and
    /// issues nothing further. Surfaced via [`MemoryController::fault`].
    fault: Option<Violation>,
    /// Deterministic command-fault injector, if armed.
    cmd_faults: Option<CmdFaultTracker>,
    /// Scheduler-level observability events (slot grants, degradations),
    /// recorded only while the device's command tap is armed.
    obs_events: Vec<SchedEvent>,
    /// Configuration epoch: 0 until the first adopted reconfiguration.
    epoch: u64,
    /// Banks masked out by [`ReconfigEvent::StuckBank`]: never a dummy
    /// target; demand aimed at one is remapped onto the next healthy
    /// bank the same domain owns.
    stuck_banks: Vec<(RankId, BankId)>,
    /// Ranks masked out by [`ReconfigEvent::DeadRank`]: no dummy, demand
    /// or power-down may target them, so their slots become bubbles.
    dead_ranks: Vec<bool>,
}

/// What the fault injector decides for one committed transaction.
enum CmdFault {
    None,
    Drop,
    Delay(u64),
}

/// Deterministic per-transaction fault schedule driven by [`CmdFaultSpec`].
#[derive(Debug, Clone, Copy, Default)]
struct CmdFaultTracker {
    spec: CmdFaultSpec,
    committed: u64,
    injected: u64,
}

impl CmdFaultTracker {
    fn next(&mut self) -> CmdFault {
        self.committed += 1;
        if self.spec.max_faults > 0 && self.injected >= self.spec.max_faults {
            return CmdFault::None;
        }
        if self.spec.drop_period > 0 && self.committed.is_multiple_of(self.spec.drop_period) {
            self.injected += 1;
            return CmdFault::Drop;
        }
        if self.spec.delay_period > 0 && self.committed.is_multiple_of(self.spec.delay_period) {
            self.injected += 1;
            return CmdFault::Delay(self.spec.delay_cycles);
        }
        CmdFault::None
    }
}

impl FsScheduler {
    /// Creates an FS controller for design point `kind` with a
    /// per-domain SLA: domain *d* receives `weights[d]` issue slots per
    /// interval (Section 5.1 — "each transaction queue receives a fixed
    /// level of service, as determined by the OS and a service-level
    /// agreement"); `&[1; n]` serves `n` domains equally. Slots are
    /// spread through the interval with a smooth weighted round-robin so
    /// a multi-slot domain's accesses are maximally separated. The slot
    /// *pattern* is fixed at construction by the SLA alone, so weighted
    /// service leaks nothing: every slot still carries exactly one
    /// (possibly dummy) transaction.
    ///
    /// `kind` also selects the sandbox prefetcher in dummy slots
    /// (`FS_RP-Prefetch`); `energy` selects the Section 5.2
    /// optimisations. If the kind's pipeline
    /// ([`FsPipeline::for_kind`]) does not solve, the controller starts
    /// degraded on the conservative fallback (recorded in
    /// [`McStats::solver_fallbacks`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for an empty SLA, a zero weight, more than
    /// 255 slots, unequal weights under reordered bank partitioning, or
    /// a `kind` that is not a single-channel FS design point;
    /// [`CoreError::Solve`] when no pipeline (including the fallback)
    /// solves.
    pub fn try_new(
        geom: Geometry,
        t: TimingParams,
        weights: &[u8],
        kind: SchedulerKind,
        energy: EnergyOptions,
    ) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(ConfigError::new("domains must be non-zero").into());
        }
        if weights.contains(&0) {
            return Err(ConfigError::new("every domain needs at least one slot").into());
        }
        let total_slots: u16 = weights.iter().map(|&w| w as u16).sum();
        if total_slots > 255 {
            return Err(ConfigError::new("slot pattern too long (more than 255 slots)").into());
        }
        if kind == SchedulerKind::FsReorderedBankPartitioned && weights.iter().any(|&w| w != 1) {
            let msg = "reordered bank partitioning supports equal service only";
            return Err(ConfigError::new(msg).into());
        }
        let total_slots = total_slots as u8;
        let (pipeline, fell_back) = match FsPipeline::for_kind(kind, &t, total_slots) {
            Ok(p) => (p, false),
            Err(CoreError::Solve(_)) => {
                (FsPipeline::Slots(FsPipeline::conservative(&t, total_slots)?), true)
            }
            Err(e) => return Err(e),
        };
        let free_phases = match &pipeline {
            FsPipeline::Slots(s) => Self::compute_free_phases(s),
            FsPipeline::Reordered(_) => Vec::new(),
        };
        let domains = weights.len() as u8;
        let mut stats = McStats::new(domains as usize);
        if fell_back {
            stats.solver_fallbacks += 1;
            stats.degraded = true;
        }
        let ranks = geom.ranks_per_channel() as usize;
        let prefetch = kind == SchedulerKind::FsRankPartitionedPrefetch;
        Ok(FsScheduler {
            device: DramDevice::new(geom, t),
            t,
            refresh: RefreshManager::new(&t, geom.ranks_per_channel()),
            stats,
            kind,
            queues: (0..domains).map(|d| TransactionQueue::new(DomainId(d), 16)).collect(),
            prefetchers: prefetch.then(|| (0..domains).map(|_| SandboxPrefetcher::new()).collect()),
            energy,
            pipeline,
            next: 0,
            events: Vec::new(),
            dummy_rotor: vec![0; domains as usize],
            last_row: HashMap::new(),
            rank_powered_down: vec![false; ranks],
            hazards: RankHazardTracker::new(ranks),
            slot_pattern: smooth_weighted_round_robin(weights),
            free_phases,
            next_synth_id: 1 << 61,
            domains,
            degraded: fell_back,
            fault: None,
            cmd_faults: None,
            obs_events: Vec::new(),
            epoch: 0,
            stuck_banks: Vec::new(),
            dead_ranks: vec![false; ranks],
        })
    }

    /// Creates an FS controller around a caller-supplied pipeline
    /// solution — the ablation hook for comparing anchor disciplines or
    /// custom pitches under the same scheduler machinery. The controller
    /// is built by [`FsScheduler::try_new`] for `domains` equally served
    /// domains of `kind`, whose pipeline `solution` then replaces. A
    /// solution that breaks a Table-1 rule for `kind`'s partition is
    /// caught at command issue and degrades the controller onto the
    /// conservative pipeline, like any other runtime violation.
    ///
    /// # Errors
    ///
    /// As [`FsScheduler::try_new`].
    pub fn with_pipeline(
        geom: Geometry,
        t: TimingParams,
        domains: u8,
        kind: SchedulerKind,
        solution: PipelineSolution,
        energy: EnergyOptions,
    ) -> Result<Self, CoreError> {
        let mut mc = FsScheduler::try_new(geom, t, &vec![1; domains as usize], kind, energy)?;
        let schedule = SlotSchedule::uniform(solution, domains);
        mc.free_phases = Self::compute_free_phases(&schedule);
        mc.pipeline = FsPipeline::Slots(schedule);
        Ok(mc)
    }

    /// The pipeline this controller runs, for inspection/diagrams.
    pub fn pipeline(&self) -> &FsPipeline {
        &self.pipeline
    }

    /// The per-thread guaranteed service interval Q in DRAM cycles.
    pub fn interval_q(&self) -> u64 {
        self.pipeline.q()
    }

    fn compute_free_phases(s: &SlotSchedule) -> Vec<u64> {
        let l = s.slot_pitch() as u64;
        let p0 = s.plan(0);
        let occupied: Vec<u64> =
            [p0.read_act, p0.read_cas, p0.write_act, p0.write_cas].iter().map(|c| c % l).collect();
        (0..l).filter(|ph| !occupied.contains(ph)).collect()
    }

    fn fresh_synth_id(&mut self) -> TxnId {
        let id = TxnId(self.next_synth_id);
        self.next_synth_id += 1;
        id
    }

    /// A dummy read inside `domain`'s partition, to a bank that is ready
    /// for an activate at `act_cycle` (and in `class` if given). Returns
    /// `None` when no bank is ready — the slot becomes a bubble.
    fn make_dummy(
        &mut self,
        domain: DomainId,
        act_cycle: Cycle,
        class: Option<u8>,
        now: Cycle,
    ) -> Option<Transaction> {
        let geom = *self.device.geometry();
        let banks = self.kind.partition_policy().banks_of(&geom, domain);
        let n = banks.len() as u64;
        let start = self.dummy_rotor[domain.0 as usize];
        for i in 0..n {
            let (rank, bank) = banks[((start + i) % n) as usize];
            if self.dead_ranks[rank.0 as usize] || self.stuck_banks.contains(&(rank, bank)) {
                continue;
            }
            if let Some(c) = class {
                if bank.0 % 3 != c {
                    continue;
                }
            }
            if !self.device.rank_bank_ready(rank, bank, act_cycle) {
                continue;
            }
            if !self.hazards.act_ok(rank, act_cycle, &self.t)
                || !self.hazards.cas_ok(rank, act_cycle + self.t.t_rcd as Cycle, false, &self.t)
            {
                continue;
            }
            self.dummy_rotor[domain.0 as usize] = start + i + 1;
            // Rotate rows so dummies do not accidentally enjoy row hits.
            let row = RowId((start as u32).wrapping_mul(2654435761) % geom.rows_per_bank());
            let loc =
                Location { channel: Default::default(), rank, bank, row, col: Default::default() };
            return Some(Transaction {
                id: self.fresh_synth_id(),
                domain,
                loc,
                local_addr: LineAddr(0),
                is_write: false,
                arrival: now,
                kind: TxnKind::Dummy,
            });
        }
        None
    }

    /// A prefetch transaction for `domain` if the prefetcher has a ready,
    /// bank-eligible target.
    fn make_prefetch(
        &mut self,
        domain: DomainId,
        act_cycle: Cycle,
        class: Option<u8>,
        now: Cycle,
    ) -> Option<Transaction> {
        let geom = *self.device.geometry();
        let local = {
            let p = self.prefetchers.as_mut()?.get_mut(domain.0 as usize)?;
            if !p.has_prefetch() {
                return None;
            }
            p.next_prefetch()?
        };
        let loc =
            self.remap_unhealthy(domain, self.kind.partition_policy().map(&geom, domain, local));
        if self.dead_ranks[loc.rank.0 as usize] {
            return None;
        }
        if let Some(c) = class {
            if loc.bank.0 % 3 != c {
                return None;
            }
        }
        if !self.device.rank_bank_ready(loc.rank, loc.bank, act_cycle)
            || !self.hazards.act_ok(loc.rank, act_cycle, &self.t)
            || !self.hazards.cas_ok(loc.rank, act_cycle + self.t.t_rcd as Cycle, false, &self.t)
        {
            return None;
        }
        Some(Transaction {
            id: self.fresh_synth_id(),
            domain,
            loc,
            local_addr: local,
            is_write: false,
            arrival: now,
            kind: TxnKind::Prefetch,
        })
    }

    /// Schedules the ACT/CAS events for `txn` in a uniform-slot plan.
    fn commit_uniform(&mut self, txn: Transaction, plan: &crate::solver::SlotPlan) {
        let (act_cycle, cas_cycle, data_cycle) = if txn.is_write {
            (plan.write_act, plan.write_cas, plan.write_data)
        } else {
            (plan.read_act, plan.read_cas, plan.read_data)
        };
        self.commit_commands(txn, act_cycle, cas_cycle, data_cycle, None);
    }

    /// Schedules ACT + CAS-with-auto-precharge, tagging the read
    /// completion (released at `release_override` if given — the
    /// reordered-BP en-masse rule).
    fn commit_commands(
        &mut self,
        txn: Transaction,
        act_cycle: Cycle,
        cas_cycle: Cycle,
        data_cycle: Cycle,
        release_override: Option<Cycle>,
    ) {
        let (mut act_cycle, mut cas_cycle) = (act_cycle, cas_cycle);
        if let Some(inj) = &mut self.cmd_faults {
            match inj.next() {
                CmdFault::None => {}
                CmdFault::Drop => {
                    // The commands never reach the command bus: a demand
                    // transaction's completion is silently lost, which the
                    // simulation watchdog is expected to catch.
                    self.stats.injected_faults += 1;
                    if txn.kind == TxnKind::Demand {
                        self.stats.dropped_txns += 1;
                    }
                    return;
                }
                CmdFault::Delay(d) => {
                    // Late silicon: both commands slip by `d` cycles, so
                    // they land outside the certified pipeline phases.
                    self.stats.injected_faults += 1;
                    act_cycle += d;
                    cas_cycle += d;
                }
            }
        }
        let suppressed = self.energy.suppress_dummies && txn.kind == TxnKind::Dummy;
        if self.energy.row_hit_boost {
            let key = (txn.loc.rank, txn.loc.bank);
            if self.last_row.get(&key) == Some(&txn.loc.row) {
                self.stats.boosted_row_hits += 1;
            }
            self.last_row.insert(key, txn.loc.row);
        }
        let act = Command::activate(txn.loc.rank, txn.loc.bank, txn.loc.row);
        self.events.push(CmdEvent { cycle: act_cycle, cmd: act, suppressed, completion: None });
        let cas = if txn.is_write {
            Command::write_ap(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
        } else {
            Command::read_ap(txn.loc.rank, txn.loc.bank, txn.loc.row, txn.loc.col)
        };
        let completion = (txn.kind != TxnKind::Dummy).then(|| {
            let data_done = data_cycle + self.t.t_burst as Cycle;
            // Reads may be held for en-masse release (reordered BP);
            // write completions are producer bookkeeping only.
            let finish =
                if txn.is_write { data_done } else { release_override.unwrap_or(data_done) };
            Completion { txn, finish }
        });
        self.events.push(CmdEvent { cycle: cas_cycle, cmd: cas, suppressed, completion });
        self.hazards.commit(txn.loc.rank, act_cycle, cas_cycle, txn.is_write);
        match txn.kind {
            TxnKind::Dummy => self.stats.domain_mut(txn.domain).dummies += 1,
            TxnKind::Prefetch => self.stats.domain_mut(txn.domain).prefetches += 1,
            TxnKind::Demand => {}
        }
    }

    /// Picks the transaction for a slot: demand first (oldest eligible),
    /// then prefetch, then power-down (if enabled), then dummy.
    /// Returns `true` if the slot issued anything but a bubble.
    fn fill_slot(&mut self, plan: crate::solver::SlotPlan, now: Cycle) -> bool {
        let domain = plan.domain;
        let class = plan.bank_class;
        // Demand pick: oldest queued transaction whose bank is ready at
        // its direction's ACT cycle and matches the class mask. Bank
        // readiness depends only on this domain's own past accesses (and
        // class-mates under triple alternation, whose schedule is fixed),
        // so the choice leaks nothing about other domains.
        let device = &self.device;
        let hazards = &self.hazards;
        let timing = self.t;
        let (read_act, write_act) = (plan.read_act, plan.write_act);
        let (read_cas, write_cas) = (plan.read_cas, plan.write_cas);
        let picked = self.queues[domain.0 as usize].take_first(|t| {
            let (act_cycle, cas_cycle) =
                if t.is_write { (write_act, write_cas) } else { (read_act, read_cas) };
            if let Some(c) = class {
                if t.loc.bank.0 % 3 != c {
                    return false;
                }
            }
            device.rank_bank_ready(t.loc.rank, t.loc.bank, act_cycle)
                && hazards.act_ok(t.loc.rank, act_cycle, &timing)
                && hazards.cas_ok(t.loc.rank, cas_cycle, t.is_write, &timing)
        });
        if let Some(txn) = picked {
            self.commit_uniform(txn, &plan);
            self.note_slot(now, plan.slot, domain, SlotGrantKind::Demand);
            return true;
        }
        if let Some(pf) = self.make_prefetch(domain, plan.read_act, class, now) {
            self.commit_uniform(pf, &plan);
            self.note_slot(now, plan.slot, domain, SlotGrantKind::Prefetch);
            return true;
        }
        if self.energy.power_down
            && self.kind.partition_policy() == PartitionPolicy::Rank
            && self.try_power_down(domain, &plan, now)
        {
            self.note_slot(now, plan.slot, domain, SlotGrantKind::PowerDown);
            return true;
        }
        if let Some(dummy) = self.make_dummy(domain, plan.read_act, class, now) {
            self.commit_uniform(dummy, &plan);
            self.note_slot(now, plan.slot, domain, SlotGrantKind::Dummy);
            return true;
        }
        self.stats.bubbles += 1;
        self.note_slot(now, plan.slot, domain, SlotGrantKind::Bubble);
        false
    }

    /// Records a scheduler event while the command tap is armed.
    fn note(&mut self, ev: SchedEvent) {
        if self.device.is_recording() {
            self.obs_events.push(ev);
        }
    }

    fn note_slot(&mut self, cycle: Cycle, slot: u64, domain: DomainId, kind: SlotGrantKind) {
        self.note(SchedEvent::SlotGrant { cycle, slot, domain, kind });
    }

    /// Energy optimisation 3: if the domain's rank is idle for the whole
    /// interval, power it down now and wake it just in time for the
    /// domain's next slot. Commands are placed on command-bus phases the
    /// slot schedule provably never uses.
    fn try_power_down(
        &mut self,
        domain: DomainId,
        plan: &crate::solver::SlotPlan,
        now: Cycle,
    ) -> bool {
        let FsPipeline::Slots(schedule) = self.pipeline else { return false };
        if self.free_phases.len() < 2 {
            return false;
        }
        let geom = *self.device.geometry();
        let rank = RankId(domain.0 % geom.ranks_per_channel());
        if self.rank_powered_down[rank.0 as usize] || self.dead_ranks[rank.0 as usize] {
            return false;
        }
        if !self.device.rank_idle(rank, plan.read_act) {
            return false;
        }
        // The domain's next slot under the SLA pattern (a full interval
        // when it has a single slot).
        let len = self.slot_pattern.len() as u64;
        let pos = plan.slot % len;
        let gap_slots = (1..=len)
            .find(|d| self.slot_pattern[((pos + d) % len) as usize] == domain)
            .unwrap_or(len);
        let next_decision = plan.decision_cycle + gap_slots * schedule.slot_pitch() as u64;
        // Never straddle a refresh window with a powered-down rank.
        if let Some((wstart, _)) = self.refresh.next_window(now) {
            if next_decision + self.t.t_xp as Cycle >= wstart {
                return false;
            }
        }
        let l = schedule.slot_pitch() as u64;
        let pde_phase = self.free_phases[0];
        let pdx_phase = self.free_phases[1];
        let pde_cycle = next_multiple_with_phase(plan.read_act.max(now + 1), pde_phase, l);
        let wake_deadline = next_decision.saturating_sub(self.t.t_xp as Cycle);
        let pdx_cycle = prev_multiple_with_phase(wake_deadline, pdx_phase, l);
        if pdx_cycle <= pde_cycle {
            return false;
        }
        self.events.push(CmdEvent {
            cycle: pde_cycle,
            cmd: Command::power_down(rank),
            suppressed: false,
            completion: None,
        });
        self.events.push(CmdEvent {
            cycle: pdx_cycle,
            cmd: Command::power_up(rank),
            suppressed: false,
            completion: None,
        });
        self.rank_powered_down[rank.0 as usize] = true;
        self.stats.power_downs += 1;
        // Shaping note: the power-down pair replaces the dummy; it is
        // still a fixed function of this domain's own queue emptiness.
        self.stats.domain_mut(domain).dummies += 1;
        true
    }

    /// Reordered-BP interval commit: snapshot one transaction (or dummy)
    /// per domain, order reads before writes, release read data en masse.
    fn fill_interval(&mut self, r: ReorderedBpSchedule, k: u64, now: Cycle) {
        let ready_by = {
            let (act0, _, _) = r.slot_times(k, 0, false);
            act0
        };
        let mut chosen: Vec<Transaction> = Vec::with_capacity(self.domains as usize);
        for d in 0..self.domains {
            let domain = DomainId(d);
            let device = &self.device;
            let picked = self.queues[d as usize]
                .take_first(|t| device.rank_bank_ready(t.loc.rank, t.loc.bank, ready_by));
            let txn = match picked {
                Some(t) => {
                    self.note_slot(now, k, domain, SlotGrantKind::Demand);
                    t
                }
                None => match self.make_dummy(domain, ready_by, None, now) {
                    Some(dummy) => {
                        self.note_slot(now, k, domain, SlotGrantKind::Dummy);
                        dummy
                    }
                    None => {
                        self.stats.bubbles += 1;
                        self.note_slot(now, k, domain, SlotGrantKind::Bubble);
                        continue;
                    }
                },
            };
            chosen.push(txn);
        }
        // Reads first (domain order), then writes (domain order).
        let release = r.release_cycle(k);
        let mut slot = 0u8;
        for &txn in chosen.iter().filter(|t| !t.is_write) {
            let (act, cas, data) = r.slot_times(k, slot, false);
            self.commit_commands(txn, act, cas, data, Some(release));
            slot += 1;
        }
        for &txn in chosen.iter().filter(|t| t.is_write) {
            let (act, cas, data) = r.slot_times(k, slot, true);
            self.commit_commands(txn, act, cas, data, None);
            slot += 1;
        }
    }

    /// Issues every event due at `now`; returns completions.
    fn pump_events(&mut self, now: Cycle, completions: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.events.len() {
            if self.events[i].cycle != now {
                i += 1;
                continue;
            }
            let ev = self.events.remove(i);
            let result = match ev.cmd.kind {
                fsmc_dram::CommandKind::PowerDownExit => {
                    let r = self.device.issue(&ev.cmd, now);
                    if r.is_ok() {
                        self.rank_powered_down[ev.cmd.rank.0 as usize] = false;
                    }
                    r
                }
                _ if ev.suppressed => self.device.issue_suppressed(&ev.cmd, now),
                _ => self.device.issue(&ev.cmd, now),
            };
            match result {
                Ok(_) => {}
                Err(v) => {
                    // The schedule produced an illegal command — pipeline
                    // math violated (faulty silicon, injected fault, or a
                    // mis-certified custom pipeline). Degrade instead of
                    // panicking; a second violation poisons the controller.
                    // The event goes back first so its transaction is
                    // requeued along with the rest of the in-flight work.
                    self.events.push(ev);
                    self.on_violation(now, v);
                    return;
                }
            }
            if let Some(c) = ev.completion {
                if c.txn.kind == TxnKind::Demand {
                    let ds = self.stats.domain_mut(c.txn.domain);
                    ds.read_latency_sum += c.finish.saturating_sub(c.txn.arrival);
                    ds.reads_completed += 1;
                }
                completions.push(c);
            }
        }
    }

    /// Handles a runtime timing violation. The first one triggers
    /// graceful degradation onto the conservative pipeline; a second one
    /// (or a failed degradation) poisons the controller: `fault()` then
    /// reports the violation and `tick` issues nothing further.
    fn on_violation(&mut self, now: Cycle, v: Violation) {
        self.stats.timing_faults += 1;
        if self.degraded || !self.enter_degraded(now) {
            self.fault = Some(v);
            self.events.clear();
        }
    }

    /// Switches to the conservative fallback pipeline: in-flight demand
    /// transactions are requeued, powered-down ranks get wake-up commands,
    /// and slot issue resumes on the wide pitch after a quiesce margin
    /// that clears every in-flight bank/bus state. Returns `false` when
    /// even the conservative pipeline cannot be solved.
    fn enter_degraded(&mut self, now: Cycle) -> bool {
        let Ok(schedule) = FsPipeline::conservative(&self.t, self.slot_pattern.len() as u8) else {
            return false;
        };
        self.degraded = true;
        self.stats.degraded = true;
        self.stats.solver_fallbacks += 1;
        self.note(SchedEvent::Degraded { cycle: now });
        // Requeue in-flight demand transactions so their completions are
        // not silently lost; anything that no longer fits is dropped.
        let events = std::mem::take(&mut self.events);
        for ev in events {
            if let Some(c) = ev.completion {
                if c.txn.kind == TxnKind::Demand
                    && self.queues[c.txn.domain.0 as usize].push(c.txn).is_err()
                {
                    self.stats.dropped_txns += 1;
                }
            }
        }
        // Quiesce margin: long enough for any in-flight refresh, bank
        // cycle or turnaround to drain before the new pipeline starts.
        let margin = (self.t.t_rfc + self.t.t_rc + 64) as Cycle;
        let ranks = self.device.geometry().ranks_per_channel();
        for r in 0..ranks {
            if self.rank_powered_down[r as usize] {
                self.events.push(CmdEvent {
                    cycle: now + margin + r as Cycle,
                    cmd: Command::power_up(RankId(r)),
                    suppressed: false,
                    completion: None,
                });
            }
        }
        // A violation can orphan an open row (its ACT issued, its CAS was
        // rejected, so nothing auto-precharges): close every bank before
        // the new pipeline (and the next refresh window) runs.
        let prea_at = now + margin + (ranks as Cycle) + self.t.t_xp as Cycle;
        for r in 0..ranks {
            self.events.push(CmdEvent {
                cycle: prea_at + r as Cycle,
                cmd: Command::precharge_all(RankId(r)),
                suppressed: false,
                completion: None,
            });
        }
        self.next = schedule.first_slot_from(prea_at + ranks as Cycle + self.t.t_rp as Cycle);
        self.free_phases = Self::compute_free_phases(&schedule);
        self.pipeline = FsPipeline::Slots(schedule);
        // Power-down interacts with slot phases solved for the old pitch;
        // keep degraded mode simple and certified.
        self.energy.power_down = false;
        true
    }

    /// Whether the controller is running on the conservative fallback
    /// pipeline (either from construction or after a runtime violation).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Redirects a demand location off masked silicon: a stuck bank maps
    /// onto the next healthy bank in the owning domain's bank list
    /// (same-rank under rank partitioning, same bank index of another
    /// rank under bank striping — ownership is preserved either way).
    /// A location on healthy silicon is returned unchanged, and if every
    /// owned bank is masked the original stands (service over silence:
    /// the slot timing is identical either way).
    fn remap_unhealthy(&self, domain: DomainId, loc: Location) -> Location {
        if self.stuck_banks.is_empty() || !self.stuck_banks.contains(&(loc.rank, loc.bank)) {
            return loc;
        }
        let geom = *self.device.geometry();
        let banks = self.kind.partition_policy().banks_of(&geom, domain);
        let Some(pos) = banks.iter().position(|&(r, b)| r == loc.rank && b == loc.bank) else {
            return loc;
        };
        let n = banks.len();
        for i in 1..n {
            let (rank, bank) = banks[(pos + i) % n];
            if !self.dead_ranks[rank.0 as usize] && !self.stuck_banks.contains(&(rank, bank)) {
                return Location { rank, bank, ..loc };
            }
        }
        loc
    }

    /// Re-solves the committed pipeline for the (masked) topology and
    /// re-certifies it against Table 1. The FS reconfiguration contract
    /// requires the re-solve to reproduce the committed pipeline — masks
    /// change *which* banks slots may touch, never *when* slots fire — so
    /// any divergence or certification failure rejects the
    /// reconfiguration.
    fn recertify(&self) -> Result<(), ConfigError> {
        // The conservative fallback is certified by construction and is
        // already the widest pitch available — nothing to re-solve.
        if self.degraded {
            return Ok(());
        }
        let fresh = FsPipeline::for_kind(self.kind, &self.t, self.slot_pattern.len() as u8)
            .map_err(|_| {
                ConfigError::new("degraded topology admits no pipeline at the committed anchors")
            })?;
        if fresh != self.pipeline {
            return Err(ConfigError::new(format!(
                "re-solved pipeline (Q = {}) diverged from the committed one (Q = {})",
                fresh.q(),
                self.pipeline.q()
            )));
        }
        if !self.pipeline.certify(&self.t, self.device.geometry()).certified() {
            return Err(ConfigError::new(
                "degraded-topology schedule failed Table-1 re-certification",
            ));
        }
        Ok(())
    }
}

/// First cycle >= `from` congruent to `phase` (mod `l`).
fn next_multiple_with_phase(from: Cycle, phase: u64, l: u64) -> Cycle {
    let rem = from % l;
    if rem <= phase {
        from + (phase - rem)
    } else {
        from + (l - rem) + phase
    }
}

/// Spreads weighted slots through an interval so a domain with k slots
/// sees them ~evenly spaced: domains are placed heaviest-first at their
/// ideal stride positions, bumping forward (wrapping) on collisions.
/// Weights [2,1,1] yield [0,1,0,2].
fn smooth_weighted_round_robin(weights: &[u8]) -> Vec<DomainId> {
    let total: usize = weights.iter().map(|&w| w as usize).sum();
    let mut pattern: Vec<Option<DomainId>> = vec![None; total];
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(weights[d]));
    for d in order {
        let w = weights[d] as usize;
        for i in 0..w {
            let ideal = i * total / w;
            let mut pos = ideal;
            while pattern[pos].is_some() {
                pos = (pos + 1) % total;
            }
            pattern[pos] = Some(DomainId(d as u8));
        }
    }
    pattern.into_iter().map(|p| p.expect("all slots filled")).collect()
}

/// Last cycle <= `until` congruent to `phase` (mod `l`); 0 if none.
fn prev_multiple_with_phase(until: Cycle, phase: u64, l: u64) -> Cycle {
    let rem = until % l;
    if rem >= phase {
        until - (rem - phase)
    } else {
        (until - rem).saturating_sub(l) + phase
    }
}

impl MemoryController for FsScheduler {
    fn can_accept(&self, domain: DomainId) -> bool {
        !self.queues[domain.0 as usize].is_full()
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        {
            let ds = self.stats.domain_mut(txn.domain);
            if txn.is_write {
                ds.demand_writes += 1;
            } else {
                ds.demand_reads += 1;
            }
        }
        if !txn.is_write {
            if let Some(p) = &mut self.prefetchers {
                p[txn.domain.0 as usize].on_access(txn.local_addr);
            }
        }
        let mut txn = txn;
        txn.loc = self.remap_unhealthy(txn.domain, txn.loc);
        self.queues[txn.domain.0 as usize].push(txn)
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        if self.fault.is_some() {
            // Poisoned: degradation failed too. Nothing issues; the
            // simulation layer surfaces the stored violation.
            return;
        }
        if let Some(cmd) = self.refresh.command_at(now) {
            if let Err(v) = self.device.issue(&cmd, now) {
                self.on_violation(now, v);
            }
            return;
        }
        // Slot/interval decisions.
        match self.pipeline {
            FsPipeline::Slots(schedule) => loop {
                let mut plan = schedule.plan(self.next);
                // SLA slot ownership: the schedule indexes virtual slots;
                // the fixed pattern maps them to domains.
                plan.domain =
                    self.slot_pattern[(self.next % self.slot_pattern.len() as u64) as usize];
                if plan.decision_cycle > now {
                    break;
                }
                if plan.decision_cycle == now && self.refresh.allows_transaction(now) {
                    self.fill_slot(plan, now);
                } else if plan.decision_cycle == now {
                    self.stats.bubbles += 1;
                    self.note_slot(now, plan.slot, plan.domain, SlotGrantKind::Bubble);
                }
                self.next += 1;
            },
            FsPipeline::Reordered(r) => loop {
                let dec = r.decision_cycle(self.next);
                if dec > now {
                    break;
                }
                if dec == now
                    && self.refresh.allows_transaction(now + r.q())
                    && self.refresh.allows_transaction(now)
                {
                    self.fill_interval(r, self.next, now);
                } else if dec == now {
                    self.stats.bubbles += self.domains as u64;
                    for d in 0..self.domains {
                        self.note_slot(now, self.next, DomainId(d), SlotGrantKind::Bubble);
                    }
                }
                self.next += 1;
            },
        }
        self.pump_events(now, out);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        // Everything FS does happens at precomputed cycles: slot/interval
        // decision points (which also account bubbles), scheduled command
        // events, and the wall-clock refresh cadence. A poisoned
        // controller never acts again.
        if self.fault.is_some() {
            return Cycle::MAX;
        }
        let mut next =
            self.refresh.next_command_cycle(now).min(self.pipeline.decision_cycle(self.next));
        for ev in &self.events {
            next = next.min(ev.cycle);
        }
        next.max(now + 1)
    }

    fn fast_forward(&mut self, from: Cycle, until: Cycle, out: &mut Vec<Completion>) -> Cycle {
        // Everything FS does is anchored to precomputed cycles, so the
        // whole span can be replayed here as one event-hopping loop:
        // run the *same* `tick_into` per-cycle stepping would run, at
        // exactly the cycles its own `next_event` bound (slot/interval
        // decisions, scheduled command events, wall-clock refresh)
        // admits — bit-identical by construction, refresh windows and
        // all. Decline while the command tap is armed: the simulation
        // layer drains it tick by tick, and hopping would batch those
        // drains at different cycles.
        if self.device.is_recording() {
            return from;
        }
        let mut c = from;
        while c < until {
            self.tick_into(c, out);
            if !out.is_empty() || self.fault.is_some() {
                // The tick at `c` completed a transaction (its delivery
                // may wake a core) or poisoned the controller: hand
                // control back with the span cut right after it.
                return c + 1;
            }
            // Sound hop: `tick` is a no-op strictly before the bound.
            c = self.next_event(c);
        }
        until
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

    fn has_sched_events(&self) -> bool {
        !self.obs_events.is_empty()
    }

    fn take_sched_events_into(&mut self, out: &mut Vec<SchedEvent>) {
        out.append(&mut self.obs_events);
    }

    fn fault(&self) -> Option<Violation> {
        self.fault
    }

    fn inject_command_faults(&mut self, spec: CmdFaultSpec) {
        self.cmd_faults = spec.is_enabled().then(|| CmdFaultTracker { spec, ..Default::default() });
    }

    fn set_device_timing(&mut self, t: TimingParams) {
        // Only the *device* changes; the solved schedule and refresh
        // cadence keep the nominal parameters, modelling silicon that is
        // slower than the pipeline was certified for. Mismatches surface
        // as runtime violations and drive the degradation machinery.
        let recording = self.device.is_recording();
        self.device = DramDevice::new(*self.device.geometry(), t);
        if recording {
            self.device.record_commands();
        }
    }

    fn cadence_spec(&self) -> Option<CadenceSpec> {
        // The reordered-BP variant runs an interval discipline with no
        // per-slot anchors, and a poisoned controller issues nothing
        // worth monitoring; both report no cadence.
        let FsPipeline::Slots(s) = &self.pipeline else { return None };
        if self.fault.is_some() {
            return None;
        }
        let p0 = s.plan(0);
        let ranks = self.device.geometry().ranks_per_channel();
        let owners = (self.kind.partition_policy() == PartitionPolicy::Rank)
            .then(|| self.slot_pattern.iter().map(|d| d.0 % ranks).collect());
        Some(CadenceSpec {
            slot_pitch: s.slot_pitch() as Cycle,
            read_act_anchor: p0.read_act,
            write_act_anchor: p0.write_act,
            read_cas_anchor: p0.read_cas,
            write_cas_anchor: p0.write_cas,
            slot_owner_ranks: owners,
        })
    }

    fn reconfig_boundary(&self, now: Cycle) -> Cycle {
        // The same quiesce margin the degradation path uses: long enough
        // for any in-flight refresh, bank cycle or turnaround of the old
        // epoch to drain. The boundary itself is the first *interval*
        // start past the margin, so every domain's slot position relative
        // to the epoch edge is identical — the transition cannot favour
        // (or reveal) anyone.
        let margin = (self.t.t_rfc + self.t.t_rc + 64) as Cycle;
        let target = now + margin;
        match &self.pipeline {
            FsPipeline::Slots(s) => {
                let len = self.slot_pattern.len() as u64;
                let mut slot = s.first_slot_from(target).max(self.next);
                while !slot.is_multiple_of(len) {
                    slot += 1;
                }
                s.plan(slot).decision_cycle
            }
            FsPipeline::Reordered(r) => {
                let mut k = self.next;
                while r.decision_cycle(k) < target {
                    k += 1;
                }
                r.decision_cycle(k)
            }
        }
    }

    fn reconfigure(
        &mut self,
        events: &[ReconfigEvent],
        now: Cycle,
    ) -> Result<(), crate::error::CoreError> {
        if self.fault.is_some() || events.is_empty() {
            return Ok(());
        }
        let geom = *self.device.geometry();
        let ranks = geom.ranks_per_channel();
        let banks = geom.banks_per_rank();
        for ev in events {
            match *ev {
                ReconfigEvent::StuckBank { rank, bank } => {
                    let key = (RankId(rank % ranks), BankId(bank % banks));
                    if !self.stuck_banks.contains(&key) {
                        self.stuck_banks.push(key);
                    }
                }
                ReconfigEvent::DeadRank { rank } => {
                    self.dead_ranks[(rank % ranks) as usize] = true;
                }
                ReconfigEvent::ThermalRefresh { factor } => {
                    self.refresh = self.refresh.with_interval_scaled_down(factor);
                }
                // Membership is the system's concern (cores detach or
                // attach there); the leaving domain's queued demand is
                // drained below so no completion outlives its producer.
                ReconfigEvent::DomainLeave { .. } | ReconfigEvent::DomainJoin { .. } => {}
            }
        }
        // Drain doomed work: a leaving domain's queue, demand aimed at a
        // dead rank, and queued demand remapped off freshly stuck banks.
        let mut queues = std::mem::take(&mut self.queues);
        let mut dropped = 0u64;
        for q in queues.iter_mut() {
            let d = q.domain();
            let leaving = events
                .iter()
                .any(|e| matches!(*e, ReconfigEvent::DomainLeave { domain } if domain == d.0));
            let mut kept = Vec::with_capacity(q.len());
            while let Some(mut txn) = q.pop() {
                if leaving || self.dead_ranks[txn.loc.rank.0 as usize] {
                    dropped += 1;
                    continue;
                }
                txn.loc = self.remap_unhealthy(d, txn.loc);
                kept.push(txn);
            }
            for t in kept {
                q.push(t).expect("rebuilt queue cannot grow");
            }
        }
        self.queues = queues;
        self.stats.dropped_txns += dropped;
        // The masked topology must still certify at the committed
        // cadence before the new epoch is adopted.
        self.recertify()?;
        self.epoch += 1;
        self.stats.reconfigs += 1;
        self.note(SchedEvent::Reconfigured { cycle: now, epoch: self.epoch });
        Ok(())
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_dram::command::TimedCommand;
    use fsmc_dram::geometry::ColId;
    use fsmc_dram::TimingChecker;

    use SchedulerKind as K;

    fn mk_with(weights: &[u8], kind: SchedulerKind, energy: EnergyOptions) -> FsScheduler {
        let (geom, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
        FsScheduler::try_new(geom, t, weights, kind, energy).unwrap()
    }

    fn mk(kind: SchedulerKind) -> FsScheduler {
        mk_with(&[1; 8], kind, EnergyOptions::default())
    }

    fn txn(id: u64, domain: u8, local: u64, write: bool, policy: PartitionPolicy) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = policy.map(&geom, DomainId(domain), LineAddr(local));
        let t = if write {
            Transaction::write(TxnId(id), DomainId(domain), loc, 0)
        } else {
            Transaction::read(TxnId(id), DomainId(domain), loc, 0)
        };
        t.with_local_addr(LineAddr(local))
    }

    fn run(mc: &mut FsScheduler, cycles: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for c in 0..cycles {
            all.extend(mc.tick(c));
        }
        all
    }

    #[test]
    fn rank_partitioned_serves_every_domain_every_q() {
        let mut mc = mk(K::FsRankPartitioned);
        assert_eq!(mc.interval_q(), 56);
        for d in 0..8u8 {
            mc.enqueue(txn(d as u64, d, 0, false, PartitionPolicy::Rank)).unwrap();
        }
        let done = run(&mut mc, 200);
        assert_eq!(done.len(), 8);
        // One read per slot, 7 cycles apart on the data bus.
        for w in done.windows(2) {
            assert_eq!(w[1].finish - w[0].finish, 7);
        }
    }

    #[test]
    fn dummies_fill_idle_slots() {
        let mut mc = mk(K::FsRankPartitioned);
        run(&mut mc, 56 * 4);
        // ~4 intervals x 8 slots, all dummies (no demand traffic).
        let dummies: u64 = (0..8).map(|d| mc.stats().domain(DomainId(d)).dummies).sum();
        assert!(dummies >= 24, "only {dummies} dummies");
        assert!(mc.stats().dummy_fraction() > 0.99);
    }

    #[test]
    fn rank_partitioned_stream_is_conflict_free_for_any_mix() {
        let mut mc = mk(K::FsRankPartitioned);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 17, i % 3 == 0, PartitionPolicy::Rank)).unwrap();
        }
        run(&mut mc, 1500);
        let log = mc.take_command_log();
        assert!(log.len() > 100);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&log);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bank_partitioned_and_naive_np_streams_are_conflict_free() {
        for (kind, policy) in [
            (K::FsBankPartitioned, PartitionPolicy::BankStriped),
            (K::FsNoPartitionNaive, PartitionPolicy::None),
        ] {
            let mut mc = mk(kind);
            mc.record_commands();
            for i in 0..48u64 {
                mc.enqueue(txn(i, (i % 8) as u8, i * 17, i % 3 == 0, policy)).unwrap();
            }
            run(&mut mc, 4000);
            let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
            let v = checker.check(&mc.take_command_log());
            assert!(v.is_empty(), "{kind:?}: {v:?}");
        }
    }

    #[test]
    fn triple_alternation_stream_is_conflict_free() {
        let mut mc = mk(K::FsTripleAlternation);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 31, i % 4 == 0, PartitionPolicy::None)).unwrap();
        }
        run(&mut mc, 3000);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reordered_bp_releases_reads_en_masse() {
        let mut mc = mk(K::FsReorderedBankPartitioned);
        assert_eq!(mc.interval_q(), 63);
        for d in 0..4u8 {
            mc.enqueue(txn(d as u64, d, 0, false, PartitionPolicy::BankStriped)).unwrap();
        }
        let done = run(&mut mc, 300);
        assert_eq!(done.len(), 4);
        // All reads of an interval complete at the same cycle.
        let f0 = done[0].finish;
        assert!(done.iter().all(|c| c.finish == f0), "{done:?}");
    }

    #[test]
    fn reordered_bp_stream_is_conflict_free() {
        let mut mc = mk(K::FsReorderedBankPartitioned);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 8) as u8, i * 13, i % 2 == 0, PartitionPolicy::BankStriped))
                .unwrap();
        }
        run(&mut mc, 2000);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn next_event_skips_are_sound_for_every_variant() {
        // Two identical controllers: one ticks every cycle, the other
        // ticks only at the cycles next_event admits. Completions,
        // command logs and stats must match exactly.
        for kind in [
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsReorderedBankPartitioned,
            K::FsNoPartitionNaive,
            K::FsTripleAlternation,
        ] {
            let policy = kind.partition_policy();
            let (mut dense, mut sparse) = (mk(kind), mk(kind));
            dense.record_commands();
            sparse.record_commands();
            for i in 0..16u64 {
                let t = txn(i, (i % 8) as u8, i * 17, i % 3 == 0, policy);
                dense.enqueue(t).unwrap();
                sparse.enqueue(t).unwrap();
            }
            let horizon = 8000u64;
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
            assert_eq!(dense_done, sparse_done, "{kind:?}");
            assert_eq!(dense.take_command_log(), sparse.take_command_log(), "{kind:?}");
            assert_eq!(dense.stats(), sparse.stats(), "{kind:?}");
        }
    }

    #[test]
    fn refresh_windows_do_not_break_the_pipeline() {
        let mut mc = mk(K::FsRankPartitioned);
        mc.record_commands();
        let mut id = 0u64;
        for c in 0..13_000u64 {
            if c % 40 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 11, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            mc.tick(c);
        }
        assert!(mc.device().counters().total_refreshes() >= 16);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn suppressed_dummies_do_not_count_as_array_activity() {
        let mut mc = mk_with(
            &[1; 8],
            K::FsRankPartitioned,
            EnergyOptions { suppress_dummies: true, ..Default::default() },
        );
        run(&mut mc, 56 * 4);
        let c = mc.device().counters();
        assert_eq!(c.total_reads(), 0, "dummy reads must be suppressed");
        let suppressed: u64 = (0..8).map(|r| c.rank(r).suppressed).sum();
        assert!(suppressed > 16);
    }

    #[test]
    fn power_down_engages_on_idle_ranks_and_stream_stays_legal() {
        let mut mc = mk_with(
            &[1; 8],
            K::FsRankPartitioned,
            EnergyOptions { power_down: true, ..Default::default() },
        );
        mc.record_commands();
        run(&mut mc, 2000);
        assert!(mc.stats().power_downs > 0);
        mc.finish(2000);
        let pd: u64 = (0..8).map(|r| mc.device().counters().rank(r).powered_down_cycles).sum();
        assert!(pd > 0, "no powered-down cycles recorded");
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn row_hit_boost_detects_repeated_rows() {
        let mut mc = mk_with(
            &[1; 8],
            K::FsRankPartitioned,
            EnergyOptions { row_hit_boost: true, ..Default::default() },
        );
        // Two reads to the same row of domain 0.
        mc.enqueue(txn(1, 0, 5, false, PartitionPolicy::Rank)).unwrap();
        mc.enqueue(txn(2, 0, 6, false, PartitionPolicy::Rank)).unwrap();
        run(&mut mc, 300);
        assert!(mc.stats().boosted_row_hits >= 1);
    }

    #[test]
    fn two_domain_rank_partitioning_keeps_l7_with_dynamic_hazard_avoidance() {
        // Section 7: below ~6 ranks the 43-cycle same-rank worst case (and
        // the 15-cycle write-to-read turnaround) bite; the scheduler must
        // pick different transactions or insert bubbles rather than
        // violate timing. The stream must stay legal for a write-heavy mix.
        let mut mc = mk_with(&[1; 2], K::FsRankPartitioned, EnergyOptions::default());
        assert!(matches!(mc.pipeline(), FsPipeline::Slots(s) if s.slot_pitch() == 7));
        mc.record_commands();
        for i in 0..24u64 {
            mc.enqueue(txn(i, (i % 2) as u8, i * 17, i % 2 == 0, PartitionPolicy::Rank)).unwrap();
        }
        let done = run(&mut mc, 4000);
        assert!(done.len() >= 10, "served {} reads", done.len());
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn weighted_sla_gives_proportional_service() {
        // Section 5.1: a domain's SLA decides its issue slots. Domain 0
        // gets 3 slots per interval, domains 1 and 2 get 1 each.
        let mut mc = mk_with(&[3, 1, 1], K::FsRankPartitioned, EnergyOptions::default());
        mc.record_commands();
        // Saturate every domain.
        let mut done = vec![0u64; 3];
        let mut id = 0u64;
        for c in 0..6000u64 {
            for d in 0..3u8 {
                if mc.can_accept(DomainId(d)) {
                    mc.enqueue(txn(id, d, id * 997, false, PartitionPolicy::Rank)).unwrap();
                    id += 1;
                }
            }
            for comp in mc.tick(c) {
                done[comp.txn.domain.0 as usize] += 1;
            }
        }
        // Domain 0 should see ~3x the service of domain 1.
        let ratio = done[0] as f64 / done[1].max(1) as f64;
        assert!((2.2..=3.8).contains(&ratio), "service {done:?} (ratio {ratio:.2}) not ~3:1:1");
        // And the stream stays legal.
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn weighted_sla_slots_are_spread_not_clumped() {
        let mc = mk_with(&[2, 1, 1], K::FsRankPartitioned, EnergyOptions::default());
        let p = &mc.slot_pattern;
        assert_eq!(p.len(), 4);
        // Domain 0's two slots must not be adjacent (smooth WRR).
        let positions: Vec<usize> =
            p.iter().enumerate().filter(|(_, d)| d.0 == 0).map(|(i, _)| i).collect();
        assert_eq!(positions.len(), 2);
        let gap = positions[1] - positions[0];
        assert!(gap == 2, "pattern {p:?} clumps domain 0");
    }

    #[test]
    fn service_is_independent_of_other_domains_load() {
        // The executable non-interference core: domain 0's completion
        // times must be identical whether co-runners are idle or flooding.
        let run_domain0 = |others_busy: bool| -> Vec<Cycle> {
            let mut mc = mk(K::FsRankPartitioned);
            let mut id = 100;
            for i in 0..8u64 {
                mc.enqueue(txn(i, 0, i * 3, false, PartitionPolicy::Rank)).unwrap();
            }
            let mut finishes = Vec::new();
            for c in 0..2000u64 {
                if others_busy {
                    for d in 1..8u8 {
                        if c % 8 == d as u64 && mc.can_accept(DomainId(d)) {
                            mc.enqueue(txn(id, d, id * 7, id % 2 == 0, PartitionPolicy::Rank))
                                .unwrap();
                            id += 1;
                        }
                    }
                }
                for comp in mc.tick(c) {
                    if comp.txn.domain == DomainId(0) {
                        finishes.push(comp.finish);
                    }
                }
            }
            finishes
        };
        assert_eq!(run_domain0(false), run_domain0(true));
    }

    #[test]
    fn injected_delay_degrades_but_keeps_serving() {
        // One delayed command knocks the pipeline off its certified
        // phases: the controller must degrade (not panic), requeue the
        // in-flight work and keep serving on the conservative pitch.
        let mut mc = mk(K::FsRankPartitioned);
        // l = 7 and tBURST = 4: a 5-cycle slip leaves only 2 cycles to the
        // next slot's data burst, an overlap the device must reject.
        mc.inject_command_faults(CmdFaultSpec {
            delay_period: 5,
            delay_cycles: 5,
            max_faults: 1,
            ..Default::default()
        });
        let mut id = 0u64;
        let mut done = 0usize;
        for c in 0..30_000u64 {
            if c % 25 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 11, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            done += mc.tick(c).len();
        }
        assert!(mc.is_degraded(), "a 3-cycle slip must trigger degradation");
        assert!(mc.fault().is_none(), "one violation must not poison the controller");
        assert_eq!(mc.stats().injected_faults, 1);
        assert!(mc.stats().timing_faults >= 1);
        assert!(mc.stats().solver_fallbacks >= 1);
        assert!(mc.stats().degraded);
        // Demand service continues after the downgrade.
        assert!(done > id as usize / 2, "served {done} of {id} reads");
    }

    #[test]
    fn degraded_stream_stays_legal_after_the_violation() {
        // Post-downgrade the emitted command stream must again be
        // conflict-free (commands up to the violation are legal by
        // construction; the checker sees the whole log minus the one
        // rejected command, which the device never applied).
        let mut mc = mk(K::FsBankPartitioned);
        mc.record_commands();
        // l = 15: a 13-cycle slip lands the burst 2 cycles before the next
        // slot's, violating the data bus.
        mc.inject_command_faults(CmdFaultSpec {
            delay_period: 3,
            delay_cycles: 13,
            max_faults: 1,
            ..Default::default()
        });
        let mut id = 0u64;
        for c in 0..20_000u64 {
            if c % 30 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(
                    id,
                    (id % 8) as u8,
                    id * 17,
                    id.is_multiple_of(3),
                    PartitionPolicy::BankStriped,
                ))
                .unwrap();
                id += 1;
            }
            mc.tick(c);
        }
        assert!(mc.is_degraded());
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn second_violation_poisons_the_controller() {
        // Unbounded injected delays keep violating even on the
        // conservative pipeline: after the single repair attempt the
        // controller must stop and expose the violation.
        let mut mc = mk(K::FsRankPartitioned);
        // A 40-cycle slip violates even the conservative 43-cycle pitch
        // (the burst lands 3 cycles before the next slot's), so the repair
        // attempt cannot hold.
        mc.inject_command_faults(CmdFaultSpec {
            delay_period: 4,
            delay_cycles: 40,
            max_faults: 0, // unbounded
            ..Default::default()
        });
        let mut id = 0u64;
        for c in 0..60_000u64 {
            if c % 20 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 13, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            mc.tick(c);
            if mc.fault().is_some() {
                break;
            }
        }
        let v = mc.fault().expect("persistent faults must poison the controller");
        assert!(mc.stats().timing_faults >= 2);
        assert!(!v.constraint.is_empty());
        // Poisoned controllers issue nothing.
        assert!(mc.tick(100_000).is_empty());
    }

    #[test]
    fn fs_kinds_start_undegraded_and_certified_even_with_a_stretched_trc() {
        // Every FS kind on every generation starts on its own pipeline,
        // and the pipeline table's certification of it passes.
        for gen in fsmc_dram::DeviceGeneration::all() {
            let p = gen.profile();
            for kind in [
                K::FsRankPartitioned,
                K::FsRankPartitionedPrefetch,
                K::FsBankPartitioned,
                K::FsReorderedBankPartitioned,
                K::FsNoPartitionNaive,
                K::FsTripleAlternation,
            ] {
                let mc =
                    FsScheduler::try_new(p.geometry, p.timing, &[1; 8], kind, Default::default())
                        .unwrap_or_else(|e| panic!("{gen} {kind}: {e}"));
                assert!(!mc.is_degraded(), "{gen} {kind} started degraded");
                assert_eq!(mc.kind(), kind);
                let report = mc.pipeline().certify(&p.timing, &p.geometry);
                assert!(report.certified(), "{gen} {kind}: {:?}", report.violations.first());
            }
        }
        // A huge tRC used to break triple alternation's distance-3
        // same-bank argument outright; the schedule now widens its own
        // pitch to ceil(tRC / 3) = 67 and stays on triple alternation.
        let mut t = TimingParams::ddr3_1600();
        t.t_rc = 200;
        let geom = Geometry::paper_default();
        let mc = FsScheduler::try_new(geom, t, &[1; 8], K::FsTripleAlternation, Default::default())
            .expect("widened triple alternation should solve for a stretched tRC");
        assert!(!mc.is_degraded());
        assert_eq!(mc.stats().solver_fallbacks, 0);
        assert!(matches!(mc.pipeline(), FsPipeline::Slots(s) if s.slot_pitch() == 67));
    }

    #[test]
    fn unsolvable_variant_tries_the_fallback_and_reports_the_error() {
        // An absurd tRTRS pushes the rank-partitioned data pipeline past
        // the solver's search bound. The conservative fallback assumes
        // every turnaround at once — cross-rank included — so it cannot
        // solve either; construction must surface a solve error, not
        // panic or hand back an uncertified schedule.
        let mut t = TimingParams::ddr3_1600();
        t.t_rtrs = 600;
        let geom = Geometry::paper_default();
        let e = FsScheduler::try_new(geom, t, &[1; 8], K::FsRankPartitioned, Default::default())
            .expect_err("no pipeline solves with a 600-cycle tRTRS");
        assert!(matches!(e, CoreError::Solve(_)), "{e}");
    }

    #[test]
    fn invalid_configs_are_reported_not_panicked() {
        let geom = Geometry::paper_default();
        let t = TimingParams::ddr3_1600();
        for (weights, kind) in [
            (&[][..], K::FsRankPartitioned),
            (&[1, 0], K::FsRankPartitioned),
            (&[2, 1], K::FsReorderedBankPartitioned),
            (&[1; 8], K::TpBankPartitioned { turn: 60 }),
            (&[1; 8], K::FsMultiChannel { channels: 2 }),
        ] {
            let e = FsScheduler::try_new(geom, t, weights, kind, EnergyOptions::default())
                .expect_err("invalid configuration accepted");
            assert!(matches!(e, CoreError::Config(_)), "{weights:?} {kind:?}: {e}");
        }
    }

    #[test]
    fn moderately_stretched_device_trfc_is_absorbed_without_violations() {
        // Device refreshes take twice as long as certified. The slot
        // filler's bank-readiness guard sees the slow device directly, so
        // the overrun costs bubbles, not violations.
        let mut mc = mk(K::FsRankPartitioned);
        let mut slow = TimingParams::ddr3_1600();
        slow.t_rfc *= 2;
        mc.set_device_timing(slow);
        let mut id = 0u64;
        let mut done = 0usize;
        for c in 0..20_000u64 {
            if c % 20 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 7, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            done += mc.tick(c).len();
        }
        assert!(mc.fault().is_none());
        assert!(!mc.is_degraded(), "a 2x tRFC must be absorbed, not degrade");
        assert!(done > 100, "served only {done} reads");
    }

    #[test]
    fn extreme_device_trfc_stretch_degrades_then_poisons() {
        // The acceptance scenario's core: tRFC stretched past tREFI means
        // the next window's REF arrives while the previous refresh is
        // still in progress. The first collision degrades; refresh cadence
        // is unchanged in degraded mode, so the next REF poisons.
        let mut mc = mk(K::FsRankPartitioned);
        let mut slow = TimingParams::ddr3_1600();
        slow.t_rfc *= 40;
        mc.set_device_timing(slow);
        let mut id = 0u64;
        for c in 0..40_000u64 {
            if c % 20 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 7, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            mc.tick(c);
            if mc.fault().is_some() {
                break;
            }
        }
        assert!(mc.stats().degraded, "first REF collision must degrade");
        assert!(mc.fault().is_some(), "persistent REF collisions must poison");
        assert!(mc.stats().timing_faults >= 2);
    }

    #[test]
    fn stretched_device_trtrs_degrades_and_recovers_on_the_wide_pitch() {
        // Slow rank-to-rank bus switching: the certified 7-cycle pitch
        // leaves a 3-cycle gap between bursts of different ranks, so a
        // tRTRS of 20 violates immediately — but the conservative 43-cycle
        // pitch leaves 39, so the degraded controller keeps serving.
        let mut mc = mk(K::FsRankPartitioned);
        let mut slow = TimingParams::ddr3_1600();
        slow.t_rtrs = 20;
        mc.set_device_timing(slow);
        let mut id = 0u64;
        let mut done = 0usize;
        for c in 0..30_000u64 {
            if c % 25 == 0 && mc.can_accept(DomainId((id % 8) as u8)) {
                mc.enqueue(txn(id, (id % 8) as u8, id * 7, false, PartitionPolicy::Rank)).unwrap();
                id += 1;
            }
            done += mc.tick(c).len();
        }
        assert!(mc.is_degraded());
        assert!(mc.fault().is_none(), "the wide pitch must hold: {:?}", mc.fault());
        assert!(done > 100, "served only {done} reads after the downgrade");
    }

    #[test]
    fn cadence_spec_accepts_every_recorded_command() {
        // The advertised cadence must describe the controller's actual
        // issue behaviour: an un-faulted run may not contain a single
        // command the spec rejects, across every slot-shaped kind.
        for kind in [
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsNoPartitionNaive,
            K::FsTripleAlternation,
        ] {
            let mut mc = mk(kind);
            let policy = kind.partition_policy();
            mc.record_commands();
            let spec = MemoryController::cadence_spec(&mc)
                .expect("slot-shaped FS variants advertise a cadence");
            if kind == K::FsRankPartitioned {
                assert!(spec.slot_owner_ranks.is_some(), "RP must carry slot ownership");
            }
            let mut id = 0u64;
            for c in 0..8_000u64 {
                if c.is_multiple_of(9) && mc.can_accept(DomainId((id % 8) as u8)) {
                    mc.enqueue(txn(id, (id % 8) as u8, id * 13, id.is_multiple_of(3), policy))
                        .unwrap();
                    id += 1;
                }
                mc.tick(c);
            }
            assert!(mc.fault().is_none(), "{kind:?} faulted: {:?}", mc.fault());
            let log = MemoryController::take_command_log(&mut mc);
            assert!(log.iter().any(|tc| tc.cmd.kind.is_cas()), "{kind:?}: empty log");
            for tc in &log {
                if let Err(name) = spec.check(tc) {
                    panic!("{kind:?}: {tc} rejected by its own cadence: {name}");
                }
            }
        }
    }

    #[test]
    fn reconfigure_keeps_the_cadence_and_bumps_the_epoch() {
        let mut mc = mk(K::FsRankPartitioned);
        mc.record_commands();
        let before = MemoryController::cadence_spec(&mc).unwrap();
        for c in 0..200u64 {
            mc.tick(c);
        }
        let boundary = mc.reconfig_boundary(200);
        assert!(boundary >= 200 + (mc.t.t_rfc + mc.t.t_rc + 64) as Cycle);
        let events = [
            ReconfigEvent::StuckBank { rank: 3, bank: 2 },
            ReconfigEvent::DomainLeave { domain: 5 },
        ];
        mc.reconfigure(&events, boundary).expect("unchanged timing must re-certify");
        assert_eq!(MemoryController::epoch(&mc), 1);
        assert_eq!(mc.stats().reconfigs, 1);
        // The committed cadence is invariant across the epoch edge.
        assert_eq!(MemoryController::cadence_spec(&mc).unwrap(), before);
        // Post-adoption commands still satisfy it, and dummies never
        // touch the stuck bank.
        for c in 200..boundary + 600 {
            mc.tick(c);
        }
        assert!(mc.fault().is_none());
        let log = MemoryController::take_command_log(&mut mc);
        for tc in log.iter().filter(|tc| tc.cycle >= boundary) {
            assert!(before.check(tc).is_ok(), "{tc} off cadence after reconfig");
            if tc.cmd.kind == fsmc_dram::CommandKind::Activate {
                assert!(
                    !(tc.cmd.rank == RankId(3) && tc.cmd.bank == BankId(2)),
                    "stuck bank activated after reconfig: {tc}"
                );
            }
        }
    }

    #[test]
    fn dead_rank_slots_become_bubbles_and_demand_is_dropped() {
        let mut mc = mk(K::FsRankPartitioned);
        // Queue demand for domain 2 (rank 2 under rank partitioning).
        for i in 0..4u64 {
            mc.enqueue(txn(i, 2, i * 5, false, PartitionPolicy::Rank)).unwrap();
        }
        mc.reconfigure(&[ReconfigEvent::DeadRank { rank: 2 }], 0).unwrap();
        assert_eq!(mc.stats().dropped_txns, 4, "queued demand to the dead rank is dropped");
        let bubbles_before = mc.stats().bubbles;
        let done = run(&mut mc, 56 * 4);
        assert!(done.is_empty(), "nothing can complete on a dead rank");
        // Domain 2's slots go empty (its rank is masked even for dummies).
        assert!(mc.stats().bubbles >= bubbles_before + 4);
        assert_eq!(mc.stats().domain(DomainId(2)).dummies, 0);
    }

    #[test]
    fn stuck_bank_demand_is_remapped_within_the_partition() {
        let mut mc = mk(K::FsRankPartitioned);
        mc.reconfigure(&[ReconfigEvent::StuckBank { rank: 0, bank: 1 }], 0).unwrap();
        // A read mapping onto the stuck bank lands on a healthy bank of
        // the same rank instead.
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::Rank.map(&geom, DomainId(0), LineAddr(0));
        let stuck = Location { bank: BankId(1), ..loc };
        let t = Transaction::read(TxnId(9), DomainId(0), stuck, 0);
        mc.enqueue(t).unwrap();
        let done = run(&mut mc, 300);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].txn.loc.rank, RankId(0), "remap must stay in the owned rank");
        assert_ne!(done[0].txn.loc.bank, BankId(1), "remap must leave the stuck bank");
    }

    #[test]
    fn thermal_refresh_reconfig_refreshes_more_often() {
        let (mut nominal, mut hot) = (mk(K::FsRankPartitioned), mk(K::FsRankPartitioned));
        hot.reconfigure(&[ReconfigEvent::ThermalRefresh { factor: 2 }], 0).unwrap();
        assert_eq!(MemoryController::epoch(&hot), 1);
        for c in 0..14_000u64 {
            nominal.tick(c);
            hot.tick(c);
        }
        let n = nominal.device().counters().total_refreshes();
        let h = hot.device().counters().total_refreshes();
        assert!(h >= 2 * n - 8, "hot {h} vs nominal {n}: doubling must show");
        assert!(hot.fault().is_none());
    }

    #[test]
    fn cadence_spec_flags_off_phase_and_foreign_slot() {
        let mc = mk(K::FsRankPartitioned);
        let spec = MemoryController::cadence_spec(&mc).unwrap();
        // A read CAS one cycle off its anchor phase is rejected.
        let on = TimedCommand::new(
            Command::read_ap(RankId(0), BankId(0), RowId(0), ColId(0)),
            spec.read_cas_anchor,
        );
        assert!(spec.check(&on).is_ok());
        let off = TimedCommand::new(on.cmd, spec.read_cas_anchor + 1);
        assert_eq!(spec.check(&off), Err("FS cadence: read CAS off its slot phase"));
        // Slot 0 belongs to domain 0 (rank 0); the same phase one slot
        // later belongs to domain 1, so rank 0 there is slot theft.
        let theft = TimedCommand::new(on.cmd, spec.read_cas_anchor + spec.slot_pitch);
        assert_eq!(spec.check(&theft), Err("FS cadence: read CAS in another domain's slot"));
        // Refresh is exempt at any cycle.
        let refresh = TimedCommand::new(Command::refresh(RankId(3)), 12345);
        assert!(spec.check(&refresh).is_ok());
    }
}
