//! Memory-controller scheduling policies behind one trait.
//!
//! Four controller types implement every [`SchedulerKind`]:
//!
//! * [`baseline::BaselineScheduler`] — non-secure FR-FCFS open-page with
//!   watermark-driven write drain (the normalisation denominator of every
//!   figure in the paper).
//! * [`tp::TpScheduler`] — Temporal Partitioning (Wang et al., HPCA 2014),
//!   the prior secure scheme, in bank-partitioned and non-partitioned
//!   forms, plus the flush-based fence variant, all with configurable
//!   turn lengths.
//! * [`fs::FsScheduler`] — the paper's Fixed Service policies: rank
//!   partitioning, bank partitioning, reordered bank partitioning, naive
//!   no-partitioning and triple alternation, plus the prefetch and energy
//!   optimisations. One constructor, `FsScheduler::try_new`, takes the
//!   kind; each kind's pipeline comes from the table
//!   [`fs::FsPipeline::for_kind`].
//! * [`sharded::ShardedController`] — domains split over private
//!   channels, one inner controller each: channel partitioning (FR-FCFS
//!   shards) and multi-channel FS (FS shards).

pub mod baseline;
pub mod fs;
pub mod sharded;
pub mod tp;

use crate::domain::{DomainId, PartitionPolicy};
use crate::queues::QueueFull;
use crate::txn::Transaction;
use fsmc_dram::checker::Violation;
use fsmc_dram::{Cycle, DramDevice, TimingParams};
use std::fmt;

/// Deterministic command-stream fault injection, applied by controllers
/// that support it (currently [`fs::FsScheduler`]) as transactions are
/// committed to command slots. Periods count committed transactions;
/// the same spec against the same workload/seed reproduces the same
/// faulty stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CmdFaultSpec {
    /// Every `delay_period`-th committed transaction has its commands
    /// shifted `delay_cycles` later (0 disables). A shifted command
    /// breaks the solved pipeline and is caught as a timing violation.
    pub delay_period: u64,
    pub delay_cycles: u64,
    /// Every `drop_period`-th committed transaction is silently dropped:
    /// no commands issue and no completion is ever delivered (0 disables).
    pub drop_period: u64,
    /// Stop injecting after this many faults (0 = unlimited).
    pub max_faults: u64,
}

impl CmdFaultSpec {
    pub fn is_enabled(&self) -> bool {
        self.delay_period > 0 || self.drop_period > 0
    }
}

/// The externally observable issue discipline of a solved Fixed-Service
/// pipeline: every ACT and CAS lands on a fixed phase of the slot pitch
/// `l`, and (under rank partitioning) the slot at a given index may only
/// touch its owning domain's rank.
///
/// An online monitor holding the spec can verify *schedule integrity* —
/// not just device-timing legality — command by command: a command that is
/// perfectly legal for the DRAM part but off its solved phase (or in
/// another domain's slot) is exactly the kind of silent drift that opens a
/// timing channel, and is invisible to a pure Table-1 checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CadenceSpec {
    /// Slot pitch `l` of the solved pipeline (cycles between slots).
    pub slot_pitch: Cycle,
    /// Absolute cycle of slot 0's read ACT; slot `g`'s read ACT is
    /// `read_act_anchor + g * slot_pitch`. Likewise for the other anchors.
    pub read_act_anchor: Cycle,
    pub write_act_anchor: Cycle,
    pub read_cas_anchor: Cycle,
    pub write_cas_anchor: Cycle,
    /// Owning rank per slot-pattern position, when the spatial partition
    /// pins each domain to one rank: the slot at index `g` may only touch
    /// `slot_owner_ranks[g % len]`. `None` disables ownership checking
    /// (bank-partitioned and unpartitioned variants).
    pub slot_owner_ranks: Option<Vec<u8>>,
}

impl CadenceSpec {
    /// The slot index a command at `cycle` occupies relative to `anchor`,
    /// if the cycle sits exactly on that anchor's phase.
    fn slot_at(anchor: Cycle, pitch: Cycle, cycle: Cycle) -> Option<u64> {
        (cycle >= anchor && (cycle - anchor).is_multiple_of(pitch))
            .then(|| (cycle - anchor) / pitch)
    }

    fn owner_ok(&self, slot: u64, rank: u8) -> bool {
        match &self.slot_owner_ranks {
            None => true,
            Some(owners) if owners.is_empty() => true,
            Some(owners) => owners[(slot % owners.len() as u64) as usize] == rank,
        }
    }

    /// Checks one issued command against the cadence. Refresh, precharge
    /// and power-down commands are exempt: they are wall-clock or
    /// transition events outside the per-slot pipeline.
    ///
    /// # Errors
    ///
    /// The name of the violated invariant.
    pub fn check(&self, tc: &fsmc_dram::command::TimedCommand) -> Result<(), &'static str> {
        let c = tc.cycle;
        let rank = tc.cmd.rank.0;
        match tc.cmd.kind {
            fsmc_dram::CommandKind::Activate => {
                // An ACT's direction (read or write slot) is not yet known,
                // so accept either anchor — and under rank partitioning,
                // either candidate slot whose owner matches.
                let slots = [
                    Self::slot_at(self.read_act_anchor, self.slot_pitch, c),
                    Self::slot_at(self.write_act_anchor, self.slot_pitch, c),
                ];
                if slots.iter().all(Option::is_none) {
                    return Err("FS cadence: ACT off its slot phase");
                }
                if !slots.iter().flatten().any(|&g| self.owner_ok(g, rank)) {
                    return Err("FS cadence: ACT in another domain's slot");
                }
                Ok(())
            }
            k if k.is_read() => match Self::slot_at(self.read_cas_anchor, self.slot_pitch, c) {
                None => Err("FS cadence: read CAS off its slot phase"),
                Some(g) if !self.owner_ok(g, rank) => {
                    Err("FS cadence: read CAS in another domain's slot")
                }
                Some(_) => Ok(()),
            },
            k if k.is_write() => match Self::slot_at(self.write_cas_anchor, self.slot_pitch, c) {
                None => Err("FS cadence: write CAS off its slot phase"),
                Some(g) if !self.owner_ok(g, rank) => {
                    Err("FS cadence: write CAS in another domain's slot")
                }
                Some(_) => Ok(()),
            },
            _ => Ok(()),
        }
    }
}

/// A persistent topology or membership change a controller is asked to
/// absorb at an epoch boundary. Unlike the transient injection faults in
/// [`CmdFaultSpec`], these do not go away: the controller must keep its
/// service guarantees on the degraded topology (or new domain set) for
/// the rest of the run.
///
/// The reconfiguration contract for Fixed-Service policies is that the
/// solved slot cadence (pitch, anchors, rank ownership) is *invariant*
/// across the transition: events may change which domains are attached,
/// which banks/ranks are eligible targets, and how often refresh runs,
/// but never when slots fire. That invariance is what keeps a surviving
/// domain's timing bit-identical whether or not a co-tenant churned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigEvent {
    /// One bank stopped retaining data: mask it out of dummy generation
    /// and remap its demand traffic onto a healthy bank in the same rank.
    StuckBank { rank: u8, bank: u8 },
    /// A whole rank died. Its tenant domain (under rank partitioning) is
    /// force-detached; the dead rank's slots become bubbles, since even a
    /// dummy cannot target dead silicon.
    DeadRank { rank: u8 },
    /// Thermal alarm: retention halves, so refresh must run `factor`
    /// times more often (tREFI divided by `factor`).
    ThermalRefresh { factor: u8 },
    /// A tenant domain left the host; its slots revert to dummies.
    DomainLeave { domain: u8 },
    /// A new tenant domain joined; it starts being served at the epoch
    /// boundary (its slots carried dummies until then).
    DomainJoin { domain: u8 },
}

impl ReconfigEvent {
    /// The domain whose service this event changes, when the event is
    /// about one specific domain under the given rank-partitioned
    /// domain-to-rank mapping (`domain d owns rank d % ranks`). Survivor
    /// non-interference claims exclude exactly these domains.
    pub fn touched_domain(&self, domains: u8, ranks: u8) -> Option<u8> {
        match *self {
            ReconfigEvent::DomainLeave { domain } | ReconfigEvent::DomainJoin { domain } => {
                Some(domain)
            }
            // Under rank partitioning the rank's tenant loses service;
            // with more domains than ranks this is conservative (first
            // tenant named, all sharers are really affected).
            ReconfigEvent::DeadRank { rank } => (rank < domains.min(ranks)).then_some(rank),
            ReconfigEvent::StuckBank { rank, .. } => (rank < domains.min(ranks)).then_some(rank),
            // Refresh cadence changes hit every domain identically.
            ReconfigEvent::ThermalRefresh { .. } => None,
        }
    }
}

/// Identifies a scheduling policy and its configuration (the design
/// points of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Non-secure FR-FCFS baseline.
    Baseline,
    /// Non-secure baseline with the sandbox prefetcher enabled.
    BaselinePrefetch,
    /// TP with bank partitioning at the given turn length (cycles).
    TpBankPartitioned { turn: u32 },
    /// TP with no spatial partitioning at the given turn length (cycles).
    TpNoPartition { turn: u32 },
    /// Flush-based TP (fence.t-style): open-page turns over shared banks,
    /// with every row buffer flushed at the end of each fixed period.
    TpFence { period: u32 },
    /// FS with rank partitioning (fixed periodic data, l = 7).
    FsRankPartitioned,
    /// FS rank partitioning with the sandbox prefetcher in dummy slots.
    FsRankPartitionedPrefetch,
    /// FS with basic bank partitioning (fixed periodic RAS, l = 15).
    FsBankPartitioned,
    /// FS with reordered bank partitioning (reads first, Q = 63).
    FsReorderedBankPartitioned,
    /// FS without spatial partitioning, naive pipeline (l = 43).
    FsNoPartitionNaive,
    /// FS without spatial partitioning, triple alternation.
    FsTripleAlternation,
    /// Channel partitioning: one private channel per domain (Section 4.1;
    /// the no-sharing case — secure by isolation, not scheduling).
    ChannelPartitioned,
    /// Rank-partitioned FS sharded across multiple channels (the paper's
    /// 32-core, 4-channel target system).
    FsMultiChannel { channels: u8 },
}

impl SchedulerKind {
    /// The spatial partition the OS must configure for this policy.
    pub fn partition_policy(&self) -> PartitionPolicy {
        match self {
            SchedulerKind::Baseline | SchedulerKind::BaselinePrefetch => PartitionPolicy::None,
            SchedulerKind::TpBankPartitioned { .. } => PartitionPolicy::BankStriped,
            SchedulerKind::TpNoPartition { .. } => PartitionPolicy::None,
            // Fence turns share banks; the flush is what isolates them.
            SchedulerKind::TpFence { .. } => PartitionPolicy::None,
            SchedulerKind::FsRankPartitioned | SchedulerKind::FsRankPartitionedPrefetch => {
                PartitionPolicy::Rank
            }
            SchedulerKind::FsBankPartitioned | SchedulerKind::FsReorderedBankPartitioned => {
                PartitionPolicy::BankStriped
            }
            SchedulerKind::FsNoPartitionNaive | SchedulerKind::FsTripleAlternation => {
                PartitionPolicy::None
            }
            // Within its private channel a domain owns everything; the
            // unpartitioned mapping maximises its bank parallelism.
            SchedulerKind::ChannelPartitioned => PartitionPolicy::None,
            SchedulerKind::FsMultiChannel { .. } => PartitionPolicy::Rank,
        }
    }

    /// True for the policies that close the memory timing channel.
    pub fn is_secure(&self) -> bool {
        !matches!(self, SchedulerKind::Baseline | SchedulerKind::BaselinePrefetch)
    }

    /// Short label used in result tables (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::Baseline => "Baseline".into(),
            SchedulerKind::BaselinePrefetch => "Baseline_Prefetch".into(),
            SchedulerKind::TpBankPartitioned { turn } => format!("TP_BP_{turn}"),
            SchedulerKind::TpNoPartition { turn } => format!("TP_NP_{turn}"),
            SchedulerKind::TpFence { period } => format!("TP_Fence_{period}"),
            SchedulerKind::FsRankPartitioned => "FS_RP".into(),
            SchedulerKind::FsRankPartitionedPrefetch => "FS_RP-Prefetch".into(),
            SchedulerKind::FsBankPartitioned => "FS_BP".into(),
            SchedulerKind::FsReorderedBankPartitioned => "FS_Reordered_BP".into(),
            SchedulerKind::FsNoPartitionNaive => "FS_NP".into(),
            SchedulerKind::FsTripleAlternation => "FS_NP_Optimized".into(),
            SchedulerKind::ChannelPartitioned => "Channel_Partitioned".into(),
            SchedulerKind::FsMultiChannel { channels } => format!("FS_RP_{channels}ch"),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A finished memory transaction: delivered to the producer at `finish`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub txn: Transaction,
    /// DRAM cycle at which the data is available to the core (reads) or
    /// the write has been transmitted.
    pub finish: Cycle,
}

/// Per-domain scheduling statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    pub demand_reads: u64,
    pub demand_writes: u64,
    pub dummies: u64,
    pub prefetches: u64,
    /// Sum of (finish - arrival) over completed demand reads.
    pub read_latency_sum: u64,
    pub reads_completed: u64,
}

impl DomainStats {
    /// Average demand-read latency in DRAM cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_completed as f64
        }
    }
}

/// Whole-controller statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    domains: Vec<DomainStats>,
    /// CAS commands that hit an already-open row (baseline open-page).
    pub row_hits: u64,
    /// CAS commands that required an activate.
    pub row_misses: u64,
    /// FS energy optimisation 2: dummy/demand pairs whose activate energy
    /// is avoided because the row matches the previous access.
    pub boosted_row_hits: u64,
    /// Slots skipped entirely (refresh quiesce or no ready bank).
    pub bubbles: u64,
    /// Power-down entries issued (energy optimisation 3).
    pub power_downs: u64,
    /// Timing violations observed at command issue (each triggers either
    /// the conservative-pipeline fallback or, if already degraded,
    /// poisons the controller).
    pub timing_faults: u64,
    /// Construction-time fallbacks: the requested pipeline variant did
    /// not solve and the conservative pipeline was used instead.
    pub solver_fallbacks: u64,
    /// Demand transactions lost to injected faults or a full queue during
    /// degraded-mode requeue.
    pub dropped_txns: u64,
    /// Faults injected by an active [`CmdFaultSpec`].
    pub injected_faults: u64,
    /// Successful epoch reconfigurations adopted at a drained boundary.
    pub reconfigs: u64,
    /// True once the controller is running the conservative fallback
    /// pipeline instead of the variant it was built for.
    pub degraded: bool,
}

impl McStats {
    pub fn new(domains: usize) -> Self {
        McStats { domains: vec![DomainStats::default(); domains], ..Default::default() }
    }

    pub fn domain(&self, d: DomainId) -> &DomainStats {
        &self.domains[d.0 as usize]
    }

    pub fn domain_mut(&mut self, d: DomainId) -> &mut DomainStats {
        &mut self.domains[d.0 as usize]
    }

    pub fn domains(&self) -> &[DomainStats] {
        &self.domains
    }

    /// Fraction of issued transactions that were dummies.
    pub fn dummy_fraction(&self) -> f64 {
        let dummies: u64 = self.domains.iter().map(|d| d.dummies).sum();
        let total: u64 = self
            .domains
            .iter()
            .map(|d| d.demand_reads + d.demand_writes + d.dummies + d.prefetches)
            .sum();
        if total == 0 {
            0.0
        } else {
            dummies as f64 / total as f64
        }
    }

    /// Row-buffer hit rate over demand CAS commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Average demand-read latency across domains.
    pub fn avg_read_latency(&self) -> f64 {
        let sum: u64 = self.domains.iter().map(|d| d.read_latency_sum).sum();
        let n: u64 = self.domains.iter().map(|d| d.reads_completed).sum();
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// What filled an FS slot (or why it stayed empty), for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotGrantKind {
    /// A queued demand transaction.
    Demand,
    /// A sandbox prefetch.
    Prefetch,
    /// A dummy access (traffic shaping).
    Dummy,
    /// A power-down pair replacing the dummy.
    PowerDown,
    /// Nothing issued.
    Bubble,
}

/// A scheduler-level observability event. Command-bus activity is
/// captured by the device's [`fsmc_dram::ObsCommand`] side log; these
/// events carry what the command stream alone cannot show — slot
/// ownership decisions and degradation transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A slot (or, for reordered BP, interval) decision: which domain
    /// owned it and what filled it.
    SlotGrant { cycle: Cycle, slot: u64, domain: DomainId, kind: SlotGrantKind },
    /// The controller degraded onto the conservative pipeline.
    Degraded { cycle: Cycle },
    /// The controller adopted a reconfigured epoch at a drained slot
    /// boundary (topology masks, domain membership or refresh cadence
    /// changed; the slot cadence did not).
    Reconfigured { cycle: Cycle, epoch: u64 },
}

/// The interface every scheduling policy implements.
///
/// A controller owns one channel's [`DramDevice`]; the system simulator
/// drives `tick_into` once per DRAM cycle and routes [`Completion`]s back to
/// the cores.
pub trait MemoryController {
    /// Whether `domain` may enqueue another transaction (back-pressure).
    ///
    /// A `false` answer can turn `true` only inside a tick
    /// ([`MemoryController::tick_into`] or
    /// [`MemoryController::fast_forward`]) or when a reconfiguration is
    /// adopted ([`MemoryController::reconfigure`]), never through
    /// [`MemoryController::enqueue`], which only fills queues. The
    /// system simulator relies on this: a core refused by a full queue
    /// after a tick is refused in every CPU cycle before the next real
    /// tick, and is carried across them in bulk.
    fn can_accept(&self, domain: DomainId) -> bool;

    /// Enqueues a demand transaction.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the domain's queue is at capacity.
    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull>;

    /// Advances one DRAM cycle, issuing commands as the policy dictates,
    /// and appends this cycle's completions to `out` (the caller's
    /// reusable buffer). Completions may carry `finish` cycles in the
    /// future.
    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>);

    /// [`MemoryController::tick_into`] returning a fresh `Vec`.
    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// A *lower bound* on the next cycle at which `tick` may change any
    /// observable state (commands issued, completions produced, stats —
    /// including bubbles — or device counters), given that `tick(now)` has
    /// already run. The simulator may skip `tick` for every cycle in
    /// `(now, next_event(now))` without changing results.
    ///
    /// Soundness rule: any lower bound is legal. Returning `now + 1`
    /// (the default) disables skipping; returning a cycle *later* than the
    /// true next event is a bug. `Cycle::MAX` means "never again" (e.g. a
    /// poisoned controller).
    fn next_event(&self, now: Cycle) -> Cycle {
        now + 1
    }

    /// Bulk-advances the controller from `from` toward `until`
    /// (exclusive) in one call, for simulation layers that have proven
    /// the span externally quiet (no core can run, no delivery can
    /// land, no reconfiguration point or monitor deadline inside it).
    /// A supporting controller executes exactly the ticks per-cycle
    /// stepping would — hopping its own [`MemoryController::next_event`]
    /// bounds between them — and stops *after* the first tick that
    /// produces a completion or poisons the controller, appending that
    /// tick's completions to `out`.
    ///
    /// Returns the first cycle *not* processed: `until` when the span
    /// completed cleanly (`out` untouched), `t + 1` when the tick at
    /// `t` ended the span early, or `from` when the controller does not
    /// support bulk advancement here (the default; `out` untouched, no
    /// side effects) and the caller must step per-cycle.
    fn fast_forward(&mut self, from: Cycle, until: Cycle, out: &mut Vec<Completion>) -> Cycle {
        let _ = (until, out);
        from
    }

    /// Refines a cached [`MemoryController::next_event`] bound after
    /// `txn` was enqueued at cycle `now`: a *lower bound* on the next
    /// cycle at which a tick may act *because of `txn`*, assuming the
    /// rest of the controller state is unchanged. The caller takes
    /// `min(old_bound, hint)` as the new bound, so a policy whose
    /// candidate set grows by exactly the new transaction (all other
    /// enqueue side effects can only *delay* issues) can keep its
    /// elision span alive across arrivals instead of resetting it.
    ///
    /// The default of `now + 1` is always sound: it forces a real tick
    /// on the next cycle, which recomputes the full bound.
    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        let _ = txn;
        now + 1
    }

    /// The device this controller drives (counters, open-row state).
    /// Multi-channel controllers return their first channel here; use
    /// [`MemoryController::aggregate_counters`] for whole-system tallies.
    fn device(&self) -> &DramDevice;

    /// Activity counters aggregated over every channel this controller
    /// drives (identical to the device's counters for single-channel
    /// policies).
    fn aggregate_counters(&self) -> fsmc_dram::ActivityCounters {
        self.device().counters().clone()
    }

    /// Finalises counters at the end of simulation.
    fn finish(&mut self, now: Cycle);

    /// Scheduling statistics.
    fn stats(&self) -> &McStats;

    /// The policy this controller implements.
    fn kind(&self) -> SchedulerKind;

    /// Arms the command tap: the device records each applied command
    /// once, as an [`fsmc_dram::ObsCommand`], and slot-cadence schedulers
    /// also record [`SchedEvent`]s. No-op by default. The four
    /// command-log methods below are views of this one tap; both sets of
    /// names remain because wrapping controllers forward both.
    fn record_obs(&mut self) {}

    /// Cheap probe: would [`MemoryController::take_obs_into`] return
    /// anything? Lets per-cycle drains skip the call on quiet cycles.
    /// Default: whether [`MemoryController::device`]'s tap holds any.
    fn has_obs(&self) -> bool {
        self.device().has_obs()
    }

    /// Drains the tap into `out`, reusing the caller's buffer. No-op by
    /// default.
    fn take_obs_into(&mut self, _out: &mut Vec<fsmc_dram::ObsCommand>) {}

    /// Arms the command tap ([`MemoryController::record_obs`]) so the log
    /// can later be replayed through the timing checker.
    fn record_commands(&mut self) {
        self.record_obs();
    }

    /// Takes the tap's commands as a checker stream (empty unless the
    /// tap was armed).
    fn take_command_log(&mut self) -> Vec<fsmc_dram::command::TimedCommand> {
        let mut out = Vec::new();
        self.take_command_log_into(&mut out);
        out
    }

    /// [`MemoryController::has_obs`] under its command-log name.
    fn has_pending_log(&self) -> bool {
        self.has_obs()
    }

    /// Drains the tap into `out` as a checker stream
    /// ([`fsmc_dram::ObsCommand::timed`]).
    fn take_command_log_into(&mut self, out: &mut Vec<fsmc_dram::command::TimedCommand>) {
        let mut obs = Vec::new();
        self.take_obs_into(&mut obs);
        out.extend(obs.iter().map(fsmc_dram::ObsCommand::timed));
    }

    /// Cheap probe: would [`MemoryController::take_sched_events_into`]
    /// return anything? Default: nothing ever.
    fn has_sched_events(&self) -> bool {
        false
    }

    /// Drains scheduler-level observability events into `out`, reusing
    /// the caller's buffer. No-op by default.
    fn take_sched_events_into(&mut self, _out: &mut Vec<SchedEvent>) {}

    /// The violation that poisoned this controller, if a timing fault was
    /// observed after the one permitted degradation. A poisoned
    /// controller stops issuing commands; the simulator surfaces this as
    /// a structured error instead of a panic.
    fn fault(&self) -> Option<Violation> {
        None
    }

    /// Arms deterministic command-stream fault injection. Controllers
    /// without fault support ignore the spec (the default).
    ///
    /// Bound contract: the simulator keeps every fast-path tier on after
    /// this call, so an implementation must keep
    /// [`MemoryController::next_event`] a sound lower bound and
    /// [`MemoryController::fast_forward`] stopping right after a
    /// poisoning tick with faults armed (FS schedules delayed commands as
    /// ordinary events and drops dropped ones before they become events).
    fn inject_command_faults(&mut self, _spec: CmdFaultSpec) {}

    /// Replaces the device's timing parameters while the *schedule* keeps
    /// the parameters it was solved for — the hook fault injection uses
    /// to model silicon that is slower than the controller believes
    /// (e.g. a stretched tRFC). No-op by default; must be called before
    /// the first tick. Controllers without fault support ignore it.
    ///
    /// Bound contract, as for
    /// [`MemoryController::inject_command_faults`]: `next_event` and
    /// `fast_forward` must stay sound on the slower device (FS acts only
    /// at its precomputed slot, event and refresh cycles, and a command
    /// the device refuses there surfaces as a violation at that tick).
    fn set_device_timing(&mut self, _t: TimingParams) {}

    /// The fixed issue cadence this controller has committed to, for
    /// online schedule-integrity monitoring. `None` (the default) means
    /// the policy has no fixed cadence to enforce — baselines, TP, and FS
    /// variants whose discipline is interval- rather than slot-shaped.
    ///
    /// The spec changes when the controller degrades onto the conservative
    /// pipeline; callers must re-query it after a degradation transition.
    fn cadence_spec(&self) -> Option<CadenceSpec> {
        None
    }

    /// The earliest *safe adoption boundary* at or after `now` for a
    /// pending reconfiguration: a cycle at which every in-flight command
    /// of the old epoch has drained and the new epoch's first decision
    /// falls exactly on the fixed cadence. Policies without epochs adopt
    /// immediately (the default).
    fn reconfig_boundary(&self, now: Cycle) -> Cycle {
        now
    }

    /// Atomically applies a batch of [`ReconfigEvent`]s at `now`, which
    /// the caller has aligned to [`MemoryController::reconfig_boundary`].
    /// Policies with a solved pipeline re-solve for the masked topology
    /// and re-certify against Table 1 before adopting; the default (for
    /// policies without fixed service guarantees) absorbs the events as
    /// a no-op — membership changes are handled by the system detaching
    /// or attaching cores.
    ///
    /// # Errors
    ///
    /// The degraded topology admits no certified schedule compatible
    /// with the committed cadence.
    fn reconfigure(
        &mut self,
        events: &[ReconfigEvent],
        now: Cycle,
    ) -> Result<(), crate::error::CoreError> {
        let _ = (events, now);
        Ok(())
    }

    /// The configuration epoch this controller is serving: 0 until the
    /// first successful [`MemoryController::reconfigure`], bumped by one
    /// per adopted reconfiguration.
    fn epoch(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SchedulerKind::FsRankPartitioned.label(), "FS_RP");
        assert_eq!(SchedulerKind::FsTripleAlternation.label(), "FS_NP_Optimized");
        assert_eq!(SchedulerKind::TpBankPartitioned { turn: 60 }.label(), "TP_BP_60");
        assert_eq!(SchedulerKind::TpFence { period: 300 }.label(), "TP_Fence_300");
    }

    #[test]
    fn security_classification() {
        assert!(!SchedulerKind::Baseline.is_secure());
        assert!(!SchedulerKind::BaselinePrefetch.is_secure());
        assert!(SchedulerKind::FsRankPartitioned.is_secure());
        assert!(SchedulerKind::TpNoPartition { turn: 172 }.is_secure());
        assert!(SchedulerKind::TpFence { period: 300 }.is_secure());
    }

    #[test]
    fn partition_policies() {
        assert_eq!(SchedulerKind::FsRankPartitioned.partition_policy(), PartitionPolicy::Rank);
        assert_eq!(
            SchedulerKind::FsReorderedBankPartitioned.partition_policy(),
            PartitionPolicy::BankStriped
        );
        assert_eq!(SchedulerKind::FsTripleAlternation.partition_policy(), PartitionPolicy::None);
        assert_eq!(
            SchedulerKind::TpFence { period: 300 }.partition_policy(),
            PartitionPolicy::None
        );
    }

    #[test]
    fn stats_aggregation() {
        let mut s = McStats::new(2);
        s.domain_mut(DomainId(0)).demand_reads = 6;
        s.domain_mut(DomainId(0)).dummies = 2;
        s.domain_mut(DomainId(1)).demand_writes = 2;
        assert!((s.dummy_fraction() - 0.2).abs() < 1e-12);
        s.row_hits = 3;
        s.row_misses = 1;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_averages() {
        let mut d = DomainStats::default();
        assert_eq!(d.avg_read_latency(), 0.0);
        d.read_latency_sum = 300;
        d.reads_completed = 10;
        assert!((d.avg_read_latency() - 30.0).abs() < 1e-12);
    }
}
