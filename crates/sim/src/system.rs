//! The system simulator: cores + MSHRs + controller + DRAM in one loop.

use crate::config::SystemConfig;
use crate::error::{FsmcError, InvariantBreach, TimingFault, WatchdogReport};
use crate::monitor::InvariantMonitor;
use crate::stats::SystemStats;
use fsmc_core::domain::{DomainId, PartitionPolicy};
use fsmc_core::error::ConfigError;
use fsmc_core::sched::baseline::BaselineScheduler;
use fsmc_core::sched::fs::{FsScheduler, FsVariant};
use fsmc_core::sched::tp::TpScheduler;
use fsmc_core::sched::{
    Completion, MemoryController, ReconfigEvent, SchedEvent, SchedulerKind, SlotGrantKind,
};
use fsmc_core::txn::{Transaction, TxnId, TxnKind};
use fsmc_cpu::trace::TraceSource;
use fsmc_cpu::{CoreIdle, MshrFile, MshrOutcome, OooCore, PrefetchBuffer, SubmitResult};
use fsmc_dram::command::TimedCommand;
use fsmc_dram::geometry::LineAddr;
use fsmc_dram::{CommandKind, ObsCommand};
use fsmc_energy::{EnergyModel, PowerParams};
use fsmc_obs::{
    CmdClass, LaneLayout, LanePartition, MetricsCollector, MetricsReport, SlotKind, TraceEvent,
    TraceSink,
};
use fsmc_workload::{BenchProfile, SyntheticTrace, WorkloadMix};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A completion waiting for its delivery cycle, ordered by finish time.
#[derive(Debug, Clone, Copy)]
struct PendingDelivery {
    finish: u64,
    seq: u64,
    completion: Completion,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        (self.finish, self.seq) == (other.finish, other.seq)
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finish, self.seq).cmp(&(other.finish, other.seq))
    }
}

/// A reconfiguration waiting for its drained epoch boundary.
///
/// Between `requested_at` and `adopt_at` the old schedule keeps running
/// unchanged (the quiesce window); at `adopt_at` — an interval-start
/// decision cycle chosen by [`MemoryController::reconfig_boundary`] — the
/// accumulated events are applied atomically: churned cores detach or
/// attach, the controller re-solves and re-certifies, the monitor arms
/// the new cadence from exactly that cycle.
#[derive(Debug, Clone)]
struct PendingReconfig {
    requested_at: u64,
    adopt_at: u64,
    events: Vec<ReconfigEvent>,
}

/// How the cores' CPU sub-cycles were simulated, summed over cores
/// ([`System::core_counters`]). Exact and deterministic per seed; the
/// three always add up to `cores * cpu_ratio * dram_cycle`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Executed one by one inside [`System::step`].
    pub stepped: u64,
    /// Run as compute spans ([`OooCore::advance_compute`]), inside
    /// skipped spans or for computing cores inside [`System::step`].
    pub computed: u64,
    /// Bulk-charged as stall-only ([`OooCore::skip_stalled`]), detached
    /// cores included.
    pub stalled: u64,
}

/// Whether `core` provably stalls through every CPU cycle before
/// `end_cpu`: full ROB behind a read, or behind a head that retires no
/// earlier than `end_cpu`.
fn stalled_until(core: &OooCore, end_cpu: u64) -> bool {
    match core.idle_until() {
        CoreIdle::Active => false,
        CoreIdle::BlockedOnMemory => true,
        CoreIdle::WakeAt(wake) => wake >= end_cpu,
    }
}

/// How a core crosses a span of CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crossing {
    /// Stall-only throughout (or detached): bulk-charged.
    Stalled,
    /// Pure compute, ending at or before its compute floor.
    Computing,
    /// May read its trace or submit: stepped cycle by cycle.
    Stepped,
}

/// Carries `core` across CPU cycles `from..to` as `how` allows,
/// counting the sub-cycles; a [`Crossing::Stepped`] core is left to the
/// caller.
fn carry(core: &mut OooCore, how: Crossing, from: u64, to: u64, counts: &mut CoreCounters) {
    let span = to - from;
    match how {
        Crossing::Stalled => {
            core.skip_stalled(span, to);
            counts.stalled += span;
        }
        Crossing::Computing => {
            core.advance_compute(from, to);
            counts.computed += span;
        }
        Crossing::Stepped => counts.stepped += span,
    }
}

/// A complete simulated machine: one memory channel and its cores.
///
/// ```
/// use fsmc_sim::{System, SystemConfig};
/// use fsmc_core::sched::SchedulerKind;
/// use fsmc_workload::BenchProfile;
///
/// let cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
/// let mut system = System::homogeneous(&cfg, BenchProfile::zeusmp(), 1);
/// let stats = system.run_cycles(2_000);
/// assert!(stats.ipc_sum() > 0.0);
/// ```
pub struct System {
    cfg: SystemConfig,
    mc: Box<dyn MemoryController>,
    cores: Vec<OooCore>,
    mshrs: Vec<MshrFile>,
    pf_buffers: Vec<PrefetchBuffer>,
    /// Metadata for in-flight demand reads: `(id, core index, local
    /// line)`. A flat vector, not a map — the population is bounded by
    /// `cores * mshr_capacity`, so linear scans beat hashing and the
    /// hot path never allocates.
    txn_meta: Vec<(TxnId, u32, LineAddr)>,
    deliveries: BinaryHeap<Reverse<PendingDelivery>>,
    dram_cycle: u64,
    next_txn_seq: u64,
    delivery_seq: u64,
    policy: PartitionPolicy,
    reads_completed: u64,
    /// Last DRAM cycle at which a demand read retired (or the pipeline
    /// was verifiably idle) — the watchdog's progress marker.
    last_progress: u64,
    /// Per-core lines with writes still queued in the controller: demand
    /// reads to these lines forward from the store (Section 5.1's
    /// "bypassing from stores to loads"). Flat `(line, count)` lists for
    /// the same reason as `txn_meta`.
    pending_writes: Vec<Vec<(LineAddr, u32)>>,
    /// Reads served by store-to-load forwarding.
    forwarded_reads: u64,
    /// Domain whose demand-read completions are being recorded.
    observe_domain: Option<u8>,
    /// (finish cycle, latency) pairs for the observed domain.
    observations: Vec<(u64, u64)>,
    /// Online invariant monitor ([`SystemConfig::monitor`]).
    monitor: Option<InvariantMonitor>,
    /// Commands already seen by the monitor, retained for
    /// [`System::take_command_log`] when recording is also on.
    monitor_log: Vec<TimedCommand>,
    /// Degradation state at the last monitor drain, to detect schedule
    /// swaps and re-arm the cadence spec.
    was_degraded: bool,
    /// Event-driven time skipping enabled? Cleared by
    /// [`System::disable_fastpath`], by `FSMC_NO_FASTPATH=1`, and by any
    /// [`System::controller_mut`] access (external mutation may
    /// invalidate the controllers' `next_event` contract).
    fastpath: bool,
    /// Reusable per-step completion buffer (hot path, no allocation).
    completion_buf: Vec<Completion>,
    /// Reusable buffer for draining the command log into the monitor.
    monitor_buf: Vec<TimedCommand>,
    /// Per-core scratch: is core `i` stepped through this DRAM cycle's
    /// CPU sub-cycles, or already carried across them (bulk-charged as
    /// stalled, or run as a compute span)?
    core_active: Vec<bool>,
    /// Cached [`MemoryController::next_event`] bound: on the fast path,
    /// ticks strictly before this cycle are provable no-ops and are
    /// elided even when cores stay busy. Every `enqueue` lowers it by
    /// the policy's [`MemoryController::enqueue_event_hint`] for the new
    /// transaction (conservative default: re-tick next cycle).
    mc_next_tick: u64,
    /// Scan hysteresis: is a quiet tick allowed to pay for a
    /// [`MemoryController::next_event`] scan? Re-armed by every issuing
    /// tick, disarmed by a scan that finds no gap — in a dense burst a
    /// gap all but requires another issue first, so re-scanning sooner
    /// is almost always wasted work. Purely an effort gate: scans
    /// are pure and elision only drops proven no-op ticks, so results
    /// are bit-identical at any scan frequency.
    elide_armed: bool,
    /// Telemetry: DRAM cycles handled without per-cycle stepping — jumped
    /// outright or batch-ticked by [`System::skip_ahead`].
    fp_skipped: u64,
    /// Telemetry: controller ticks elided inside stepped cycles.
    fp_elided: u64,
    /// Telemetry: how CPU sub-cycles were simulated.
    core_counts: CoreCounters,
    /// Observability: trace-event recorder ([`System::enable_tracing`]).
    /// `None` keeps every hook a single branch — nothing is built,
    /// nothing allocates, results are bit-identical to a build without
    /// the hooks.
    trace: Option<TraceSink>,
    /// Observability: per-domain metrics ([`System::enable_metrics`]).
    obs_metrics: Option<MetricsCollector>,
    /// Reusable drain buffer for the device-level obs command log.
    obs_cmd_buf: Vec<ObsCommand>,
    /// Reusable drain buffer for scheduler slot/degradation events.
    obs_sched_buf: Vec<SchedEvent>,
    /// Is core `i` an active tenant? Distinct from the per-step
    /// `core_active` scratch: a detached core (left, killed by a dead
    /// rank, or not yet joined) is bulk-charged as stalled every cycle
    /// and never vetoes a skip, while its domain's slots carry dummies.
    attached: Vec<bool>,
    /// Scheduled reconfiguration events, sorted by fire cycle (stable
    /// for same-cycle events). [`System::step`] promotes due events into
    /// `pending_reconfig`.
    reconfig_queue: Vec<(u64, ReconfigEvent)>,
    /// The reconfiguration currently quiescing toward its boundary.
    pending_reconfig: Option<PendingReconfig>,
    /// A re-certification failure at adoption, surfaced by the next
    /// health check as a typed error.
    reconfig_error: Option<FsmcError>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("scheduler", &self.cfg.scheduler)
            .field("cores", &self.cores.len())
            .field("dram_cycle", &self.dram_cycle)
            .finish()
    }
}

/// Builds the controller `cfg` describes; FS variants report solver or
/// configuration failures instead of panicking.
pub fn try_build_controller(cfg: &SystemConfig) -> Result<Box<dyn MemoryController>, FsmcError> {
    let g = cfg.geometry;
    let t = cfg.timing;
    let n = cfg.cores;
    let fs = |variant, prefetch| {
        FsScheduler::try_new(g, t, n, variant, prefetch, cfg.energy_options)
            .map(|s| Box::new(s) as Box<dyn MemoryController>)
            .map_err(FsmcError::from)
    };
    Ok(match cfg.scheduler {
        SchedulerKind::Baseline => Box::new(BaselineScheduler::new(g, t, n, false)),
        SchedulerKind::BaselinePrefetch => Box::new(BaselineScheduler::new(g, t, n, true)),
        SchedulerKind::TpBankPartitioned { turn } => {
            Box::new(TpScheduler::new(g, t, n, true, turn))
        }
        SchedulerKind::TpNoPartition { turn } => Box::new(TpScheduler::new(g, t, n, false, turn)),
        SchedulerKind::TpFence { period } => {
            Box::new(fsmc_core::sched::fence::FenceScheduler::new(g, t, n, period))
        }
        SchedulerKind::FsRankPartitioned => fs(FsVariant::RankPartitioned, false)?,
        SchedulerKind::FsRankPartitionedPrefetch => fs(FsVariant::RankPartitioned, true)?,
        SchedulerKind::FsBankPartitioned => fs(FsVariant::BankPartitioned, false)?,
        SchedulerKind::FsReorderedBankPartitioned => {
            fs(FsVariant::ReorderedBankPartitioned, false)?
        }
        SchedulerKind::FsNoPartitionNaive => fs(FsVariant::NoPartitionNaive, false)?,
        SchedulerKind::FsTripleAlternation => fs(FsVariant::TripleAlternation, false)?,
        SchedulerKind::ChannelPartitioned => {
            Box::new(fsmc_core::sched::channel_part::ChannelPartitionedController::new(g, t, n))
        }
        SchedulerKind::FsMultiChannel { channels } => {
            Box::new(fsmc_core::sched::multi_channel::MultiChannelFs::new(
                g,
                t,
                n,
                channels,
                FsVariant::RankPartitioned,
                cfg.energy_options,
            ))
        }
    })
}

fn build_controller(cfg: &SystemConfig) -> Box<dyn MemoryController> {
    try_build_controller(cfg).unwrap_or_else(|e| panic!("controller construction failed: {e}"))
}

impl System {
    /// Builds a system with one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn new(cfg: &SystemConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        let mc = build_controller(cfg);
        System::with_controller(cfg, traces, mc)
    }

    /// Fallible [`System::new`]: solver and configuration failures come
    /// back as [`FsmcError`] values instead of panics.
    ///
    /// # Errors
    ///
    /// [`FsmcError::Config`] for a trace/core-count mismatch,
    /// [`FsmcError::Solve`] when no pipeline (not even the conservative
    /// fallback) is feasible for the configured timing.
    pub fn try_new(
        cfg: &SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
    ) -> Result<Self, FsmcError> {
        if traces.len() != cfg.cores as usize {
            return Err(ConfigError::new(format!(
                "one trace per core required: {} traces for {} cores",
                traces.len(),
                cfg.cores
            ))
            .into());
        }
        let mc = try_build_controller(cfg)?;
        Ok(System::with_controller(cfg, traces, mc))
    }

    /// Fallible [`System::from_mix`].
    ///
    /// # Errors
    ///
    /// As for [`System::try_new`].
    pub fn try_from_mix(
        cfg: &SystemConfig,
        mix: &WorkloadMix,
        seed: u64,
    ) -> Result<Self, FsmcError> {
        let traces: Vec<Box<dyn TraceSource>> = mix
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(SyntheticTrace::new(*p, seed + i as u64)) as Box<dyn TraceSource>
            })
            .collect();
        System::try_new(cfg, traces)
    }

    /// Builds a system around a caller-supplied controller — e.g. an
    /// [`FsScheduler`] with a weighted SLA
    /// ([`FsScheduler::with_slot_weights`]), or a custom policy
    /// implementing [`MemoryController`]. `cfg.scheduler` should still
    /// describe the controller so address mapping matches its partition
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn with_controller(
        cfg: &SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        controller: Box<dyn MemoryController>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores as usize, "one trace per core required");
        let mut mc = controller;
        if cfg.record_commands || cfg.monitor {
            mc.record_commands();
        }
        let monitor = cfg.monitor.then(|| InvariantMonitor::new(cfg, mc.cadence_spec()));
        let was_degraded = mc.stats().degraded;
        let mut sys = System {
            cfg: *cfg,
            mc,
            cores: traces.into_iter().map(|t| OooCore::new(cfg.core, t)).collect(),
            mshrs: (0..cfg.cores).map(|_| MshrFile::new(cfg.mshr_capacity)).collect(),
            pf_buffers: (0..cfg.cores).map(|_| PrefetchBuffer::new(cfg.prefetch_buffer)).collect(),
            txn_meta: Vec::new(),
            deliveries: BinaryHeap::new(),
            dram_cycle: 0,
            next_txn_seq: 1,
            delivery_seq: 0,
            policy: cfg.scheduler.partition_policy(),
            reads_completed: 0,
            last_progress: 0,
            pending_writes: (0..cfg.cores).map(|_| Vec::new()).collect(),
            forwarded_reads: 0,
            observe_domain: None,
            observations: Vec::new(),
            monitor,
            monitor_log: Vec::new(),
            was_degraded,
            fastpath: !crate::env::no_fastpath(),
            completion_buf: Vec::new(),
            monitor_buf: Vec::new(),
            core_active: vec![true; cfg.cores as usize],
            mc_next_tick: 0,
            elide_armed: true,
            fp_skipped: 0,
            fp_elided: 0,
            core_counts: CoreCounters::default(),
            trace: None,
            obs_metrics: None,
            obs_cmd_buf: Vec::new(),
            obs_sched_buf: Vec::new(),
            attached: vec![true; cfg.cores as usize],
            reconfig_queue: Vec::new(),
            pending_reconfig: None,
            reconfig_error: None,
        };
        if cfg.collect_metrics {
            sys.enable_metrics();
        }
        sys
    }

    /// `cores` copies of one benchmark (the paper's rate mode).
    pub fn homogeneous(cfg: &SystemConfig, profile: BenchProfile, seed: u64) -> Self {
        let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
            .map(|i| {
                Box::new(SyntheticTrace::new(profile, seed + i as u64)) as Box<dyn TraceSource>
            })
            .collect();
        System::new(cfg, traces)
    }

    /// One core per profile in the mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix size differs from `cfg.cores`.
    pub fn from_mix(cfg: &SystemConfig, mix: &WorkloadMix, seed: u64) -> Self {
        assert_eq!(mix.cores(), cfg.cores as usize, "mix size must match core count");
        let traces: Vec<Box<dyn TraceSource>> = mix
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(SyntheticTrace::new(*p, seed + i as u64)) as Box<dyn TraceSource>
            })
            .collect();
        System::new(cfg, traces)
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    pub fn dram_cycle(&self) -> u64 {
        self.dram_cycle
    }

    pub fn controller(&self) -> &dyn MemoryController {
        self.mc.as_ref()
    }

    /// Mutable controller access, e.g. to arm fault injection
    /// ([`MemoryController::inject_command_faults`]) or model slow
    /// silicon ([`MemoryController::set_device_timing`]) before a run.
    ///
    /// Also disables the event-driven fast path: an externally mutated
    /// controller (delayed commands, stretched refresh, swapped device
    /// timing) may no longer honour the [`MemoryController::next_event`]
    /// lower-bound contract, so the run falls back to per-cycle stepping.
    pub fn controller_mut(&mut self) -> &mut dyn MemoryController {
        self.fastpath = false;
        self.mc.as_mut()
    }

    /// Forces per-cycle stepping for the rest of this system's life.
    /// Equivalent to running under `FSMC_NO_FASTPATH=1`; results are
    /// bit-identical either way, only wall-clock time changes.
    pub fn disable_fastpath(&mut self) {
        self.fastpath = false;
    }

    /// Whether event-driven time skipping is still armed.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath
    }

    /// Schedules a reconfiguration event to fire at DRAM cycle `at`.
    ///
    /// The event does not take effect at `at`: it is promoted into a
    /// pending reconfiguration whose adoption waits for the controller's
    /// next drained epoch boundary ([`MemoryController::reconfig_boundary`]),
    /// so the slot cadence is never disturbed mid-interval. A
    /// [`ReconfigEvent::DomainJoin`] detaches its core *now* — the tenant
    /// does not exist until the boundary at which it joins.
    pub fn schedule_reconfig(&mut self, at: u64, event: ReconfigEvent) {
        if let ReconfigEvent::DomainJoin { domain } = event {
            self.detach_core(domain as usize);
        }
        let pos = self
            .reconfig_queue
            .iter()
            .position(|&(a, _)| a > at)
            .unwrap_or(self.reconfig_queue.len());
        self.reconfig_queue.insert(pos, (at, event));
    }

    /// The adoption cycle of the in-flight reconfiguration, if one is
    /// quiescing toward its boundary.
    pub fn reconfig_pending_at(&self) -> Option<u64> {
        self.pending_reconfig.as_ref().map(|p| p.adopt_at)
    }

    /// Whether core `i` is currently an attached tenant.
    pub fn is_attached(&self, core: usize) -> bool {
        self.attached.get(core).copied().unwrap_or(false)
    }

    /// Detaches a tenant: its outstanding reads are forgotten (late
    /// deliveries are discarded) and from now on it is bulk-charged as
    /// stalled. Controller-side queue drops happen in
    /// [`MemoryController::reconfigure`].
    fn detach_core(&mut self, i: usize) {
        if i >= self.attached.len() || !self.attached[i] {
            return;
        }
        self.attached[i] = false;
        self.txn_meta.retain(|&(_, core, _)| core as usize != i);
    }

    /// Promotes due events into the pending reconfiguration and adopts
    /// it once the boundary arrives. Runs at the top of [`System::step`],
    /// so adoption lands *before* the boundary cycle's controller tick.
    fn process_reconfig(&mut self, c: u64) {
        while let Some(&(at, ev)) = self.reconfig_queue.first() {
            if at > c {
                break;
            }
            self.reconfig_queue.remove(0);
            let boundary = self.mc.reconfig_boundary(c);
            match &mut self.pending_reconfig {
                Some(p) => {
                    // Events landing mid-quiesce join the pending epoch
                    // switch; the boundary only ever moves later, so
                    // every merged event still gets its full margin.
                    p.adopt_at = p.adopt_at.max(boundary);
                    p.events.push(ev);
                }
                None => {
                    self.pending_reconfig = Some(PendingReconfig {
                        requested_at: c,
                        adopt_at: boundary,
                        events: vec![ev],
                    });
                }
            }
        }
        if self.pending_reconfig.as_ref().is_some_and(|p| c >= p.adopt_at) {
            self.adopt_reconfig(c);
        }
    }

    /// Atomically adopts the pending reconfiguration at its boundary:
    /// churned cores detach/attach, the controller re-solves and
    /// re-certifies for the degraded topology, and the monitor arms the
    /// post-boundary cadence from exactly this cycle.
    fn adopt_reconfig(&mut self, c: u64) {
        let pending =
            self.pending_reconfig.take().expect("adoption requires a pending reconfiguration");
        debug_assert!(pending.requested_at <= c);
        let (domains, ranks) = (self.attached.len() as u8, self.cfg.geometry.ranks_per_channel());
        for ev in &pending.events {
            match *ev {
                ReconfigEvent::DomainLeave { domain } => self.detach_core(domain as usize),
                ReconfigEvent::DomainJoin { domain } => {
                    let i = domain as usize;
                    if i < self.attached.len() {
                        self.attached[i] = true;
                    }
                }
                ReconfigEvent::DeadRank { .. } if matches!(self.policy, PartitionPolicy::Rank) => {
                    // Under rank partitioning the dead rank's tenant has
                    // nowhere left to live: force-detach it.
                    if let Some(d) = ev.touched_domain(domains, ranks) {
                        self.detach_core(d as usize);
                    }
                }
                _ => {}
            }
        }
        if let Err(e) = self.mc.reconfigure(&pending.events, c) {
            self.reconfig_error = Some(e.into());
        }
        if let Some(mon) = &mut self.monitor {
            // Commands issued before the boundary are judged against the
            // old cadence, commands from the boundary on against the new
            // one — the transition window itself is fully covered.
            mon.set_cadence_at(self.mc.cadence_spec(), c);
        }
        // The controller's event bound predates the reconfiguration:
        // force a re-tick and a fresh scan.
        self.mc_next_tick = c;
        self.elide_armed = true;
    }

    /// Fast-path effectiveness telemetry: `(skipped, elided)` — DRAM
    /// cycles handled without per-cycle stepping (jumped or
    /// batch-ticked), and controller ticks elided as proven no-ops.
    /// Both are zero with the fast path off.
    pub fn fastpath_counters(&self) -> (u64, u64) {
        (self.fp_skipped, self.fp_elided)
    }

    /// Core-stepping telemetry: CPU sub-cycles stepped, advanced in
    /// compute spans, and bulk-charged as stalled, summed over cores.
    pub fn core_counters(&self) -> CoreCounters {
        self.core_counts
    }

    /// Takes the recorded command log (empty unless recording enabled).
    /// With the monitor on, commands it has already drained from the
    /// device are included ahead of any still in the controller.
    pub fn take_command_log(&mut self) -> Vec<TimedCommand> {
        let mut log = std::mem::take(&mut self.monitor_log);
        log.extend(self.mc.take_command_log());
        log
    }

    /// Arms trace-event recording: every command issue, transaction
    /// arrival/retire, FS slot grant, refresh, degradation and fast-path
    /// skip lands in the sink, for [`System::take_trace`]. Call before
    /// running; it does not disable the fast path (skips are themselves
    /// events).
    pub fn enable_tracing(&mut self) {
        self.mc.record_obs();
        if self.trace.is_none() {
            self.trace = Some(TraceSink::new());
        }
    }

    /// Arms per-domain metrics collection (latency histograms, row
    /// locality, queue occupancy), for [`System::metrics_report`].
    pub fn enable_metrics(&mut self) {
        self.mc.record_obs();
        if self.obs_metrics.is_none() {
            let g = self.cfg.geometry;
            self.obs_metrics = Some(MetricsCollector::new(
                self.cfg.cores,
                g.ranks_per_channel(),
                g.banks_per_rank(),
            ));
        }
    }

    /// Whether any observability consumer is armed.
    fn obs_on(&self) -> bool {
        self.trace.is_some() || self.obs_metrics.is_some()
    }

    /// Takes the recorded trace events (empty unless
    /// [`System::enable_tracing`] ran), draining anything still buffered
    /// controller-side first. Recording continues afterwards.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        if self.obs_on() {
            self.drain_obs();
        }
        match &mut self.trace {
            Some(sink) => std::mem::take(sink).into_events(),
            None => Vec::new(),
        }
    }

    /// Freezes the armed metrics into a report (`None` unless
    /// [`System::enable_metrics`] ran). The report is a pure function of
    /// the deterministic event stream: byte-identical at any
    /// `FSMC_THREADS` value and on either simulation path.
    pub fn metrics_report(&mut self) -> Option<MetricsReport> {
        self.obs_metrics.as_ref()?;
        self.drain_obs();
        self.mc.finish(self.dram_cycle);
        let util = self.mc.aggregate_counters().data_bus_utilization();
        self.obs_metrics.as_ref().map(|m| m.finish(util))
    }

    /// The lane layout (geometry + partition policy) the Chrome trace
    /// exporter needs to color command lanes by owning domain.
    pub fn lane_layout(&self) -> LaneLayout {
        let partition = match self.policy {
            PartitionPolicy::Rank => LanePartition::Rank,
            PartitionPolicy::BankStriped => LanePartition::BankStriped,
            PartitionPolicy::None => LanePartition::None,
        };
        LaneLayout {
            domains: self.cfg.cores,
            ranks: self.cfg.geometry.ranks_per_channel(),
            banks_per_rank: self.cfg.geometry.banks_per_rank(),
            partition,
        }
    }

    /// Converts a drained device command into its trace event. Refresh
    /// gets its own event kind; everything else keeps its command class.
    fn obs_command_event(oc: &ObsCommand) -> TraceEvent {
        let class = match oc.cmd.kind {
            CommandKind::Refresh => {
                return TraceEvent::Refresh { cycle: oc.cycle, rank: oc.cmd.rank.0 }
            }
            CommandKind::Activate => CmdClass::Activate,
            CommandKind::Read => CmdClass::Read,
            CommandKind::ReadAp => CmdClass::ReadAp,
            CommandKind::Write => CmdClass::Write,
            CommandKind::WriteAp => CmdClass::WriteAp,
            CommandKind::Precharge => CmdClass::Precharge,
            CommandKind::PrechargeAll => CmdClass::PrechargeAll,
            CommandKind::PowerDownEnter => CmdClass::PowerDownEnter,
            CommandKind::PowerDownExit => CmdClass::PowerDownExit,
        };
        TraceEvent::Command {
            cycle: oc.cycle,
            class,
            rank: oc.cmd.rank.0,
            bank: oc.cmd.bank.0,
            row: oc.cmd.row.0,
            suppressed: oc.suppressed,
            data_done: oc.data_done,
        }
    }

    fn obs_sched_event(ev: &SchedEvent) -> TraceEvent {
        match *ev {
            SchedEvent::SlotGrant { cycle, slot, domain, kind } => {
                let kind = match kind {
                    SlotGrantKind::Demand => SlotKind::Demand,
                    SlotGrantKind::Prefetch => SlotKind::Prefetch,
                    SlotGrantKind::Dummy => SlotKind::Dummy,
                    SlotGrantKind::PowerDown => SlotKind::PowerDown,
                    SlotGrantKind::Bubble => SlotKind::Bubble,
                };
                TraceEvent::SlotGrant { cycle, slot, domain: domain.0, kind }
            }
            SchedEvent::Degraded { cycle } => TraceEvent::Degraded { cycle },
            SchedEvent::Reconfigured { cycle, epoch } => TraceEvent::Reconfigured { cycle, epoch },
        }
    }

    /// Drains controller-side observability logs into the armed
    /// consumers. Commands arrive in issue order, so downstream
    /// classification (row locality) sees exactly the bus stream.
    fn drain_obs(&mut self) {
        if self.mc.has_obs() {
            let mut cmds = std::mem::take(&mut self.obs_cmd_buf);
            cmds.clear();
            self.mc.take_obs_into(&mut cmds);
            for oc in &cmds {
                let ev = Self::obs_command_event(oc);
                if let Some(m) = &mut self.obs_metrics {
                    m.on_event(&ev);
                }
                if let Some(t) = &mut self.trace {
                    t.push(ev);
                }
            }
            self.obs_cmd_buf = cmds;
        }
        if self.mc.has_sched_events() {
            let mut evs = std::mem::take(&mut self.obs_sched_buf);
            evs.clear();
            self.mc.take_sched_events_into(&mut evs);
            for se in &evs {
                let ev = Self::obs_sched_event(se);
                if let Some(m) = &mut self.obs_metrics {
                    m.on_event(&ev);
                }
                if let Some(t) = &mut self.trace {
                    t.push(ev);
                }
            }
            self.obs_sched_buf = evs;
        }
    }

    /// Advances one DRAM bus cycle (and the corresponding CPU cycles).
    pub fn step(&mut self) {
        let c = self.dram_cycle;
        // 0. Reconfiguration protocol: promote due events, adopt at the
        // boundary. A single branch on the common (no reconfig) path.
        if !self.reconfig_queue.is_empty() || self.pending_reconfig.is_some() {
            self.process_reconfig(c);
        }
        // 1. Controller tick into the reusable buffer (no allocation).
        // On the fast path the call itself is elided while the
        // controller's own `next_event` bound proves it a no-op and no
        // enqueue has touched the controller since the bound was taken —
        // this is what makes busy-but-gapped schedules (tRCD/tRP waits,
        // refresh windows) cheap even while cores keep executing.
        let ticked = !self.fastpath || c >= self.mc_next_tick;
        self.fp_elided += !ticked as u64;
        // 2. Deliver previously staged data whose time has come. Staged
        // entries carry lower sequence numbers than anything produced
        // this tick, so draining them first preserves the historical
        // (finish, seq) delivery order. The tick never reads core or
        // delivery state, so draining before it is observationally
        // identical and keeps the elided-tick path free of buffer work.
        while let Some(Reverse(d)) = self.deliveries.peek().copied() {
            if d.finish > c {
                break;
            }
            self.deliveries.pop();
            self.deliver(d.completion);
        }
        // 3. This tick's completions: deliver due data directly (the
        // common case — no heap traffic at all), stage only the future.
        if ticked {
            let mut buf = std::mem::take(&mut self.completion_buf);
            buf.clear();
            self.mc.tick_into(c, &mut buf);
            if self.fastpath && self.mc.device().last_issue_at() != Some(c) {
                // Quiet tick: pay for one next_event call to start (or
                // extend) an elision span — but only while armed, so a
                // dense burst costs one failed scan per issue rather
                // than one per quiet tick. Issuing ticks skip the call —
                // a busy controller would return `c + 1` anyway.
                if self.elide_armed {
                    self.mc_next_tick = self.mc.next_event(c);
                    self.elide_armed = self.mc_next_tick > c + 1;
                }
            } else {
                self.elide_armed = true;
            }
            for completion in buf.drain(..) {
                if completion.finish <= c {
                    self.deliver(completion);
                } else {
                    self.delivery_seq += 1;
                    self.deliveries.push(Reverse(PendingDelivery {
                        finish: completion.finish,
                        seq: self.delivery_seq,
                        completion,
                    }));
                }
            }
            self.completion_buf = buf;
            if self.obs_on() {
                self.drain_obs();
            }
        }
        // 4. CPU cycles. Cores provably stalled for the whole DRAM cycle
        // (full ROB, nothing delivered above, head not retirable before
        // the cycle ends) are bulk-charged, and cores whose compute
        // floor lies past it run it as a compute span: neither can
        // submit, so only the rest need stepping sub-cycle by sub-cycle,
        // interleaved in core order as their submits must be.
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let (start_cpu, end_cpu) = (c * ratio, (c + 1) * ratio);
        let fastpath = self.fastpath;
        let mut any_stepped = false;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let how = if !self.attached[i] || (fastpath && stalled_until(core, end_cpu)) {
                Crossing::Stalled
            } else if fastpath && core.compute_floor(start_cpu).is_some_and(|f| f >= end_cpu) {
                Crossing::Computing
            } else {
                Crossing::Stepped
            };
            self.core_active[i] = how == Crossing::Stepped;
            any_stepped |= how == Crossing::Stepped;
            carry(core, how, start_cpu, end_cpu, &mut self.core_counts);
        }
        if any_stepped {
            for sub in 0..ratio {
                let cpu_now = c * ratio + sub;
                self.cpu_cycle(cpu_now);
            }
        }
        // 5. Online invariant monitoring over this cycle's commands.
        if self.monitor.is_some() {
            self.drain_monitor(c);
        }
        self.dram_cycle += 1;
    }

    /// Event-driven time skipping: jumps `dram_cycle` forward over a
    /// span in which *nothing observable can happen* between the cores
    /// and the memory system, carrying each core across it on its own
    /// ([`System::advance_cores`]).
    ///
    /// Called after [`System::step`]; `limit` is the run loop's own
    /// bound (never skip past the end of the run), `health_checked`
    /// says whether the caller runs [`System::health_check`] per step
    /// (and therefore whether the watchdog clock is live), and
    /// `retire_cap` — `(core, n)` — keeps that core from retiring `n`
    /// more instructions inside the span (a profile's next bucket).
    ///
    /// The jump target is the minimum of every source of future events:
    ///
    /// * the controller's [`MemoryController::next_event`] lower bound
    ///   (sound by contract: `tick` is a no-op before it);
    /// * the earliest staged delivery (nothing can retire before it);
    /// * each core's next contact with the memory system — a core
    ///   blocked on memory imposes no bound, a core draining a
    ///   fixed-latency instruction into a full ROB wakes at its retire
    ///   cycle, and a computing core bounds the span at its
    ///   [`OooCore::compute_floor`] (or vetoes the skip when it has
    ///   none: its next cycle may read the trace or submit);
    /// * the monitor's next wall-clock deadline poll (a skipped poll
    ///   would latch a breach at a different cycle);
    /// * the watchdog's trigger point, so a starved run still aborts at
    ///   the exact per-cycle-identical cycle.
    ///
    /// No core submits inside the span and nothing is delivered to one,
    /// so the controller never sees a core, and each core's stall
    /// charges or compute cycles reproduce per-cycle statistics bit for
    /// bit ([`OooCore::skip_stalled`], [`OooCore::advance_compute`]).
    ///
    /// When the controller is hot (no cached no-op bound), the span is
    /// handed to [`System::batch_ticks`] instead: the ticks still run,
    /// only the per-step core and delivery machinery is dropped.
    fn skip_ahead(&mut self, limit: u64, health_checked: bool, retire_cap: Option<(usize, u64)>) {
        if !self.fastpath {
            return;
        }

        let now = self.dram_cycle;
        debug_assert!(now > 0, "skip_ahead runs only after a step");
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let mut target = limit;
        // A skipped span must not cross a reconfiguration point: event
        // promotion and boundary adoption happen in `step`, so both the
        // jump and the batch-tick path stop exactly there.
        if let Some(&(at, _)) = self.reconfig_queue.first() {
            target = target.min(at);
        }
        if let Some(p) = &self.pending_reconfig {
            target = target.min(p.adopt_at);
        }
        if target <= now {
            return;
        }
        // Cheapest veto next: an attached core that may read its trace
        // or submit next cycle ends the attempt before the controller
        // scan is even paid for. Detached cores are bulk-charged like
        // stalled ones and never veto.
        let now_cpu = now * ratio;
        for (i, core) in self.cores.iter().enumerate() {
            if !self.attached[i] {
                continue;
            }
            let wake = match core.idle_until() {
                CoreIdle::BlockedOnMemory => continue,
                CoreIdle::WakeAt(retire_at) if retire_at / ratio > now => retire_at,
                _ => {
                    let Some(floor) = core.compute_floor(now_cpu) else { return };
                    if let Some((_, left)) = retire_cap.filter(|&(c, _)| c == i) {
                        // At most `width` retires per CPU cycle: stop the
                        // span before the capped core could reach `left`.
                        let per_cycle = ratio * self.cfg.core.width as u64;
                        target = target.min(now + (left - 1) / per_cycle);
                    }
                    floor
                }
            };
            target = target.min(wake / ratio);
        }
        if target <= now {
            return;
        }
        if let Some(Reverse(d)) = self.deliveries.peek() {
            target = target.min(d.finish);
        }
        if target <= now {
            return;
        }
        if let Some(mon) = &self.monitor {
            target = target.min(mon.next_wall_deadline(now - 1));
        }
        if health_checked && !self.txn_meta.is_empty() && self.cfg.watchdog_cycles > 0 {
            target = target.min(self.last_progress + self.cfg.watchdog_cycles);
        }
        if target <= now {
            return;
        }
        // Controller side. With a cached no-op bound on file (from the
        // last quiet tick, lowered by enqueue hints since), jump the
        // clock outright. With none — the last tick issued a command,
        // so the controller is hot and a fresh `next_event` scan would
        // bound the skip at about one cycle, costing as much as the
        // tick it saves — grind the controller alone instead: no core
        // touches memory before `target`, so their per-cycle stepping
        // machinery can be dropped even though the ticks cannot.
        if self.mc_next_tick > now {
            let target = target.min(self.mc_next_tick);
            if target <= now {
                return;
            }
            self.advance_cores(now, target);
            self.fp_skipped += target - now;
            self.dram_cycle = target;
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::FastPath { from: now, to: target, batched: false });
            }
        } else {
            self.batch_ticks(target);
        }
        if health_checked && self.txn_meta.is_empty() {
            // health_check would have restarted the stall clock at every
            // skipped cycle; land it where per-cycle stepping would.
            self.last_progress = self.dram_cycle;
        }
    }

    /// Controller-only execution over a span in which no core touches
    /// the memory system but the controller itself is mid-burst: runs
    /// the same ticks per-cycle stepping would (eliding proven no-op
    /// ticks along the way) without the per-step core-classification
    /// and delivery machinery, then carries the cores across the span
    /// once, like a skip. Stops at `until`, or earlier as soon as a tick
    /// produces a completion due inside the span (its delivery could
    /// wake a core).
    /// Observationally identical to stepping: the same ticks run at the
    /// same cycles, completions are staged with the same sequence
    /// numbers, and the monitor drains after every real tick.
    ///
    /// When no per-tick observer is armed (monitor, command/obs
    /// recording), the span is first offered to the controller's own
    /// [`MemoryController::fast_forward`]: a supporting controller
    /// (the pure-FS family) replays its event loop in one call —
    /// stopping right after the first completion-producing tick, whose
    /// completions then flow through the staging below unchanged —
    /// while the default declines and the per-cycle grind proceeds.
    fn batch_ticks(&mut self, mut until: u64) {
        let start = self.dram_cycle;
        let mut c = start;
        let mut buf = std::mem::take(&mut self.completion_buf);
        let opaque = self.monitor.is_none() && !self.obs_on();
        while c < until {
            buf.clear();
            if opaque {
                let r = self.mc.fast_forward(c, until, &mut buf);
                if r == until && buf.is_empty() {
                    // Clean hop to the span end: every tick in the span
                    // ran (or was provably a no-op) without completing
                    // anything. Re-arm the elision scan and finish.
                    c = until;
                    self.elide_armed = true;
                    break;
                }
                if r > c {
                    // The tick at `r - 1` produced completions (or a
                    // fault); resume the per-tick bookkeeping there.
                    c = r - 1;
                } else {
                    self.mc.tick_into(c, &mut buf);
                }
            } else {
                self.mc.tick_into(c, &mut buf);
            }
            let quiet = self.mc.device().last_issue_at() != Some(c);
            for completion in buf.drain(..) {
                if completion.finish <= c {
                    // Same-cycle data (impossible for real CAS timing,
                    // but mirror `step` exactly): deliver now and stop —
                    // a core may have woken.
                    self.deliver(completion);
                    until = c + 1;
                } else {
                    until = until.min(completion.finish);
                    self.delivery_seq += 1;
                    self.deliveries.push(Reverse(PendingDelivery {
                        finish: completion.finish,
                        seq: self.delivery_seq,
                        completion,
                    }));
                }
            }
            if self.monitor.is_some() {
                self.drain_monitor(c);
            }
            if self.obs_on() {
                self.drain_obs();
            }
            if quiet {
                if self.elide_armed {
                    self.mc_next_tick = self.mc.next_event(c);
                    self.elide_armed = self.mc_next_tick > c + 1;
                    let jump = self.mc_next_tick.min(until);
                    if jump > c + 1 {
                        self.fp_elided += jump - c - 1;
                        c = jump;
                        continue;
                    }
                }
            } else {
                self.elide_armed = true;
            }
            c += 1;
        }
        self.completion_buf = buf;
        self.advance_cores(start, c);
        self.fp_skipped += c - start;
        self.dram_cycle = c;
        if c > start {
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::FastPath { from: start, to: c, batched: true });
            }
        }
    }

    /// Carries every core across the skipped DRAM cycles `from..to`.
    /// Cores that cannot act before the span ends (detached, blocked on
    /// memory, or waking after it) are bulk-charged as stalled; the rest
    /// run their CPU cycles with no memory system attached
    /// ([`OooCore::advance_compute`]) — [`System::skip_ahead`] ended the
    /// span at each such core's compute floor.
    fn advance_cores(&mut self, from: u64, to: u64) {
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let (from_cpu, to_cpu) = (from * ratio, to * ratio);
        for (i, core) in self.cores.iter_mut().enumerate() {
            let how = if !self.attached[i] || stalled_until(core, to_cpu) {
                Crossing::Stalled
            } else {
                Crossing::Computing
            };
            carry(core, how, from_cpu, to_cpu, &mut self.core_counts);
        }
    }

    /// Feeds the monitor everything the controller issued since the last
    /// drain and runs the wall-clock invariants for this cycle.
    fn drain_monitor(&mut self, now: u64) {
        let mut cmds = std::mem::take(&mut self.monitor_buf);
        cmds.clear();
        if self.mc.has_pending_log() {
            self.mc.take_command_log_into(&mut cmds);
        }
        let degraded = self.mc.stats().degraded;
        let transition = degraded != self.was_degraded;
        self.was_degraded = degraded;
        // On a degradation transition the drained batch straddles the
        // schedule swap: commands issued under the old pipeline must not
        // be judged against the new anchors. Suspend cadence checks for
        // this batch only, then re-arm on the controller's new spec
        // (None while degraded — the conservative pipeline has no solved
        // cadence to enforce).
        let new_cadence = transition.then(|| self.mc.cadence_spec());
        let outstanding = self.txn_meta.len();
        let bound = self.cores.len() * self.cfg.mshr_capacity;
        let mon = self.monitor.as_mut().expect("drain_monitor requires the monitor");
        if transition {
            mon.set_cadence(None);
        }
        for tc in &cmds {
            mon.observe(tc);
        }
        if let Some(cadence) = new_cadence {
            mon.set_cadence(cadence);
        }
        mon.on_cycle(now, outstanding, bound);
        if self.cfg.record_commands {
            self.monitor_log.extend(cmds.iter().copied());
        }
        self.monitor_buf = cmds;
    }

    fn deliver(&mut self, completion: Completion) {
        let txn = completion.txn;
        if txn.is_write {
            // The write has been transmitted: close its forwarding window.
            let pending = &mut self.pending_writes[txn.domain.0 as usize];
            if let Some(pos) = pending.iter().position(|&(line, _)| line == txn.local_addr) {
                pending[pos].1 -= 1;
                if pending[pos].1 == 0 {
                    pending.swap_remove(pos);
                }
            }
            return;
        }
        match txn.kind {
            TxnKind::Demand => {
                if self.observe_domain == Some(txn.domain.0) && !txn.is_write {
                    self.observations
                        .push((completion.finish, completion.finish.saturating_sub(txn.arrival)));
                }
                if self.obs_on() {
                    let ev = TraceEvent::TxnRetire {
                        arrival: txn.arrival,
                        finish: completion.finish,
                        domain: txn.domain.0,
                    };
                    if let Some(m) = &mut self.obs_metrics {
                        m.on_event(&ev);
                    }
                    if let Some(t) = &mut self.trace {
                        t.push(ev);
                    }
                }
                if let Some(pos) = self.txn_meta.iter().position(|&(id, _, _)| id == txn.id) {
                    let (_, core, local) = self.txn_meta.swap_remove(pos);
                    let core_idx = core as usize;
                    for tag in self.mshrs[core_idx].complete(local) {
                        self.cores[core_idx].complete_read(tag);
                    }
                    self.reads_completed += 1;
                    self.last_progress = self.dram_cycle;
                }
            }
            TxnKind::Prefetch => {
                let core_idx = txn.domain.0 as usize;
                self.pf_buffers[core_idx].insert(txn.local_addr);
            }
            TxnKind::Dummy => {}
        }
    }

    fn cpu_cycle(&mut self, cpu_now: u64) {
        let System {
            cfg,
            mc,
            cores,
            mshrs,
            pf_buffers,
            txn_meta,
            next_txn_seq,
            dram_cycle,
            policy,
            pending_writes,
            forwarded_reads,
            core_active,
            mc_next_tick,
            trace,
            obs_metrics,
            ..
        } = self;
        let obs_on = trace.is_some() || obs_metrics.is_some();
        let geom = cfg.geometry;
        for (i, core) in cores.iter_mut().enumerate() {
            if !core_active[i] {
                continue;
            }
            let domain = DomainId(i as u8);
            let mshr = &mut mshrs[i];
            let pf = &mut pf_buffers[i];
            let pending = &mut pending_writes[i];
            core.cycle(cpu_now, |op, tag| {
                if op.is_write {
                    if !mc.can_accept(domain) {
                        return SubmitResult::Rejected;
                    }
                    let loc = policy.map(&geom, domain, op.addr);
                    let id = TxnId(*next_txn_seq);
                    *next_txn_seq += 1;
                    let txn =
                        Transaction::write(id, domain, loc, *dram_cycle).with_local_addr(op.addr);
                    mc.enqueue(txn).expect("can_accept was checked");
                    *mc_next_tick = (*mc_next_tick).min(mc.enqueue_event_hint(&txn, *dram_cycle));
                    match pending.iter_mut().find(|(line, _)| *line == op.addr) {
                        Some((_, count)) => *count += 1,
                        None => pending.push((op.addr, 1)),
                    }
                    if obs_on {
                        let ev = TraceEvent::TxnArrival {
                            cycle: *dram_cycle,
                            domain: domain.0,
                            is_write: true,
                            queue_depth: txn_meta.len() as u32,
                        };
                        if let Some(m) = obs_metrics.as_mut() {
                            m.on_event(&ev);
                        }
                        if let Some(t) = trace.as_mut() {
                            t.push(ev);
                        }
                    }
                    return SubmitResult::Accepted { tag };
                }
                // Reads: store-to-load forwarding, then the prefetch
                // buffer, then MSHR merge, then a new memory transaction.
                if pending.iter().any(|&(line, _)| line == op.addr) {
                    *forwarded_reads += 1;
                    return SubmitResult::Hit;
                }
                if pf.take(op.addr) {
                    return SubmitResult::Hit;
                }
                if !mc.can_accept(domain) {
                    return SubmitResult::Rejected;
                }
                match mshr.alloc(op.addr, tag) {
                    MshrOutcome::Secondary => SubmitResult::Accepted { tag },
                    MshrOutcome::Full => SubmitResult::Rejected,
                    MshrOutcome::Primary => {
                        let loc = policy.map(&geom, domain, op.addr);
                        let id = TxnId(*next_txn_seq);
                        *next_txn_seq += 1;
                        let txn = Transaction::read(id, domain, loc, *dram_cycle)
                            .with_local_addr(op.addr);
                        mc.enqueue(txn).expect("can_accept was checked");
                        *mc_next_tick =
                            (*mc_next_tick).min(mc.enqueue_event_hint(&txn, *dram_cycle));
                        txn_meta.push((id, i as u32, op.addr));
                        if obs_on {
                            // Depth counts outstanding demand reads
                            // including the one that just arrived.
                            let ev = TraceEvent::TxnArrival {
                                cycle: *dram_cycle,
                                domain: domain.0,
                                is_write: false,
                                queue_depth: txn_meta.len() as u32,
                            };
                            if let Some(m) = obs_metrics.as_mut() {
                                m.on_event(&ev);
                            }
                            if let Some(t) = trace.as_mut() {
                                t.push(ev);
                            }
                        }
                        SubmitResult::Accepted { tag }
                    }
                }
            });
        }
    }

    /// Runs for `cycles` DRAM cycles.
    pub fn run_cycles(&mut self, cycles: u64) -> SystemStats {
        let end = self.dram_cycle + cycles;
        while self.dram_cycle < end {
            self.step();
            self.skip_ahead(end, false, None);
        }
        self.stats()
    }

    /// Runs for `cycles` DRAM cycles with health monitoring: aborts with
    /// a structured error if the controller poisons itself on a timing
    /// violation, or if the starvation watchdog sees no demand read
    /// retire for [`SystemConfig::watchdog_cycles`] while reads are
    /// outstanding.
    ///
    /// # Errors
    ///
    /// [`FsmcError::Timing`] carrying the poisoning violation, or
    /// [`FsmcError::Watchdog`] with a diagnosis naming the stuck domain,
    /// rank, bank and oldest outstanding read.
    pub fn try_run_cycles(&mut self, cycles: u64) -> Result<SystemStats, FsmcError> {
        let end = self.dram_cycle + cycles;
        while self.dram_cycle < end {
            self.step();
            self.health_check()?;
            self.skip_ahead(end, true, None);
        }
        Ok(self.stats())
    }

    /// The per-step health checks shared by [`System::try_run_cycles`]
    /// and [`System::try_run_profile`]: controller poisoning, monitor
    /// breaches, then starvation.
    fn health_check(&mut self) -> Result<(), FsmcError> {
        if let Some(e) = self.reconfig_error.take() {
            return Err(e);
        }
        if let Some(violation) = self.mc.fault() {
            return Err(FsmcError::Timing(TimingFault {
                scheduler: self.cfg.scheduler,
                violation,
                provenance: None,
            }));
        }
        if let Some((cycle, finding)) = self.monitor.as_mut().and_then(|m| m.take_breach()) {
            return Err(FsmcError::Invariant(InvariantBreach {
                scheduler: self.cfg.scheduler,
                cycle,
                finding,
                provenance: None,
            }));
        }
        if self.txn_meta.is_empty() {
            // Idle pipelines are healthy: restart the stall clock.
            self.last_progress = self.dram_cycle;
        } else if self.cfg.watchdog_cycles > 0
            && self.dram_cycle - self.last_progress > self.cfg.watchdog_cycles
        {
            return Err(FsmcError::Watchdog(self.diagnose_stall()));
        }
        Ok(())
    }

    /// Builds the watchdog's diagnosis from the oldest outstanding read.
    fn diagnose_stall(&self) -> WatchdogReport {
        let &(oldest, core, local) =
            self.txn_meta.iter().min_by_key(|(id, _, _)| *id).expect("stall implies outstanding");
        let loc = self.policy.map(&self.cfg.geometry, DomainId(core as u8), local);
        WatchdogReport {
            cycle: self.dram_cycle,
            stalled_for: self.dram_cycle - self.last_progress,
            domain: core as u8,
            rank: loc.rank.0,
            bank: loc.bank.0,
            oldest,
            outstanding: self.txn_meta.len(),
            epoch: self.mc.epoch(),
            reconfig_pending_at: self.reconfig_pending_at(),
            provenance: None,
        }
    }

    /// Runs until `reads` demand reads have completed (the paper's
    /// termination criterion), bounded by `max_cycles`.
    pub fn run_reads(&mut self, reads: u64) -> SystemStats {
        let max_cycles = self.dram_cycle + 400 * reads + 100_000;
        while self.reads_completed < reads && self.dram_cycle < max_cycles {
            self.step();
            if self.reads_completed < reads {
                self.skip_ahead(max_cycles, false, None);
            }
        }
        self.stats()
    }

    /// Runs until core `core_idx` has retired `buckets * bucket_instrs`
    /// instructions, returning the CPU cycle at which each bucket
    /// boundary was crossed — the execution profile of Figure 4.
    pub fn run_profile(&mut self, core_idx: usize, bucket_instrs: u64, buckets: usize) -> Vec<u64> {
        let mut boundaries = Vec::with_capacity(buckets);
        let mut next_target = bucket_instrs;
        let hard_stop = self.dram_cycle + 80_000_000;
        while boundaries.len() < buckets && self.dram_cycle < hard_stop {
            self.step();
            while boundaries.len() < buckets
                && self.cores[core_idx].stats().instructions_retired >= next_target
            {
                boundaries.push(self.dram_cycle * self.cfg.timing.cpu_ratio as u64);
                next_target += bucket_instrs;
            }
            if boundaries.len() < buckets {
                // A skip may run the profiled core through compute
                // cycles, so cap the span short of its next bucket: no
                // boundary can fall inside it.
                let left = next_target - self.cores[core_idx].stats().instructions_retired;
                self.skip_ahead(hard_stop, false, Some((core_idx, left)));
            }
        }
        boundaries
    }

    /// Fallible [`System::run_profile`] with the same health monitoring
    /// as [`System::try_run_cycles`]: used to take execution profiles
    /// under injected faults, where a stall or invariant breach must
    /// surface as a structured error rather than a short profile.
    ///
    /// # Errors
    ///
    /// As for [`System::try_run_cycles`].
    pub fn try_run_profile(
        &mut self,
        core_idx: usize,
        bucket_instrs: u64,
        buckets: usize,
    ) -> Result<Vec<u64>, FsmcError> {
        let mut boundaries = Vec::with_capacity(buckets);
        let mut next_target = bucket_instrs;
        let hard_stop = self.dram_cycle + 80_000_000;
        while boundaries.len() < buckets && self.dram_cycle < hard_stop {
            self.step();
            self.health_check()?;
            while boundaries.len() < buckets
                && self.cores[core_idx].stats().instructions_retired >= next_target
            {
                boundaries.push(self.dram_cycle * self.cfg.timing.cpu_ratio as u64);
                next_target += bucket_instrs;
            }
            if boundaries.len() < buckets {
                let left = next_target - self.cores[core_idx].stats().instructions_retired;
                self.skip_ahead(hard_stop, true, Some((core_idx, left)));
            }
        }
        Ok(boundaries)
    }

    /// Starts recording (finish, latency) pairs for `domain`'s demand
    /// reads — the attacker's view of the memory system.
    pub fn observe(&mut self, domain: u8) {
        self.observe_domain = Some(domain);
    }

    /// Takes the recorded observations.
    pub fn take_observations(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.observations)
    }

    /// Per-core statistics snapshot without finalising the run.
    pub fn core_stats(&self, core: usize) -> fsmc_cpu::CoreStats {
        *self.cores[core].stats()
    }

    /// Current statistics snapshot (also finalises device counters).
    pub fn stats(&mut self) -> SystemStats {
        self.mc.finish(self.dram_cycle);
        let counters = self.mc.aggregate_counters();
        let energy = EnergyModel::new(PowerParams::ddr3_4gb())
            .evaluate(&counters, self.mc.stats().boosted_row_hits);
        SystemStats {
            cores: self.cores.iter().map(|c| *c.stats()).collect(),
            mc: self.mc.stats().clone(),
            energy,
            dram_cycles: self.dram_cycle,
            bus_utilization: counters.data_bus_utilization(),
            reads_completed: self.reads_completed,
            useful_prefetches: self.pf_buffers.iter().map(|b| b.useful).sum(),
            forwarded_reads: self.forwarded_reads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: SchedulerKind) -> SystemStats {
        let cfg = SystemConfig::paper_default(kind);
        let mut sys = System::homogeneous(&cfg, BenchProfile::milc(), 3);
        sys.run_cycles(30_000)
    }

    #[test]
    fn baseline_makes_progress_on_all_cores() {
        let s = quick(SchedulerKind::Baseline);
        assert!(s.reads_completed > 500, "reads {}", s.reads_completed);
        for (i, c) in s.cores.iter().enumerate() {
            assert!(c.ipc() > 0.05, "core {i} ipc {}", c.ipc());
        }
    }

    #[test]
    fn fs_rank_partitioned_runs_and_inserts_dummies() {
        let s = quick(SchedulerKind::FsRankPartitioned);
        assert!(s.reads_completed > 100);
        assert!(s.mc.dummy_fraction() > 0.0);
    }

    #[test]
    fn baseline_outperforms_fs_which_outperforms_tp() {
        let base = quick(SchedulerKind::Baseline).ipc_sum();
        let fs = quick(SchedulerKind::FsRankPartitioned).ipc_sum();
        let tp = quick(SchedulerKind::TpBankPartitioned { turn: 60 }).ipc_sum();
        assert!(base > fs, "baseline {base} <= fs {fs}");
        assert!(fs > tp, "fs {fs} <= tp {tp}");
    }

    #[test]
    fn memory_intensity_orders_latency() {
        // mcf sees much higher queueing under TP than baseline.
        let cfg = SystemConfig::paper_default(SchedulerKind::Baseline);
        let mut sys = System::homogeneous(&cfg, BenchProfile::mcf(), 1);
        let base = sys.run_cycles(20_000);
        let cfg = SystemConfig::paper_default(SchedulerKind::TpBankPartitioned { turn: 60 });
        let mut sys = System::homogeneous(&cfg, BenchProfile::mcf(), 1);
        let tp = sys.run_cycles(20_000);
        assert!(tp.avg_read_latency() > base.avg_read_latency());
    }

    #[test]
    fn profile_recording_is_monotone() {
        let cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
        let mut sys = System::homogeneous(&cfg, BenchProfile::zeusmp(), 5);
        let profile = sys.run_profile(0, 1000, 20);
        assert_eq!(profile.len(), 20);
        assert!(profile.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn core_counters_account_every_cpu_sub_cycle() {
        let cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
        let mix = WorkloadMix::rate(BenchProfile::xalancbmk(), 8);
        let (mut fast, mut slow) =
            (System::from_mix(&cfg, &mix, 2), System::from_mix(&cfg, &mix, 2));
        slow.disable_fastpath();
        fast.run_cycles(20_000);
        slow.run_cycles(20_000);
        let total = 8 * cfg.timing.cpu_ratio as u64 * 20_000;
        let (f, s) = (fast.core_counters(), slow.core_counters());
        assert_eq!(f.stepped + f.computed + f.stalled, total, "{f:?}");
        assert_eq!(s, CoreCounters { stepped: total, computed: 0, stalled: 0 });
        // A compute-bound mix spends most sub-cycles in compute spans.
        assert!(f.computed > f.stepped, "{f:?}");
    }

    #[test]
    fn stores_forward_to_subsequent_loads() {
        use fsmc_cpu::trace::{MemOp, TraceOp, VecTrace};
        // Each iteration writes a line then immediately reads it back:
        // the read must forward from the queued store, not go to DRAM.
        let cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::new();
        for i in 0..cfg.cores {
            let base = i as u64 * 10;
            traces.push(Box::new(VecTrace::new(vec![
                TraceOp::with_mem(8, MemOp::write(base)),
                TraceOp::with_mem(2, MemOp::read(base)),
                TraceOp::compute(50),
            ])));
        }
        let mut sys = System::new(&cfg, traces);
        let stats = sys.run_cycles(20_000);
        assert!(stats.forwarded_reads > 50, "only {} forwarded", stats.forwarded_reads);
        // Forwarded reads never became memory transactions.
        let demand_reads: u64 = stats.mc.domains().iter().map(|d| d.demand_reads).sum();
        assert!(
            demand_reads < stats.forwarded_reads / 2,
            "demand reads {} vs forwarded {}",
            demand_reads,
            stats.forwarded_reads
        );
    }

    #[test]
    fn mix_construction_respects_core_count() {
        let cfg = SystemConfig::paper_default(SchedulerKind::Baseline);
        let mix = WorkloadMix::mix1();
        let mut sys = System::from_mix(&cfg, &mix, 9);
        let s = sys.run_cycles(5_000);
        assert_eq!(s.cores.len(), 8);
    }
}
