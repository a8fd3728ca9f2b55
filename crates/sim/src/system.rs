//! The system simulator: cores + MSHRs + controller + DRAM in one loop.

use crate::config::SystemConfig;
use crate::error::{FsmcError, InvariantBreach, TimingFault, WatchdogReport};
use crate::monitor::InvariantMonitor;
use crate::stats::SystemStats;
use fsmc_core::domain::{DomainId, PartitionPolicy};
use fsmc_core::error::ConfigError;
use fsmc_core::sched::baseline::BaselineScheduler;
use fsmc_core::sched::fs::FsScheduler;
use fsmc_core::sched::sharded::ShardedController;
use fsmc_core::sched::tp::TpScheduler;
use fsmc_core::sched::{
    CmdFaultSpec, Completion, MemoryController, ReconfigEvent, SchedEvent, SchedulerKind,
    SlotGrantKind,
};
use fsmc_core::txn::{Transaction, TxnId, TxnKind};
use fsmc_cpu::trace::TraceSource;
use fsmc_cpu::{CoreIdle, MshrFile, MshrOutcome, OooCore, PrefetchBuffer, SubmitResult};
use fsmc_dram::command::TimedCommand;
use fsmc_dram::geometry::LineAddr;
use fsmc_dram::{CommandKind, ObsCommand, TimingParams};
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
/// four always add up to `cores * cpu_ratio * dram_cycle`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Executed one by one in stepped DRAM cycles.
    pub stepped: u64,
    /// Run as compute spans ([`OooCore::advance_compute`]), in stepped
    /// cycles or skipped spans.
    pub computed: u64,
    /// Bulk-charged as stall-only ([`OooCore::skip_stalled`]), detached
    /// cores included.
    pub stalled: u64,
    /// Carried as refused re-offers to a full queue
    /// ([`OooCore::skip_rejected`]): in a stepped cycle after its tick,
    /// or in skipped spans across every tick that leaves the queue full.
    pub rejected: u64,
}

/// How a core crosses a stepped cycle or a skipped span ([`crossing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crossing {
    /// Stall-only throughout (or detached): bulk-charged.
    Stalled,
    /// Pure compute, ending at or before its compute floor.
    Computing,
    /// Re-offers an operation its domain's queue refused, and that
    /// queue is full after the last tick: only a tick dequeues, so it
    /// stays full until the next real tick and every offer before it is
    /// refused with no effect outside the core. Never parked: it has no
    /// wake cycle of its own. A stepped cycle tests `can_accept` once
    /// after its tick; a skipped span carries the core across every
    /// tick after which its queue is still full, and the first tick
    /// after which the queue accepts ends the span with that cycle's
    /// cores stepped.
    Rejected,
    /// May read its trace or submit: stepped cycle by cycle.
    Stepped,
}

/// Decides how core `i` crosses the CPU cycles from `start_cpu` on,
/// where `end_cpu` ends the first DRAM cycle they lie in, and returns
/// the CPU cycle the crossing lasts until (`u64::MAX` for ever, 0 when
/// the core has no wake of its own). In order: a detached core, or one
/// blocked on memory, is stalled for ever; one whose ROB head retires
/// at or after `end_cpu` is stalled until then; one whose compute floor
/// lies at or after `end_cpu` computes until it; one whose refused offer
/// meets a full queue is refused; the rest are stepped.
///
/// A stepped cycle ([`System::step_cores`]) steps or parks each core by
/// it, and a skipped span ([`System::skip_ahead`]) bounds itself by it
/// and carries each core by the same decision
/// ([`System::advance_cores`]). That decision holds at the span's end:
/// the span ends no later than each stalled core's wake and each
/// computing core's floor, no core is touched inside it, and a refused
/// core has no compute floor (a refusal leaves no non-memory
/// instruction ahead of the refused operation).
///
/// Forced inline: it sits in both hot loops, and left a call the
/// secure-policy figures measured 1–2% slower.
#[inline(always)]
fn crossing(
    core: &OooCore,
    attached: bool,
    mc: &dyn MemoryController,
    i: usize,
    start_cpu: u64,
    end_cpu: u64,
) -> (Crossing, u64) {
    if !attached {
        return (Crossing::Stalled, u64::MAX);
    }
    match core.idle_until() {
        CoreIdle::BlockedOnMemory => (Crossing::Stalled, u64::MAX),
        CoreIdle::WakeAt(at) if at >= end_cpu => (Crossing::Stalled, at),
        _ => match core.compute_floor(start_cpu) {
            Some(floor) if floor >= end_cpu => (Crossing::Computing, floor),
            _ if core.rejected_offer() && !mc.can_accept(DomainId(i as u8)) => {
                (Crossing::Rejected, 0)
            }
            _ => (Crossing::Stepped, 0),
        },
    }
}

/// A core the run loop leaves untouched until DRAM cycle `wake`: it
/// crosses every cycle before it as `how` ([`Crossing::Stalled`] or
/// [`Crossing::Computing`]), from CPU cycle `from_cpu` on, and is
/// carried there in one call when it wakes or a reader needs it.
#[derive(Debug, Clone, Copy)]
struct Parked {
    how: Crossing,
    from_cpu: u64,
    wake: u64,
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
        Crossing::Rejected => {
            core.skip_rejected(from, to);
            counts.rejected += span;
        }
        Crossing::Stepped => counts.stepped += span,
    }
}

/// Feeds one observability event to whichever of the metrics collector
/// and the trace sink is armed, in that order.
fn emit(metrics: &mut Option<MetricsCollector>, trace: &mut Option<TraceSink>, ev: TraceEvent) {
    if let Some(m) = metrics {
        m.on_event(&ev);
    }
    if let Some(t) = trace {
        t.push(ev);
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
    /// Commands already drained from the controller, retained for
    /// [`System::take_command_log`] when recording is on.
    command_log: Vec<TimedCommand>,
    /// Degradation state at the last drain, to detect schedule swaps and
    /// re-arm the monitor's cadence spec.
    was_degraded: bool,
    /// The fast path: skipped spans, the tick elision inside them and
    /// FS `fast_forward`, which trust the controller's `next_event`
    /// bound, and carrying a core that cannot act across a stepped cycle
    /// in bulk or parking it until it wakes, which read only core state.
    /// Cleared only by [`System::disable_fastpath`] and
    /// `FSMC_NO_FASTPATH=1`: armed faults keep it
    /// ([`System::arm_faults`]).
    fastpath: bool,
    /// Whether [`System::arm_faults`] armed a command or device-timing
    /// fault. A health-checked span then stops right after a tick that
    /// poisons the controller or latches a monitor breach, and the run
    /// loop checks health there.
    faults_armed: bool,
    /// Reusable per-step completion buffer (hot path, no allocation).
    completion_buf: Vec<Completion>,
    /// Per-core scratch: how core `i` crosses the current stepped cycle
    /// or skipped span ([`crossing`]), or its `Parked::how` while
    /// parked. Only [`Crossing::Stepped`] cores run sub-cycle by
    /// sub-cycle.
    crossings: Vec<Crossing>,
    /// Cores the current run loop has parked until their wake cycle. A
    /// skipped span never ends after a parked core's wake and leaves the
    /// core untouched, so a core parks once per idle stretch however
    /// many spans it rides. All `None` outside a run loop: every loop
    /// carries them before it returns, and so does every reader of core
    /// state inside one (a delivery, an adoption, a profile's bucket
    /// check). A core refused by a full queue is never parked: the tick
    /// that frees the queue is its wake-up, and no core state predicts
    /// it.
    parked: Vec<Option<Parked>>,
    /// The domains of the cores riding the current skipped span as
    /// refused ([`Crossing::Rejected`]), filled by
    /// [`System::skip_ahead`]. After every tick of the span their
    /// queues are tested; the first that accepts ends it.
    riders: Vec<DomainId>,
    /// Cached [`MemoryController::next_event`] bound, rescanned after
    /// every quiet tick on the fast path: ticks strictly before this
    /// cycle are provable no-ops, and a skipped span elides them. Every
    /// `enqueue` lowers it by the policy's
    /// [`MemoryController::enqueue_event_hint`] for the new transaction
    /// (conservative default: re-tick next cycle).
    mc_next_tick: u64,
    /// Telemetry: DRAM cycles inside [`System::skip_ahead`] spans, run
    /// without per-cycle core stepping.
    fp_skipped: u64,
    /// Telemetry: controller ticks elided as proven no-ops inside a
    /// span, never more than `fp_skipped`.
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
    /// Reusable drain buffer for the controller's command tap.
    tap_buf: Vec<ObsCommand>,
    /// Reusable drain buffer for scheduler slot/degradation events.
    obs_sched_buf: Vec<SchedEvent>,
    /// Is core `i` an active tenant? A detached core (left, killed by a
    /// dead rank, or not yet joined) is bulk-charged as stalled every
    /// cycle and never vetoes a skip, while its domain's slots carry
    /// dummies.
    attached: Vec<bool>,
    /// Scheduled reconfiguration events, sorted by fire cycle (stable
    /// for same-cycle events). Every stepped cycle ([`System::advance`])
    /// promotes due events into `pending_reconfig`.
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

/// Builds the controller `cfg` describes; FS, TP and multi-channel
/// variants report solver or configuration failures instead of
/// panicking.
pub fn try_build_controller(cfg: &SystemConfig) -> Result<Box<dyn MemoryController>, FsmcError> {
    let g = cfg.geometry;
    let t = cfg.timing;
    let n = cfg.cores;
    let fs = |kind, domains: u8| {
        FsScheduler::try_new(g, t, &vec![1; domains as usize], kind, cfg.energy_options)
    };
    Ok(match cfg.scheduler {
        SchedulerKind::Baseline => Box::new(BaselineScheduler::try_new(g, t, n, false)?),
        SchedulerKind::BaselinePrefetch => Box::new(BaselineScheduler::try_new(g, t, n, true)?),
        SchedulerKind::TpBankPartitioned { .. }
        | SchedulerKind::TpNoPartition { .. }
        | SchedulerKind::TpFence { .. } => Box::new(TpScheduler::try_new(g, t, n, cfg.scheduler)?),
        SchedulerKind::FsRankPartitioned
        | SchedulerKind::FsRankPartitionedPrefetch
        | SchedulerKind::FsBankPartitioned
        | SchedulerKind::FsReorderedBankPartitioned
        | SchedulerKind::FsNoPartitionNaive
        | SchedulerKind::FsTripleAlternation => Box::new(fs(cfg.scheduler, n)?),
        SchedulerKind::ChannelPartitioned => {
            let channels = (0..n)
                .map(|_| BaselineScheduler::try_new(g, t, 1, false))
                .collect::<Result<Vec<_>, _>>()?;
            Box::new(ShardedController::new(cfg.scheduler, channels))
        }
        SchedulerKind::FsMultiChannel { channels } => {
            if channels == 0 || !n.is_multiple_of(channels) {
                let msg = format!("{n} cores do not shard evenly over {channels} channels");
                return Err(ConfigError::new(msg).into());
            }
            let shards = (0..channels)
                .map(|_| fs(SchedulerKind::FsRankPartitioned, n / channels))
                .collect::<Result<Vec<_>, _>>()?;
            Box::new(ShardedController::new(cfg.scheduler, shards))
        }
    })
}

impl System {
    /// Builds a system with one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`, or on any other error
    /// [`System::try_new`] reports.
    pub fn new(cfg: &SystemConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        System::try_new(cfg, traces).unwrap_or_else(|e| panic!("system construction failed: {e}"))
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
    /// [`FsScheduler`] with a weighted SLA (the slot weights of
    /// [`FsScheduler::try_new`]), or a custom policy
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
            command_log: Vec::new(),
            was_degraded,
            fastpath: !crate::env::no_fastpath(),
            faults_armed: false,
            completion_buf: Vec::new(),
            crossings: vec![Crossing::Stepped; cfg.cores as usize],
            parked: vec![None; cfg.cores as usize],
            riders: Vec::new(),
            mc_next_tick: 0,
            fp_skipped: 0,
            fp_elided: 0,
            core_counts: CoreCounters::default(),
            trace: None,
            obs_metrics: None,
            tap_buf: Vec::new(),
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
    ///
    /// # Panics
    ///
    /// As for [`System::from_mix`].
    pub fn homogeneous(cfg: &SystemConfig, profile: BenchProfile, seed: u64) -> Self {
        System::from_mix(cfg, &WorkloadMix::rate(profile, cfg.cores as usize), seed)
    }

    /// One core per profile in the mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix size differs from `cfg.cores`, or on any other
    /// error [`System::try_from_mix`] reports.
    pub fn from_mix(cfg: &SystemConfig, mix: &WorkloadMix, seed: u64) -> Self {
        System::try_from_mix(cfg, mix, seed)
            .unwrap_or_else(|e| panic!("system construction failed: {e}"))
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

    /// Arms fault injection before a run: `commands` goes to the
    /// controller's command-fault injector
    /// ([`MemoryController::inject_command_faults`]) and `device_timing`
    /// models silicon slower than the schedule
    /// ([`MemoryController::set_device_timing`]).
    ///
    /// Every fast-path tier stays on: both hooks keep the controller's
    /// [`MemoryController::next_event`] bound and `fast_forward` sound
    /// (their contract). With a fault armed, a skipped span of a
    /// health-checked run stops right after a tick that poisons the
    /// controller or latches a monitor breach, and the run loop checks
    /// health there, so every error ends the run at the cycle
    /// per-cycle stepping ends it.
    pub fn arm_faults(
        &mut self,
        commands: Option<CmdFaultSpec>,
        device_timing: Option<TimingParams>,
    ) {
        if let Some(spec) = commands {
            self.mc.inject_command_faults(spec);
            self.faults_armed = true;
        }
        if let Some(t) = device_timing {
            self.mc.set_device_timing(t);
            self.faults_armed = true;
        }
    }

    /// Forces per-cycle stepping for the rest of this system's life: the
    /// controller ticks and every core steps every cycle. Equivalent to
    /// running under `FSMC_NO_FASTPATH=1`; results are bit-identical
    /// either way, only wall-clock time changes.
    pub fn disable_fastpath(&mut self) {
        self.fastpath = false;
    }

    /// Whether the fast path (event-driven time skipping and carrying
    /// idle cores in bulk) is on: true unless
    /// [`System::disable_fastpath`] ran or `FSMC_NO_FASTPATH=1` was set
    /// at construction. Armed faults do not change it.
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
    /// it once the boundary arrives. Runs at the top of
    /// [`System::advance`], so adoption lands *before* the boundary
    /// cycle's controller tick.
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
        // Churn changes which cores are attached, and with it how they
        // cross the cycles to come.
        self.unpark_all(c);
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
        // The controller's event bound predates the reconfiguration.
        self.mc_next_tick = c;
    }

    /// Fast-path effectiveness telemetry: `(skipped, elided)` — DRAM
    /// cycles inside skipped spans (no per-cycle core stepping; the
    /// controller ticked only where needed), and the controller ticks
    /// among them elided as proven no-ops, so `elided <= skipped`. A
    /// stepped cycle always ticks. Both are zero with the fast path off.
    pub fn fastpath_counters(&self) -> (u64, u64) {
        (self.fp_skipped, self.fp_elided)
    }

    /// Core-stepping telemetry: CPU sub-cycles stepped, advanced in
    /// compute spans, bulk-charged as stalled, and carried as refused
    /// re-offers, summed over cores.
    pub fn core_counters(&self) -> CoreCounters {
        self.core_counts
    }

    /// Takes the recorded command log (empty unless recording enabled):
    /// commands already drained from the controller, then any still in it.
    pub fn take_command_log(&mut self) -> Vec<TimedCommand> {
        let mut log = std::mem::take(&mut self.command_log);
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

    /// Whether any consumer of the controller's command tap is armed:
    /// the command log, the monitor, or an observability consumer.
    fn tap_on(&self) -> bool {
        self.cfg.record_commands || self.monitor.is_some() || self.obs_on()
    }

    /// Takes the recorded trace events (empty unless
    /// [`System::enable_tracing`] ran), draining anything still buffered
    /// controller-side first. Recording continues afterwards.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.drain();
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
        self.drain();
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

    /// Drains the controller's command tap, then its scheduler events,
    /// into every armed consumer: the monitor, the command log and the
    /// observability sinks. Runs right after every real tick, so each
    /// consumer sees exactly the bus stream in issue order. Scheduler
    /// events are dropped when no observability consumer is armed.
    fn drain(&mut self) {
        let mut cmds = std::mem::take(&mut self.tap_buf);
        cmds.clear();
        if self.mc.has_obs() {
            self.mc.take_obs_into(&mut cmds);
        }
        if self.monitor.is_some() {
            self.monitor_observe(&cmds);
        }
        if self.cfg.record_commands {
            self.command_log.extend(cmds.iter().map(ObsCommand::timed));
        }
        if self.obs_on() {
            for oc in &cmds {
                emit(&mut self.obs_metrics, &mut self.trace, Self::obs_command_event(oc));
            }
        }
        self.tap_buf = cmds;
        if self.mc.has_sched_events() {
            let mut evs = std::mem::take(&mut self.obs_sched_buf);
            evs.clear();
            self.mc.take_sched_events_into(&mut evs);
            for se in &evs {
                emit(&mut self.obs_metrics, &mut self.trace, Self::obs_sched_event(se));
            }
            self.obs_sched_buf = evs;
        }
    }

    /// Steps one DRAM bus cycle and its CPU sub-cycles, in the run loop
    /// ([`System::run_loop`]): reconfiguration, due deliveries, the
    /// controller tick, then the cores ([`System::step_cores`]).
    fn advance(&mut self) {
        let c = self.dram_cycle;
        // 0. Reconfiguration protocol: promote due events, adopt at the
        // boundary. A single branch on the common (no reconfig) path.
        if !self.reconfig_queue.is_empty() || self.pending_reconfig.is_some() {
            self.process_reconfig(c);
        }
        // 1. Deliver previously staged data whose time has come. Staged
        // entries carry lower sequence numbers than anything produced
        // this tick, so draining them first preserves the historical
        // (finish, seq) delivery order. The tick never reads core or
        // delivery state, so draining before it is observationally
        // identical.
        while let Some(Reverse(d)) = self.deliveries.peek().copied() {
            if d.finish > c {
                break;
            }
            self.deliveries.pop();
            self.deliver(d.completion);
        }
        // 2. The controller tick into the reusable buffer (no
        // allocation), settled like every other tick. A stepped cycle
        // always ticks; only a skipped span elides ticks.
        self.completion_buf.clear();
        self.mc.tick_into(c, &mut self.completion_buf);
        self.settle_tick(c);
        self.step_cores(c);
    }

    /// Steps 3 and 4 of [`System::advance`] for cycle `c`, whose tick
    /// has settled: the cores' CPU sub-cycles, then the monitor's
    /// wall-clock poll; `dram_cycle` moves to `c + 1`. A skipped span
    /// that a refused core's freed queue ends runs its last cycle's
    /// cores through here too ([`System::run_span`]).
    fn step_cores(&mut self, c: u64) {
        // 3. CPU cycles. On the fast path each core crosses the cycle as
        // [`crossing`] decides, after this cycle's tick and deliveries:
        // only stepped cores run sub-cycle by sub-cycle, interleaved in
        // core order as their submits must be; the rest are carried. A
        // stalled or computing core that stays so until a later cycle
        // is parked: skipped by stepped cycles and skipped spans alike
        // until then, and carried in one call when it wakes.
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let (start_cpu, end_cpu) = (c * ratio, (c + 1) * ratio);
        let fastpath = self.fastpath;
        let mut any_stepped = false;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(p) = self.parked[i] {
                if c < p.wake {
                    self.crossings[i] = p.how;
                    continue;
                }
                carry(core, p.how, p.from_cpu, start_cpu, &mut self.core_counts);
                self.parked[i] = None;
            }
            let attached = self.attached[i];
            let (how, until_cpu) = if fastpath || !attached {
                crossing(core, attached, self.mc.as_ref(), i, start_cpu, end_cpu)
            } else {
                (Crossing::Stepped, 0)
            };
            self.crossings[i] = how;
            if fastpath && until_cpu >= end_cpu + ratio {
                let wake = until_cpu / ratio;
                self.parked[i] = Some(Parked { how, from_cpu: start_cpu, wake });
                continue;
            }
            any_stepped |= how == Crossing::Stepped;
            carry(core, how, start_cpu, end_cpu, &mut self.core_counts);
        }
        if any_stepped {
            for sub in 0..ratio {
                let cpu_now = c * ratio + sub;
                self.cpu_cycle(cpu_now);
            }
        }
        // 4. Wall-clock invariants, after the cores have submitted.
        self.monitor_cycle(c);
        self.dram_cycle = c + 1;
    }

    /// Settles the controller tick at `c` (a `tick_into`, or the last
    /// tick of a `fast_forward` that stopped at `c + 1`; its completions
    /// wait in `completion_buf`) for both [`System::advance`] and
    /// [`System::run_span`]: on the fast path a quiet tick rescans
    /// [`MemoryController::next_event`] into `mc_next_tick` (an issuing
    /// tick leaves the bound at or before `c`, so the next tick runs);
    /// completions due by `c` are delivered and the rest staged in
    /// `(finish, seq)` order; the command tap drains. Returns the first
    /// cycle a core may observe the tick: `c + 1` after a delivery, else
    /// the earliest staged finish, else `u64::MAX`.
    ///
    /// Forced inline: left to the compiler it stays a call, which
    /// measured about 2% slower on the secure-policy figures.
    #[inline(always)]
    fn settle_tick(&mut self, c: u64) -> u64 {
        if self.fastpath && self.mc.device().last_issue_at() != Some(c) {
            self.mc_next_tick = self.mc.next_event(c);
        }
        let mut observable = u64::MAX;
        let mut buf = std::mem::take(&mut self.completion_buf);
        for completion in buf.drain(..) {
            observable = observable.min(completion.finish.max(c + 1));
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
        if self.tap_on() {
            self.drain();
        }
        observable
    }

    /// Event-driven time skipping: moves `dram_cycle` forward over a
    /// span in which *no core touches the memory system*, running the
    /// controller alone ([`System::run_span`]) and then carrying each
    /// unparked core across the span as [`crossing`] decided at its
    /// start ([`System::advance_cores`]).
    ///
    /// Called after a stepped cycle ([`System::advance`]); `limit` is the
    /// run loop's own bound (never skip past the end of the run),
    /// `health_checked` says whether the caller runs
    /// [`System::health_check`] per step (and therefore whether the
    /// watchdog clock is live), and `retire_cap` — `(core, n)` — keeps
    /// that core from retiring `n` more instructions inside the span (a
    /// profile's next bucket).
    ///
    /// The span ends at the minimum of every bound on core activity:
    ///
    /// * the earliest staged delivery (nothing can retire before it);
    /// * each parked core's wake cycle; the span rides over a parked
    ///   core without reading its state, which is stale until the core
    ///   is carried;
    /// * each other core's [`crossing`]: a stalled core bounds the span
    ///   at its wake (a core blocked on memory or detached at none), a
    ///   computing core at its [`OooCore::compute_floor`]. A refused
    ///   core imposes no bound here: it rides the span as one of the
    ///   `riders`, and [`System::run_span`] ends the span at the first
    ///   tick after which its queue accepts. A stepped core vetoes the
    ///   skip: its next cycle may read the trace or submit. So does a
    ///   refused core under `retire_cap`, whose retirements in the span
    ///   no compute floor bounds;
    /// * the next reconfiguration promotion or adoption, both of which
    ///   happen in a stepped cycle;
    /// * the monitor's next wall-clock deadline poll (a skipped poll
    ///   would latch a breach at a different cycle);
    /// * the watchdog's trigger point, so a starved run still aborts at
    ///   the exact per-cycle-identical cycle.
    ///
    /// The span loop may end it earlier still: at the first cycle a
    /// completion it produces could be observed, at a tick that frees a
    /// rider's queue or delivers at once (that cycle's cores are then
    /// stepped), and, with faults armed in a health-checked run, right
    /// after a tick that poisons the controller or latches a monitor
    /// breach. No core submits inside the skipped cycles and nothing is
    /// delivered to one, so the controller never sees a core, and each
    /// core's stall charges, compute cycles or refusals reproduce
    /// per-cycle statistics bit for bit ([`OooCore::skip_stalled`],
    /// [`OooCore::advance_compute`], [`OooCore::skip_rejected`]).
    fn skip_ahead(&mut self, limit: u64, health_checked: bool, retire_cap: Option<(usize, u64)>) {
        if !self.fastpath {
            return;
        }
        self.riders.clear();

        let now = self.dram_cycle;
        debug_assert!(now > 0, "skip_ahead runs only after a step");
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let mut target = limit;
        // A skipped span must not cross a reconfiguration point: event
        // promotion and boundary adoption happen in a stepped cycle.
        if let Some(&(at, _)) = self.reconfig_queue.first() {
            target = target.min(at);
        }
        if let Some(p) = &self.pending_reconfig {
            target = target.min(p.adopt_at);
        }
        if target <= now {
            return;
        }
        // Cheapest veto next: a core that may read its trace or submit
        // next cycle ends the attempt before anything else is paid for.
        let now_cpu = now * ratio;
        for (i, core) in self.cores.iter().enumerate() {
            if let Some(p) = self.parked[i] {
                target = target.min(p.wake);
                continue;
            }
            let (how, until_cpu) =
                crossing(core, self.attached[i], self.mc.as_ref(), i, now_cpu, now_cpu + ratio);
            match (how, retire_cap.filter(|&(c, _)| c == i)) {
                (Crossing::Stepped, _) | (Crossing::Rejected, Some(_)) => return,
                (Crossing::Rejected, None) => self.riders.push(DomainId(i as u8)),
                (Crossing::Computing, Some((_, left))) => {
                    // At most `width` retires per CPU cycle: stop the
                    // span before the capped core could reach `left`.
                    let per_cycle = ratio * self.cfg.core.width as u64;
                    target = target.min(now + (left - 1) / per_cycle).min(until_cpu / ratio);
                }
                _ => target = target.min(until_cpu / ratio),
            }
            self.crossings[i] = how;
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
        self.run_span(target, health_checked);
        if health_checked && self.txn_meta.is_empty() {
            // health_check would have restarted the stall clock at every
            // skipped cycle; land it where per-cycle stepping would.
            self.last_progress = self.dram_cycle;
        }
    }

    /// Controller-only execution of a span that no core touches: runs
    /// exactly the ticks per-cycle stepping would, without the per-step
    /// core-classification and delivery machinery, then carries the
    /// cores across the span once. This is the only place ticks are
    /// elided: each iteration first jumps over the proven no-op ticks
    /// before the cached `next_event` bound (a span with a bound past
    /// `until` is one jump and no tick); otherwise it ticks and settles
    /// the tick ([`System::settle_tick`]), whose rescan may open the
    /// next jump. Stops at `until`, or earlier at the first cycle a
    /// produced completion could be observed. Observationally identical
    /// to stepping: the same ticks run at the same cycles, completions
    /// are staged with the same sequence numbers, and the command tap
    /// drains after every real tick.
    ///
    /// Refused cores ride the span ([`System::skip_ahead`]): after each
    /// tick their queues are tested, and the first tick at `c` after
    /// which one accepts ends the span there, as does a tick that
    /// delivers a completion at once: the cores are carried to `c`, the
    /// tick settles, and cycle `c`'s cores are stepped as
    /// [`System::advance`] steps them. With faults armed in a
    /// health-checked run (`health_checked`), the span stops right
    /// after a tick that poisons the controller or latches a monitor
    /// breach; the run loop checks health there.
    ///
    /// When no consumer of the command tap is armed (command log,
    /// monitor, tracing, metrics) and no refused core rides, a tick is
    /// first offered to the controller's own
    /// [`MemoryController::fast_forward`]: a supporting controller (the
    /// pure-FS family) replays its event loop in one call — stopping
    /// right after the first completion-producing or poisoning tick,
    /// which is then settled like any other — while the default
    /// declines and the tick runs here. A rider forbids it: a slot
    /// decision can dequeue from the rider's queue without completing
    /// anything, which `fast_forward` does not stop at.
    fn run_span(&mut self, mut until: u64, health_checked: bool) {
        let start = self.dram_cycle;
        let mut c = start;
        let mut ticked = false;
        let opaque = !self.tap_on() && self.riders.is_empty();
        let stop_on_fault = health_checked && self.faults_armed;
        while c < until {
            if c < self.mc_next_tick {
                let to = self.mc_next_tick.min(until);
                self.fp_elided += to - c;
                c = to;
                continue;
            }
            let from = c;
            let buf = &mut self.completion_buf;
            buf.clear();
            let r = if opaque { self.mc.fast_forward(c, until, buf) } else { c };
            if r == until && buf.is_empty() {
                // Clean hop to the span end: every tick in the span ran
                // (or was provably a no-op) without completing anything.
                c = until;
                ticked = true;
                break;
            }
            if r > c {
                // The tick at `r - 1` produced completions (or a fault);
                // settle it there.
                c = r - 1;
            } else {
                self.mc.tick_into(c, buf);
            }
            if self.ends_span_stepped(c) {
                self.end_span_stepped(start, c, ticked || c > from, health_checked);
                return;
            }
            ticked = true;
            until = until.min(self.settle_tick(c));
            self.monitor_cycle(c);
            c += 1;
            if stop_on_fault
                && (self.mc.fault().is_some()
                    || self.monitor.as_ref().is_some_and(InvariantMonitor::has_breach))
            {
                break;
            }
        }
        self.close_span(start, c, ticked);
    }

    /// Whether the tick at `c`, whose completions wait unsettled in
    /// `completion_buf`, ends the span with cycle `c` stepped: a core
    /// can act in that cycle's sub-cycles, because the tick delivers a
    /// completion at once or a rider's queue accepts after it.
    fn ends_span_stepped(&self, c: u64) -> bool {
        self.completion_buf.iter().any(|done| done.finish <= c)
            || self.riders.iter().any(|&d| self.mc.can_accept(d))
    }

    /// Carries every unparked core across the skipped cycles
    /// `start..end` and records the span.
    fn close_span(&mut self, start: u64, end: u64, ticked: bool) {
        self.advance_cores(start, end);
        self.fp_skipped += end - start;
        self.dram_cycle = end;
        if end > start {
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::FastPath { from: start, to: end, batched: ticked });
            }
        }
    }

    /// Ends a span at the tick at `c` that lets a core act in cycle `c`
    /// ([`System::ends_span_stepped`]): the cores are carried across
    /// `start..c` before the tick settles (a delivery at `c` must not
    /// reach a core early), then cycle `c` finishes as
    /// [`System::advance`] finishes it. The watchdog clock restarts at
    /// `c` if the run's health check would have restarted it there.
    fn end_span_stepped(&mut self, start: u64, c: u64, ticked: bool, health_checked: bool) {
        self.close_span(start, c, ticked);
        if health_checked && self.txn_meta.is_empty() {
            self.last_progress = c;
        }
        self.settle_tick(c);
        self.step_cores(c);
    }

    /// Carries core `i`, if parked, to the start of DRAM cycle `c` (no
    /// later than its wake) and unparks it.
    fn unpark(&mut self, i: usize, c: u64) {
        if let Some(p) = self.parked[i] {
            self.parked[i] = None;
            let to_cpu = c * self.cfg.timing.cpu_ratio as u64;
            carry(&mut self.cores[i], p.how, p.from_cpu, to_cpu, &mut self.core_counts);
        }
    }

    /// [`System::unpark`] for every core.
    fn unpark_all(&mut self, c: u64) {
        for i in 0..self.cores.len() {
            self.unpark(i, c);
        }
    }

    /// Carries every unparked core across the skipped DRAM cycles
    /// `from..to` as the span decided at its start
    /// ([`System::skip_ahead`]). Parked cores are left alone: the span
    /// ended no later than their wake, and they keep their `from_cpu`
    /// until they are carried in one call.
    fn advance_cores(&mut self, from: u64, to: u64) {
        let ratio = self.cfg.timing.cpu_ratio as u64;
        let (from_cpu, to_cpu) = (from * ratio, to * ratio);
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(p) = self.parked[i] {
                debug_assert!(p.wake >= to, "core {i} parked until {} inside span to {to}", p.wake);
                continue;
            }
            carry(core, self.crossings[i], from_cpu, to_cpu, &mut self.core_counts);
        }
    }

    /// Feeds the monitor one drained batch of commands.
    fn monitor_observe(&mut self, cmds: &[ObsCommand]) {
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
        let mon = self.monitor.as_mut().expect("monitor_observe requires the monitor");
        if transition {
            mon.set_cadence(None);
        }
        for oc in cmds {
            mon.observe(&oc.timed());
        }
        if let Some(cadence) = new_cadence {
            mon.set_cadence(cadence);
        }
    }

    /// Runs the monitor's wall-clock invariants for cycle `now`, if armed.
    fn monitor_cycle(&mut self, now: u64) {
        if let Some(mon) = &mut self.monitor {
            mon.on_cycle(now, self.txn_meta.len(), self.cores.len() * self.cfg.mshr_capacity);
        }
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
                    emit(&mut self.obs_metrics, &mut self.trace, ev);
                }
                if let Some(pos) = self.txn_meta.iter().position(|&(id, _, _)| id == txn.id) {
                    let (_, core, local) = self.txn_meta.swap_remove(pos);
                    let core_idx = core as usize;
                    self.unpark(core_idx, self.dram_cycle);
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
                // The fill may turn a refused read into a hit, which a
                // full queue no longer predicts. A parked core is
                // stalled or computing and reads no refusal.
                self.cores[core_idx].clear_rejected();
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
            crossings,
            mc_next_tick,
            trace,
            obs_metrics,
            ..
        } = self;
        let obs_on = trace.is_some() || obs_metrics.is_some();
        let geom = cfg.geometry;
        for (i, core) in cores.iter_mut().enumerate() {
            if crossings[i] != Crossing::Stepped {
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
                        emit(obs_metrics, trace, ev);
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
                            emit(obs_metrics, trace, ev);
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
        self.run_loop(end, false, |_| Some(None)).expect("a run without health checks cannot fail");
        self.stats()
    }

    /// The one run loop: steps a cycle ([`System::advance`]), runs
    /// [`System::health_check`] when `health` is set, asks `next` whether
    /// to go on, and skips ahead ([`System::skip_ahead`]) no further than
    /// `end`. `next` returns `None` once the run is done, else the
    /// span's retire cap. With faults armed, health is checked again
    /// after the span, which stops right after a poisoning or breaching
    /// tick, as per-cycle stepping would. Parked cores are carried to
    /// the cycle reached on every exit.
    fn run_loop(
        &mut self,
        end: u64,
        health: bool,
        mut next: impl FnMut(&mut Self) -> Option<Option<(usize, u64)>>,
    ) -> Result<(), FsmcError> {
        let run = (|| -> Result<(), FsmcError> {
            while self.dram_cycle < end {
                self.advance();
                if health {
                    self.health_check()?;
                }
                let Some(retire_cap) = next(self) else { break };
                self.skip_ahead(end, health, retire_cap);
                if health && self.faults_armed {
                    self.health_check()?;
                }
            }
            Ok(())
        })();
        self.unpark_all(self.dram_cycle);
        run
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
        self.run_loop(end, true, |_| Some(None))?;
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
        if self.reads_completed < reads {
            self.run_loop(max_cycles, false, |s| (s.reads_completed < reads).then_some(None))
                .expect("a run without health checks cannot fail");
        }
        self.stats()
    }

    /// Runs until core `core_idx` has retired `buckets * bucket_instrs`
    /// instructions, returning the CPU cycle at which each bucket
    /// boundary was crossed — the execution profile of Figure 4.
    pub fn run_profile(&mut self, core_idx: usize, bucket_instrs: u64, buckets: usize) -> Vec<u64> {
        self.profile(core_idx, bucket_instrs, buckets, false)
            .expect("a profile without health checks cannot fail")
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
        self.profile(core_idx, bucket_instrs, buckets, true)
    }

    /// The body of [`System::run_profile`] and [`System::try_run_profile`]:
    /// after every stepped cycle the profiled core is carried and its
    /// crossed bucket boundaries recorded, and the next span is capped
    /// short of its next boundary, since a span may run the core through
    /// compute cycles.
    fn profile(
        &mut self,
        core_idx: usize,
        bucket_instrs: u64,
        buckets: usize,
        health: bool,
    ) -> Result<Vec<u64>, FsmcError> {
        let mut boundaries = Vec::with_capacity(buckets);
        if buckets == 0 {
            return Ok(boundaries);
        }
        let mut next_target = bucket_instrs;
        let end = self.dram_cycle + 80_000_000;
        self.run_loop(end, health, |s| {
            s.unpark(core_idx, s.dram_cycle);
            let retired = s.cores[core_idx].stats().instructions_retired;
            while boundaries.len() < buckets && retired >= next_target {
                boundaries.push(s.dram_cycle * s.cfg.timing.cpu_ratio as u64);
                next_target += bucket_instrs;
            }
            // Lazy: once the buckets are full, `next_target` may lie
            // below `retired`.
            (boundaries.len() < buckets).then(|| Some((core_idx, next_target - retired)))
        })?;
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
        self.unpark_all(self.dram_cycle);
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
    fn fr_fcfs_controllers_reject_channels_wider_than_128_banks() {
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::BaselinePrefetch,
            SchedulerKind::ChannelPartitioned,
        ] {
            let mut cfg = SystemConfig::paper_default(kind);
            cfg.geometry = fsmc_dram::Geometry::new(1, 16, 16, 32768, 128);
            match try_build_controller(&cfg) {
                Err(FsmcError::Config(e)) => assert!(e.message.contains("128 banks"), "{e}"),
                Err(e) => panic!("{kind}: expected a configuration error, got {e}"),
                Ok(_) => panic!("{kind}: a 256-bank channel was accepted"),
            }
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
        assert_eq!(f.stepped + f.computed + f.stalled + f.rejected, total, "{f:?}");
        assert_eq!(s, CoreCounters { stepped: total, ..CoreCounters::default() });
        // A compute-bound mix spends most sub-cycles in compute spans.
        assert!(f.computed > f.stepped, "{f:?}");
    }

    /// Under the full fast path a skipped span rides over parked cores:
    /// six idle cores park once and stay parked across every span, each
    /// span ends no later than the earliest parked wake, and no CPU
    /// sub-cycle is lost or counted twice.
    #[test]
    fn skipped_spans_leave_parked_cores_parked() {
        use fsmc_cpu::trace::{MemOp, TraceOp, VecTrace};
        use fsmc_workload::IdleTrace;
        let cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
        let build = || {
            let mut traces: Vec<Box<dyn TraceSource>> = (0..2u64)
                .map(|i| {
                    let ops =
                        (0..16).map(|k| TraceOp::with_mem(400, MemOp::read(i * 4099 + k * 131)));
                    Box::new(VecTrace::new(ops.collect())) as Box<dyn TraceSource>
                })
                .collect();
            traces.extend((2..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
            System::new(&cfg, traces)
        };
        let (mut fast, mut slow) = (build(), build());
        slow.disable_fastpath();
        assert!(fast.fastpath_enabled());
        let (ratio, end) = (cfg.timing.cpu_ratio as u64, 20_000);
        let (mut steps, mut spans) = (0, 0);
        while fast.dram_cycle < end {
            fast.advance();
            steps += 1;
            let earliest = fast.parked.iter().flatten().map(|p| p.wake).min();
            let before = fast.dram_cycle;
            fast.skip_ahead(end, false, None);
            let now = fast.dram_cycle;
            spans += (now > before) as u32;
            assert!(earliest.is_none_or(|w| now <= w), "span to {now} passed a wake {earliest:?}");
            // The first step reads the idle traces; every later one
            // finds the idle cores computing and parks them for good.
            if steps > 1 {
                for i in 2..8 {
                    assert!(fast.parked[i].is_some(), "idle core {i} unparked at {now}");
                }
            }
            let owed: u64 = fast.parked.iter().flatten().map(|p| now * ratio - p.from_cpu).sum();
            let c = fast.core_counts;
            let counted = c.stepped + c.computed + c.stalled + c.rejected;
            assert_eq!(counted + owed, 8 * ratio * now, "{c:?} at {now}");
        }
        assert!(spans > 100, "only {spans} spans");
        assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", slow.run_cycles(end)));
        let c = fast.core_counters();
        assert_eq!(c.stepped + c.computed + c.stalled + c.rejected, 8 * ratio * end, "{c:?}");
    }

    /// A controller with `depth`-entry queues that every tick runs
    /// (`next_event` stays `now + 1`) but only every `period`-th drains,
    /// completing each drained write, and each read unless `drop_reads`,
    /// `latency` cycles later (0: delivered at the draining tick itself).
    struct Gate {
        device: fsmc_dram::DramDevice,
        stats: fsmc_core::sched::McStats,
        queues: Vec<Vec<Transaction>>,
        depth: usize,
        period: u64,
        latency: u64,
        drop_reads: bool,
    }

    impl Gate {
        fn system(cfg: &SystemConfig, core0: Vec<fsmc_cpu::trace::TraceOp>, gate: Gate) -> System {
            use fsmc_cpu::trace::VecTrace;
            use fsmc_workload::IdleTrace;
            let mut traces: Vec<Box<dyn TraceSource>> = vec![Box::new(VecTrace::new(core0))];
            traces.extend((1..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
            System::with_controller(cfg, traces, Box::new(gate))
        }

        fn new(cfg: &SystemConfig, depth: usize, latency: u64, drop_reads: bool) -> Gate {
            Gate {
                device: fsmc_dram::DramDevice::new(cfg.geometry, cfg.timing),
                stats: fsmc_core::sched::McStats::new(cfg.cores as usize),
                queues: vec![Vec::new(); cfg.cores as usize],
                depth,
                period: 40,
                latency,
                drop_reads,
            }
        }
    }

    impl MemoryController for Gate {
        fn can_accept(&self, domain: DomainId) -> bool {
            self.queues[domain.0 as usize].len() < self.depth
        }

        fn enqueue(&mut self, txn: Transaction) -> Result<(), fsmc_core::queues::QueueFull> {
            if !self.can_accept(txn.domain) {
                return Err(fsmc_core::queues::QueueFull { domain: txn.domain });
            }
            self.queues[txn.domain.0 as usize].push(txn);
            Ok(())
        }

        fn tick_into(&mut self, now: u64, out: &mut Vec<Completion>) {
            if now.is_multiple_of(self.period) {
                for txn in self.queues.iter_mut().flat_map(|q| q.drain(..)) {
                    if txn.is_write || !self.drop_reads {
                        out.push(Completion { txn, finish: now + self.latency });
                    }
                }
            }
        }

        fn device(&self) -> &fsmc_dram::DramDevice {
            &self.device
        }

        fn finish(&mut self, _now: u64) {}

        fn stats(&self) -> &fsmc_core::sched::McStats {
            &self.stats
        }

        fn kind(&self) -> SchedulerKind {
            SchedulerKind::Baseline
        }
    }

    /// Core 0 streams reads into its [`Gate`] queue while the other
    /// cores idle. With a one-entry queue it is refused between drains:
    /// it rides every span through the ticks that keep its queue full
    /// (none is elided), and each span ends at a draining tick, whose
    /// cycle is stepped, or at a staged completion; also when the
    /// draining tick delivers at once. With a deep queue and long
    /// compute gaps the core blocks on memory instead, and a draining
    /// tick that delivers at once ends the span the same way. Everything
    /// equals per-cycle stepping.
    #[test]
    fn refused_cores_ride_ticks_and_leave_at_the_freeing_tick() {
        use fsmc_cpu::trace::{MemOp, TraceOp};
        let cfg = SystemConfig::paper_default(SchedulerKind::Baseline);
        let end = 4_000;
        for (depth, nonmem, latency) in [(1, 2, 0), (1, 2, 3), (64, 60, 0)] {
            let what = format!("depth {depth}, latency {latency}");
            let build = || {
                let reads = (0..2_000).map(|k| TraceOp::with_mem(nonmem, MemOp::read(k * 131)));
                Gate::system(&cfg, reads.collect(), Gate::new(&cfg, depth, latency, false))
            };
            let (mut fast, mut slow) = (build(), build());
            slow.disable_fastpath();
            fast.enable_tracing();
            let (sf, ss) = (fast.run_cycles(end), slow.run_cycles(end));
            assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{what}");
            assert_eq!(fast.core_stats(0), slow.core_stats(0), "{what}");
            let (skipped, elided) = fast.fastpath_counters();
            assert_eq!(elided, 0, "{what}: every tick of the gate runs");
            assert!(skipped * 2 > end, "{what}: only {skipped} cycles skipped");
            let rejected = fast.core_counters().rejected;
            assert_eq!(rejected > 0, depth == 1, "{what}: {rejected} refused sub-cycles carried");
            let mut freed = 0;
            for ev in fast.take_trace() {
                if let TraceEvent::FastPath { to, .. } = ev {
                    // A computing core bounds spans at its compute floor.
                    let at = to % 40;
                    assert!(depth > 1 || at == 0 || at == latency, "{what}: span ends at {to}");
                    freed += (at == 0 && to < end) as u32;
                }
            }
            assert!(freed > 10, "{what}: {freed} spans ended at a freeing tick");
        }
    }

    /// The watchdog clock across a span that a freed queue ends: core 0
    /// streams writes (never outstanding reads) through a one-entry
    /// [`Gate`] queue, riding spans between drains, then offers a read
    /// the gate never completes, at the freeing tick that ends a span.
    /// The watchdog must fire at the cycle per-cycle stepping fires it,
    /// which restarted the clock at every idle cycle up to that tick.
    #[test]
    fn watchdog_fires_on_time_after_a_span_ends_at_a_freeing_tick() {
        use fsmc_cpu::trace::{MemOp, TraceOp};
        let mut cfg = SystemConfig::paper_default(SchedulerKind::Baseline);
        cfg.watchdog_cycles = 1_000;
        let build = || {
            let mut ops: Vec<TraceOp> =
                (0..100).map(|k| TraceOp::with_mem(2, MemOp::write(k * 131))).collect();
            ops.push(TraceOp::with_mem(2, MemOp::read(7)));
            Gate::system(&cfg, ops, Gate::new(&cfg, 1, 3, true))
        };
        let (mut fast, mut slow) = (build(), build());
        slow.disable_fastpath();
        let (rf, rs) = (fast.try_run_cycles(20_000), slow.try_run_cycles(20_000));
        assert!(matches!(rs, Err(FsmcError::Watchdog(_))), "{rs:?}");
        assert_eq!(format!("{rf:?}"), format!("{rs:?}"));
        assert_eq!(fast.dram_cycle(), slow.dram_cycle());
        assert!(fast.core_counters().rejected > 0, "{:?}", fast.core_counters());
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
