//! Timing decorators at the controller and trace-source boundaries, and
//! the traced job runner built on them.
//!
//! Both decorators forward every trait method, defaulted ones included:
//! a decorator that fell back to a default (say `fast_forward`, which
//! declines) would silently change which path the simulator takes.
//! Hot calls are aggregated as count + total nanoseconds, never one
//! record per call.

use fsmc::core::domain::DomainId;
use fsmc::core::error::CoreError;
use fsmc::core::queues::QueueFull;
use fsmc::core::sched::{
    CadenceSpec, CmdFaultSpec, Completion, McStats, MemoryController, ReconfigEvent, SchedEvent,
    SchedulerKind,
};
use fsmc::core::txn::Transaction;
use fsmc::cpu::trace::{TraceOp, TraceSource};
use fsmc::dram::checker::Violation;
use fsmc::dram::command::TimedCommand;
use fsmc::dram::{ActivityCounters, Cycle, DramDevice, ObsCommand, TimingParams};
use fsmc::sim::{ExperimentJob, FsmcError, RunResult, System, SystemConfig};
use fsmc::workload::SyntheticTrace;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Shared call counters of one traced job. Atomics only because trace
/// sources must be `Send`; every update is a statistic publishing no
/// other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Counters {
    tick: [AtomicU64; 2],
    tick_issues: AtomicU64,
    next_event: [AtomicU64; 2],
    next_event_gains: AtomicU64,
    fast_forward: [AtomicU64; 2],
    fast_forward_accepts: AtomicU64,
    fast_forward_cycles: AtomicU64,
    enqueue: [AtomicU64; 2],
    can_accept: [AtomicU64; 2],
    can_accept_rejects: AtomicU64,
    next_op: [AtomicU64; 2],
}

/// A plain snapshot of [`Counters`]: `(calls, ns)` pairs plus outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub tick: (u64, u64),
    pub tick_issues: u64,
    pub next_event: (u64, u64),
    pub next_event_gains: u64,
    pub fast_forward: (u64, u64),
    pub fast_forward_accepts: u64,
    pub fast_forward_cycles: u64,
    pub enqueue: (u64, u64),
    pub can_accept: (u64, u64),
    pub can_accept_rejects: u64,
    pub next_op: (u64, u64),
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        let pair = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        pair(&mut self.tick, o.tick);
        self.tick_issues += o.tick_issues;
        pair(&mut self.next_event, o.next_event);
        self.next_event_gains += o.next_event_gains;
        pair(&mut self.fast_forward, o.fast_forward);
        self.fast_forward_accepts += o.fast_forward_accepts;
        self.fast_forward_cycles += o.fast_forward_cycles;
        pair(&mut self.enqueue, o.enqueue);
        pair(&mut self.can_accept, o.can_accept);
        self.can_accept_rejects += o.can_accept_rejects;
        pair(&mut self.next_op, o.next_op);
    }

    /// Nanoseconds spent inside the decorated controller.
    pub fn controller_ns(&self) -> u64 {
        self.tick.1 + self.next_event.1 + self.fast_forward.1 + self.enqueue.1 + self.can_accept.1
    }
}

impl Counters {
    pub fn snapshot(&self) -> Counts {
        let pair = |a: &[AtomicU64; 2]| (a[0].load(Relaxed), a[1].load(Relaxed));
        Counts {
            tick: pair(&self.tick),
            tick_issues: self.tick_issues.load(Relaxed),
            next_event: pair(&self.next_event),
            next_event_gains: self.next_event_gains.load(Relaxed),
            fast_forward: pair(&self.fast_forward),
            fast_forward_accepts: self.fast_forward_accepts.load(Relaxed),
            fast_forward_cycles: self.fast_forward_cycles.load(Relaxed),
            enqueue: pair(&self.enqueue),
            can_accept: pair(&self.can_accept),
            can_accept_rejects: self.can_accept_rejects.load(Relaxed),
            next_op: pair(&self.next_op),
        }
    }
}

fn record(slot: &[AtomicU64; 2], since: Instant) {
    slot[0].fetch_add(1, Relaxed);
    slot[1].fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
}

/// A [`MemoryController`] that times the hot calls of the one it wraps.
pub struct TimedController {
    inner: Box<dyn MemoryController>,
    c: Arc<Counters>,
}

impl TimedController {
    pub fn new(inner: Box<dyn MemoryController>, c: Arc<Counters>) -> Self {
        TimedController { inner, c }
    }
}

impl MemoryController for TimedController {
    fn can_accept(&self, domain: DomainId) -> bool {
        let t = Instant::now();
        let ok = self.inner.can_accept(domain);
        record(&self.c.can_accept, t);
        self.c.can_accept_rejects.fetch_add(!ok as u64, Relaxed);
        ok
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let t = Instant::now();
        let r = self.inner.enqueue(txn);
        record(&self.c.enqueue, t);
        r
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let t = Instant::now();
        let out = self.inner.tick(now);
        record(&self.c.tick, t);
        self.c
            .tick_issues
            .fetch_add((self.inner.device().last_issue_at() == Some(now)) as u64, Relaxed);
        out
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        let t = Instant::now();
        self.inner.tick_into(now, out);
        record(&self.c.tick, t);
        self.c
            .tick_issues
            .fetch_add((self.inner.device().last_issue_at() == Some(now)) as u64, Relaxed);
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        let t = Instant::now();
        let next = self.inner.next_event(now);
        record(&self.c.next_event, t);
        self.c.next_event_gains.fetch_add((next > now + 1) as u64, Relaxed);
        next
    }

    fn fast_forward(&mut self, from: Cycle, until: Cycle, out: &mut Vec<Completion>) -> Cycle {
        let t = Instant::now();
        let reached = self.inner.fast_forward(from, until, out);
        record(&self.c.fast_forward, t);
        if reached > from {
            self.c.fast_forward_accepts.fetch_add(1, Relaxed);
            self.c.fast_forward_cycles.fetch_add(reached - from, Relaxed);
        }
        reached
    }

    fn enqueue_event_hint(&self, txn: &Transaction, now: Cycle) -> Cycle {
        self.inner.enqueue_event_hint(txn, now)
    }

    fn device(&self) -> &DramDevice {
        self.inner.device()
    }

    fn aggregate_counters(&self) -> ActivityCounters {
        self.inner.aggregate_counters()
    }

    fn finish(&mut self, now: Cycle) {
        self.inner.finish(now)
    }

    fn stats(&self) -> &McStats {
        self.inner.stats()
    }

    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn record_commands(&mut self) {
        self.inner.record_commands()
    }

    fn take_command_log(&mut self) -> Vec<TimedCommand> {
        self.inner.take_command_log()
    }

    fn has_pending_log(&self) -> bool {
        self.inner.has_pending_log()
    }

    fn take_command_log_into(&mut self, out: &mut Vec<TimedCommand>) {
        self.inner.take_command_log_into(out)
    }

    fn record_obs(&mut self) {
        self.inner.record_obs()
    }

    fn has_obs(&self) -> bool {
        self.inner.has_obs()
    }

    fn take_obs_into(&mut self, out: &mut Vec<ObsCommand>) {
        self.inner.take_obs_into(out)
    }

    fn has_sched_events(&self) -> bool {
        self.inner.has_sched_events()
    }

    fn take_sched_events_into(&mut self, out: &mut Vec<SchedEvent>) {
        self.inner.take_sched_events_into(out)
    }

    fn fault(&self) -> Option<Violation> {
        self.inner.fault()
    }

    fn inject_command_faults(&mut self, spec: CmdFaultSpec) {
        self.inner.inject_command_faults(spec)
    }

    fn set_device_timing(&mut self, t: TimingParams) {
        self.inner.set_device_timing(t)
    }

    fn cadence_spec(&self) -> Option<CadenceSpec> {
        self.inner.cadence_spec()
    }

    fn reconfig_boundary(&self, now: Cycle) -> Cycle {
        self.inner.reconfig_boundary(now)
    }

    fn reconfigure(&mut self, events: &[ReconfigEvent], now: Cycle) -> Result<(), CoreError> {
        self.inner.reconfigure(events, now)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// A [`TraceSource`] that times the one it wraps.
pub struct TimedTrace<T> {
    inner: T,
    c: Arc<Counters>,
}

impl<T: TraceSource> TimedTrace<T> {
    pub fn new(inner: T, c: Arc<Counters>) -> Self {
        TimedTrace { inner, c }
    }
}

impl<T: TraceSource> TraceSource for TimedTrace<T> {
    fn next_op(&mut self) -> TraceOp {
        let t = Instant::now();
        let op = self.inner.next_op();
        record(&self.c.next_op, t);
        op
    }
}

/// One job run through the decorators.
#[derive(Debug)]
pub struct TracedRun {
    pub result: RunResult,
    pub counts: Counts,
    /// `System` construction: controller build (solve + certify for FS)
    /// plus core and trace set-up.
    pub build_ns: u64,
    /// `System::try_run_cycles` wall time.
    pub run_ns: u64,
    /// `System::fastpath_counters()` after the run.
    pub skipped: u64,
    pub elided: u64,
}

/// The system configuration a plain job runs under, as the engine
/// derives it.
pub fn job_config(job: &ExperimentJob) -> SystemConfig {
    let mut cfg = job
        .config
        .unwrap_or_else(|| SystemConfig::with_cores(job.scheduler, job.mix.cores() as u8));
    cfg.scheduler = job.scheduler;
    cfg
}

/// Runs a fault-free, stock-controller job with both decorators in
/// place: the controller from `try_build_controller`, one
/// [`SyntheticTrace`] per core.
///
/// # Errors
///
/// What the same job returns from [`ExperimentJob::run`].
pub fn run_traced(job: &ExperimentJob) -> Result<TracedRun, FsmcError> {
    assert!(job.faults.faults.is_empty() && job.controller.is_none(), "traced jobs are plain jobs");
    let c = Arc::new(Counters::default());
    let cfg = job_config(job);
    let t = Instant::now();
    let traces: Vec<Box<dyn TraceSource>> = job
        .mix
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(TimedTrace::new(SyntheticTrace::new(*p, job.seed + i as u64), c.clone()))
                as Box<dyn TraceSource>
        })
        .collect();
    let mc = fsmc::sim::system::try_build_controller(&cfg)?;
    let mut sys =
        System::with_controller(&cfg, traces, Box::new(TimedController::new(mc, c.clone())));
    if job.metrics {
        sys.enable_metrics();
    }
    let build_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    sys.try_run_cycles(job.cycles)?;
    let run_ns = t.elapsed().as_nanos() as u64;
    let (skipped, elided) = sys.fastpath_counters();
    let stats = sys.stats();
    let metrics = if job.metrics { sys.metrics_report() } else { None };
    let result = RunResult {
        mix_name: job.mix.name,
        scheduler: job.scheduler,
        ipcs: stats.ipcs(),
        stats,
        metrics,
    };
    Ok(TracedRun { result, counts: c.snapshot(), build_ns, run_ns, skipped, elided })
}

/// Runs a plain job the way [`run_traced`] does, without decorators:
/// the reference that the decorators' overhead and transparency are
/// measured against. With `per_cycle`, the fast path is disabled, giving
/// the reference every fast-path tier must match bit for bit. Returns
/// the result and the `try_run_cycles` wall time plus build time in ns.
///
/// # Errors
///
/// What the same job returns from [`ExperimentJob::run`].
pub fn run_direct(job: &ExperimentJob, per_cycle: bool) -> Result<(RunResult, u64), FsmcError> {
    let cfg = job_config(job);
    let t = Instant::now();
    let mut sys = System::try_from_mix(&cfg, &job.mix, job.seed)?;
    if job.metrics {
        sys.enable_metrics();
    }
    if per_cycle {
        sys.disable_fastpath();
    }
    sys.try_run_cycles(job.cycles)?;
    let ns = t.elapsed().as_nanos() as u64;
    let stats = sys.stats();
    let metrics = if job.metrics { sys.metrics_report() } else { None };
    let result = RunResult {
        mix_name: job.mix.name,
        scheduler: job.scheduler,
        ipcs: stats.ipcs(),
        stats,
        metrics,
    };
    Ok((result, ns))
}

/// Everything a result carries, as text: two results are the same run
/// exactly when their fingerprints are equal.
pub fn fingerprint(r: &RunResult) -> String {
    format!("{} {:?} {:?} {:?}", r.mix_name, r.scheduler, r.stats, r.metrics)
}
