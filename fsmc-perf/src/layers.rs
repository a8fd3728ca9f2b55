//! Per-layer metrics for traced runs: aggregation of decorated jobs, and
//! the layer probes every traced run takes with its own workload's jobs.
//!
//! Every traced run reports every layer. A layer the workload's own
//! bodies do not reach (the service, say, on a figure workload) is
//! measured by a small probe built from that workload's jobs, so the
//! numbers stay comparable run to run on the same workload.

use crate::decor::{job_config, Counts, TracedRun};
use crate::report::{Metric, RunReport};
use crate::spans::Spans;
use crate::stats::median;
use fsmc::dram::{DramDevice, StreamMonitor};
use fsmc::leak::OnlineLeakEstimator;
use fsmc::obs::MetricsCollector;
use fsmc::sim::{generate_population, CampaignConfig, ExperimentJob, System};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Decorated-job totals over a traced run.
#[derive(Debug, Default)]
pub struct SimAgg {
    counts: Counts,
    run_ns: u64,
    cycles: u64,
    skipped: u64,
    elided: u64,
    builds_us: Vec<f64>,
}

impl SimAgg {
    pub fn add(&mut self, t: &TracedRun, cycles: u64) {
        self.counts.add(&t.counts);
        self.run_ns += t.run_ns;
        self.cycles += cycles;
        self.skipped += t.skipped;
        self.elided += t.elided;
        self.builds_us.push(t.build_ns as f64 / 1e3);
    }

    pub fn jobs(&self) -> usize {
        self.builds_us.len()
    }

    /// `sim.*` (except the engine and probe metrics), `core.*` and
    /// `workload.*`.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let n = self.jobs();
        let cyc = self.cycles as f64;
        let run = self.run_ns as f64;
        let per_k = |calls: u64| ratio(calls as f64 * 1e3, cyc);
        let per_call = |(calls, ns): (u64, u64)| ratio(ns as f64, calls as f64);
        let self_ns = run - (c.controller_ns() + c.next_op.1) as f64;
        vec![
            Metric::new("sim.self_ns_per_cycle", ratio(self_ns, cyc), n),
            Metric::new("sim.skipped_frac", ratio(self.skipped as f64, cyc), n),
            Metric::new("sim.elided_frac", ratio(self.elided as f64, cyc), n),
            Metric::new("sim.build_us", median(&self.builds_us), n),
            Metric::new("core.tick_per_kcycle", per_k(c.tick.0), n),
            Metric::new("core.tick_ns", per_call(c.tick), c.tick.0 as usize),
            Metric::new("core.tick_share", ratio(c.tick.1 as f64, run), n),
            Metric::new("core.tick_issue_ratio", ratio(c.tick_issues as f64, c.tick.0 as f64), n),
            Metric::new("core.next_event_per_kcycle", per_k(c.next_event.0), n),
            Metric::new("core.next_event_ns", per_call(c.next_event), c.next_event.0 as usize),
            Metric::new(
                "core.next_event_gain_ratio",
                ratio(c.next_event_gains as f64, c.next_event.0 as f64),
                n,
            ),
            Metric::new("core.fast_forward_per_kcycle", per_k(c.fast_forward.0), n),
            Metric::new(
                "core.fast_forward_accept_ratio",
                ratio(c.fast_forward_accepts as f64, c.fast_forward.0 as f64),
                n,
            ),
            Metric::new(
                "core.fast_forward_cycle_frac",
                ratio(c.fast_forward_cycles as f64, cyc),
                n,
            ),
            Metric::new("core.enqueue_per_kcycle", per_k(c.enqueue.0), n),
            Metric::new("core.enqueue_ns", per_call(c.enqueue), c.enqueue.0 as usize),
            Metric::new(
                "core.can_accept_reject_ratio",
                ratio(c.can_accept_rejects as f64, c.can_accept.0 as f64),
                n,
            ),
            Metric::new("workload.next_op_per_kcycle", per_k(c.next_op.0), n),
            Metric::new("workload.next_op_ns", per_call(c.next_op), c.next_op.0 as usize),
            Metric::new("workload.trace_share", ratio(c.next_op.1 as f64, run), n),
        ]
    }
}

/// Records a decorated job as a `job` span with `build` and `run`
/// children; the hot-call aggregates ride on the job span.
pub fn job_span(spans: &Spans, parent: u64, label: &str, start: Instant, t: &TracedRun) -> u64 {
    let c = &t.counts;
    let built = start + Duration::from_nanos(t.build_ns);
    let ran = built + Duration::from_nanos(t.run_ns);
    let id = spans.add(
        parent,
        label,
        start,
        ran,
        &[
            ("tick_calls", c.tick.0),
            ("tick_ns", c.tick.1),
            ("next_event_calls", c.next_event.0),
            ("next_event_ns", c.next_event.1),
            ("fast_forward_calls", c.fast_forward.0),
            ("fast_forward_ns", c.fast_forward.1),
            ("enqueue_calls", c.enqueue.0),
            ("enqueue_ns", c.enqueue.1),
            ("can_accept_calls", c.can_accept.0),
            ("can_accept_ns", c.can_accept.1),
            ("next_op_calls", c.next_op.0),
            ("next_op_ns", c.next_op.1),
        ],
    );
    spans.add(id, "build", start, built, &[]);
    spans.add(id, "run", built, ran, &[]);
    id
}

/// Wall time of `f` in nanoseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Runs `job` with `tweak` applied to a freshly built system.
fn run_system(
    job: &ExperimentJob,
    cfg_tweak: impl FnOnce(&mut fsmc::sim::SystemConfig),
    tweak: impl FnOnce(&mut System),
) -> Result<System, String> {
    let mut cfg = job_config(job);
    cfg_tweak(&mut cfg);
    let mut sys = System::try_from_mix(&cfg, &job.mix, job.seed).map_err(|e| e.to_string())?;
    tweak(&mut sys);
    sys.try_run_cycles(job.cycles).map_err(|e| e.to_string())?;
    Ok(sys)
}

/// `dram.*`: records `job`'s command log in a separate run (recording
/// gates FS fast-forward, so the timed traced runs keep it off), then
/// replays it through a fresh `DramDevice` (`can_issue` + `issue`) and a
/// fresh `StreamMonitor`.
pub fn dram_metrics(job: &ExperimentJob, report: &mut RunReport) {
    let mut sys = match run_system(job, |c| c.record_commands = true, |_| {}) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("dram probe run: {e}")),
    };
    let log = sys.take_command_log();
    let cfg = job_config(job);
    let mut issue = Vec::new();
    let mut monitor = Vec::new();
    let mut flagged = 0;
    for _ in 0..5 {
        let mut dev = DramDevice::new(cfg.geometry, cfg.timing);
        let (illegal, ns) = timed(|| {
            log.iter()
                .filter(|tc| {
                    dev.can_issue(&tc.cmd, tc.cycle).is_err()
                        || dev.issue(&tc.cmd, tc.cycle).is_err()
                })
                .count()
        });
        issue.push(ratio(ns, log.len() as f64));
        flagged += illegal;
        let mut mon = StreamMonitor::new(cfg.geometry, cfg.timing);
        let (violations, ns) =
            timed(|| log.iter().map(|tc| black_box(mon.observe(tc)).len()).sum::<usize>());
        monitor.push(ratio(ns, log.len() as f64));
        flagged += violations;
    }
    if flagged > 0 || log.is_empty() {
        let n = log.len();
        report.fail(format!("dram replay of {n} recorded commands flagged {flagged}"));
    }
    let n = log.len();
    report.push(Metric::new("dram.cmd_per_kcycle", ratio(n as f64 * 1e3, job.cycles as f64), 1));
    report.push(Metric::new("dram.issue_ns_per_cmd", median(&issue), n));
    report.push(Metric::new("dram.monitor_ns_per_cmd", median(&monitor), n));
}

/// Relative cost of running `jobs` with a toggle on versus off: the
/// same jobs, alternated, summed.
fn toggle_overhead(
    jobs: &[ExperimentJob],
    on: impl Fn(&ExperimentJob) -> ExperimentJob,
    report: &mut RunReport,
    what: &str,
) -> f64 {
    let (mut off_ns, mut on_ns) = (0.0, 0.0);
    for job in jobs {
        let toggled = on(job);
        let (a, t_off) = timed(|| job.run());
        let (b, t_on) = timed(|| toggled.run());
        match (a, b) {
            (Ok(a), Ok(b)) if a.stats.cores == b.stats.cores => {}
            (Ok(_), Ok(_)) => report.fail(format!("{what} changed the results of a job")),
            (Err(e), _) | (_, Err(e)) => report.fail(format!("{what} probe: {e}")),
        }
        off_ns += t_off;
        on_ns += t_on;
    }
    ratio(on_ns, off_ns) - 1.0
}

/// `obs.*`: `ExperimentJob::with_metrics` on versus off, and
/// `MetricsCollector::on_event` replayed over one job's trace events.
pub fn obs_metrics(jobs: &[ExperimentJob], report: &mut RunReport) {
    let frac = toggle_overhead(jobs, |j| j.clone().with_metrics(), report, "with_metrics");
    report.push(Metric::new("obs.metrics_overhead_frac", frac, jobs.len()));
    let job = &jobs[0];
    let mut sys = match run_system(job, |_| {}, System::enable_tracing) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("obs probe run: {e}")),
    };
    let events = sys.take_trace();
    let cfg = job_config(job);
    let g = cfg.geometry;
    let mut per_event = Vec::new();
    for _ in 0..5 {
        let mut m = MetricsCollector::new(cfg.cores, g.ranks_per_channel(), g.banks_per_rank());
        let ((), ns) = timed(|| events.iter().for_each(|e| m.on_event(black_box(e))));
        black_box(m.finish(0.0));
        per_event.push(ratio(ns, events.len() as f64));
    }
    let n = events.len();
    report.push(Metric::new("obs.on_event_ns", median(&per_event), n));
    report.push(Metric::new("obs.events_per_kcycle", ratio(n as f64 * 1e3, job.cycles as f64), 1));
}

/// `sim.monitor_overhead_frac`: the same jobs with
/// `SystemConfig::monitor` on versus off.
pub fn monitor_metric(jobs: &[ExperimentJob], report: &mut RunReport) {
    let frac = toggle_overhead(
        jobs,
        |j| {
            let mut cfg = job_config(j);
            cfg.monitor = true;
            j.clone().with_config(cfg)
        },
        report,
        "the invariant monitor",
    );
    report.push(Metric::new("sim.monitor_overhead_frac", frac, jobs.len()));
}

/// A chaos campaign configuration shaped like `job`.
pub fn chaos_config_for(job: &ExperimentJob, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(seed);
    cfg.mix = job.mix.clone();
    cfg.scheduler = job.scheduler;
    cfg.device = job.device();
    cfg.cycles = job.cycles;
    cfg.run_seed = job.seed;
    cfg
}

/// One chaos case, built as `CampaignConfig` builds its jobs but through
/// public `ExperimentJob` calls: the campaign's config with the monitor
/// armed, the plan's faults, metrics when the campaign collects them.
pub fn chaos_job(cfg: &CampaignConfig, plan: fsmc::sim::FaultPlan) -> ExperimentJob {
    let mut sys =
        fsmc::sim::SystemConfig::for_device(cfg.device, cfg.scheduler, cfg.mix.cores() as u8);
    sys.monitor = true;
    let job = ExperimentJob::new(cfg.mix.clone(), cfg.scheduler, cfg.cycles, cfg.run_seed)
        .with_config(sys)
        .with_faults(plan);
    if cfg.metrics {
        job.with_metrics()
    } else {
        job
    }
}

/// `sim.chaos_job_ms`: mean time of the first 16 cases of `cfg`'s
/// population. Many faulted cases end at construction while others run
/// to the end, so the mean, not the median, tracks the work. Outcomes
/// are results, not failures, so errors are not counted.
pub fn chaos_metric(cfg: &CampaignConfig, report: &mut RunReport) {
    let plans: Vec<_> = generate_population(cfg).into_iter().take(16).collect();
    let n = plans.len();
    let ((), ns) = timed(|| {
        for plan in plans {
            black_box(chaos_job(cfg, plan).run().is_ok());
        }
    });
    report.push(Metric::new("sim.chaos_job_ms", ratio(ns / 1e6, n as f64), n));
}

/// `leak.record_ns`: `OnlineLeakEstimator::record` replayed over the
/// demand-read latencies domain 0 observes in `job`, with the symbol
/// alternating every 64 samples.
pub fn leak_record_metric(job: &ExperimentJob, report: &mut RunReport) {
    let mut sys = match run_system(job, |_| {}, |s| s.observe(0)) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("leak record probe run: {e}")),
    };
    let latencies: Vec<u64> = sys.take_observations().into_iter().map(|(_, l)| l).collect();
    let mut per_record = Vec::new();
    for _ in 0..5 {
        let mut est = OnlineLeakEstimator::new();
        let ((), ns) = timed(|| {
            for (i, &l) in latencies.iter().enumerate() {
                est.record(black_box((i / 64) % 2 == 1), black_box(l));
            }
        });
        black_box(est.mi_bits());
        per_record.push(ratio(ns, latencies.len() as f64));
    }
    if latencies.is_empty() {
        report.fail("leak record probe observed no reads".to_string());
    }
    report.push(Metric::new("leak.record_ns", median(&per_record), latencies.len()));
}
