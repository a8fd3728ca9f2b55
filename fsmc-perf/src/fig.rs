//! The figure workloads: the FR-FCFS denominator and the secure-policy
//! grid, run as the figure binaries run them (`Engine::map` over the
//! plan, one shared `TraceCache` per pass).

use crate::decor::{fingerprint, job_config, run_direct, run_traced};
use crate::layers::{self, ratio, SimAgg};
use crate::report::{Metric, RunReport};
use crate::speed;
use crate::workloads::{job_label, result_digest, vm_hwm_kb, Ctx, Samples, Timings, SETUP_REPS};
use fsmc::core::sched::SchedulerKind;
use fsmc::dram::DeviceGeneration;
use fsmc::sim::spec::JobSpec;
use fsmc::sim::{Engine, ExperimentJob, FsmcError, RunResult, System, SystemConfig};
use fsmc::workload::{TraceCache, WorkloadMix};
use std::time::Instant;

/// The figure binaries' default job length.
const CYCLES: u64 = 60_000;
const DEVICES: [DeviceGeneration; 2] = [DeviceGeneration::Ddr3_1600, DeviceGeneration::Hbm2];
/// Every this-many-th job is re-run per-cycle as a fast-path check.
const PER_CYCLE_STRIDE: usize = 16;
/// Every this-many-th job is traced.
const TRACE_STRIDE: usize = 4;

/// A figure workload's shape.
#[derive(Debug, Clone)]
pub struct Fig {
    pub name: &'static str,
    kinds: Vec<SchedulerKind>,
    /// Seeds `S..S+seeds` per (mix, device, scheduler).
    seeds: u64,
    threads: usize,
    /// Measured body time on the reference box (2 vCPU).
    nominal_body_s: f64,
}

impl Fig {
    /// `baseline` over the suite: the denominator of every figure.
    pub fn frfcfs() -> Fig {
        Fig {
            name: "fig-frfcfs",
            kinds: vec![SchedulerKind::Baseline],
            seeds: 2,
            threads: 1,
            nominal_body_s: 2.7,
        }
    }

    /// The paper's secure policies, the fence.t.s-style `tp-fence`
    /// included.
    pub fn secure(threads: usize) -> Fig {
        Fig {
            name: "fig-secure",
            kinds: vec![
                SchedulerKind::FsRankPartitioned,
                SchedulerKind::FsReorderedBankPartitioned,
                SchedulerKind::FsTripleAlternation,
                SchedulerKind::FsNoPartitionNaive,
                SchedulerKind::TpBankPartitioned { turn: 60 },
                SchedulerKind::TpFence { period: 300 },
            ],
            seeds: 2,
            threads,
            nominal_body_s: 1.8,
        }
    }

    pub fn jobs(&self, seed: u64) -> Vec<ExperimentJob> {
        let mut jobs = Vec::new();
        for mix in WorkloadMix::suite(8) {
            for device in DEVICES {
                for &kind in &self.kinds {
                    for s in seed..seed + self.seeds {
                        let cfg = SystemConfig::for_device(device, kind, mix.cores() as u8);
                        jobs.push(
                            ExperimentJob::new(mix.clone(), kind, CYCLES, s).with_config(cfg),
                        );
                    }
                }
            }
        }
        jobs
    }
}

/// The plan, and every job's `System` built once: the construction
/// (solve + certify for FS) that each job repeats in every body.
fn setup(fig: &Fig, seed: u64) -> Result<Vec<ExperimentJob>, FsmcError> {
    let jobs = fig.jobs(seed);
    for job in &jobs {
        std::hint::black_box(System::try_from_mix(&job_config(job), &job.mix, job.seed)?);
    }
    Ok(jobs)
}

struct Body {
    wall_s: f64,
    results: Vec<Result<RunResult, FsmcError>>,
    /// Per job: unscaled host seconds and the scale factor it ran at.
    job_s: Vec<(f64, f64)>,
}

fn body(fig: &Fig, jobs: &[ExperimentJob]) -> Body {
    let cache = TraceCache::new();
    let t = Instant::now();
    let out = Engine::with_threads(fig.threads).map(jobs, |_, job| {
        let factor = speed::job_factor();
        let (r, ns) = layers::timed(|| job.run_with(&cache));
        (r, (ns / 1e9, factor))
    });
    let wall_s = t.elapsed().as_secs_f64();
    let (results, job_s) = out.into_iter().unzip();
    Body { wall_s, results, job_s }
}

/// Digests of a body's results; errors are counted and, for the first
/// body, reported.
fn digests(
    jobs: &[ExperimentJob],
    b: &Body,
    report: &mut RunReport,
    first: bool,
) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(jobs.len());
    for (job, r) in jobs.iter().zip(&b.results) {
        match r {
            Ok(r) => out.push((job_label(job), result_digest(job, r))),
            Err(e) => {
                report.failed += 1;
                if first {
                    report.fail(format!("{}: {e}", job_label(job)));
                }
            }
        }
    }
    out
}

pub fn run(ctx: &Ctx, fig: Fig, traced: bool, span: u64) -> RunReport {
    let mut report = RunReport::new(fig.name, ctx.seed, traced, fig.threads);
    let mut times = Timings::new(Samples::Jobs);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        match speed::scaled(|| setup(&fig, ctx.seed)) {
            (Ok(j), secs) => {
                jobs = j;
                times.setup_s.push(secs);
            }
            (Err(e), _) => {
                report.fail(format!("setup: {e}"));
                return report;
            }
        }
    }
    let reps = if traced { 1 } else { ctx.reps(fig.nominal_body_s) };
    let mut first: Option<Body> = None;
    for rep in 0..reps {
        let b = body(&fig, &jobs);
        report.attempted += jobs.len() as u64;
        times.scaled_body(b.wall_s, &b.job_s);
        times.scaled_jobs(b.job_s.iter().copied());
        let d = digests(&jobs, &b, &mut report, rep == 0);
        if rep == 0 {
            report.digests = d;
            first = Some(b);
        } else if d != report.digests {
            report.fail(format!("body {rep} results differ from body 0"));
        }
    }
    let first = first.expect("at least one body ran");
    check_per_cycle(&jobs, &first, &mut report);
    if traced {
        traced_layers(ctx, &fig, &jobs, &first, &mut report, span);
    } else {
        times.report(&mut report, vm_hwm_kb("self").unwrap_or(0));
    }
    report
}

/// Every 16th job re-run per-cycle must match its fast-path result.
fn check_per_cycle(jobs: &[ExperimentJob], b: &Body, report: &mut RunReport) {
    for i in (0..jobs.len()).step_by(PER_CYCLE_STRIDE) {
        report.attempted += 1;
        let same = match (&b.results[i], run_direct(&jobs[i], true)) {
            (Ok(fast), Ok((slow, _))) => fingerprint(fast) == fingerprint(&slow),
            _ => false,
        };
        if !same {
            report.failed += 1;
            report
                .fail(format!("{}: per-cycle run differs from the fast path", job_label(&jobs[i])));
        }
    }
}

fn traced_layers(
    ctx: &Ctx,
    fig: &Fig,
    jobs: &[ExperimentJob],
    untraced: &Body,
    report: &mut RunReport,
    wl: u64,
) {
    let busy_s: f64 = untraced.job_s.iter().map(|(s, _)| s).sum();
    let idle = 1.0 - ratio(busy_s, fig.threads as f64 * untraced.wall_s);
    report.push(Metric::new("sim.engine_idle_frac", idle, jobs.len()));

    let mut agg = SimAgg::default();
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    let mut sample = Vec::new();
    let rep = ctx.spans.reserve(wl, "rep");
    let rep_start = Instant::now();
    for i in (0..jobs.len()).step_by(TRACE_STRIDE) {
        let job = &jobs[i];
        report.attempted += 1;
        let direct = run_direct(job, false);
        let start = Instant::now();
        match (run_traced(job), &untraced.results[i], direct) {
            (Ok(t), Ok(plain), Ok((_, direct_ns))) => {
                if fingerprint(&t.result) != fingerprint(plain) {
                    report.failed += 1;
                    report.fail(format!("{}: traced result differs from untraced", job_label(job)));
                }
                layers::job_span(&ctx.spans, rep, &job_label(job), start, &t);
                traced_ns += (t.build_ns + t.run_ns) as f64;
                plain_ns += direct_ns as f64;
                agg.add(&t, job.cycles);
                sample.push(job.clone());
            }
            (Err(e), _, _) | (_, _, Err(e)) => {
                report.failed += 1;
                report.fail(format!("{}: traced run: {e}", job_label(job)));
            }
            (Ok(_), Err(_), Ok(_)) => {}
        }
    }
    ctx.spans.set(rep, rep_start, Instant::now());
    report.metrics.extend(agg.metrics());
    report.push(Metric::new("trace_overhead_frac", ratio(traced_ns, plain_ns) - 1.0, agg.jobs()));
    if sample.len() < 4 {
        report.fail("fewer than four traced jobs succeeded; layer probes skipped".to_string());
        return;
    }
    let probe = &sample[..4];
    layers::dram_metrics(&probe[0], report);
    layers::obs_metrics(probe, report);
    layers::monitor_metric(probe, report);
    layers::chaos_metric(&layers::chaos_config_for(&probe[0], ctx.seed), report);
    layers::leak_record_metric(&probe[0], report);
    crate::campaigns::leak_probe(ctx, report);
    let specs: Vec<JobSpec> = probe
        .iter()
        .map(|j| JobSpec::try_from_job(j).expect("figure jobs are stock jobs"))
        .collect();
    crate::serve::probe(ctx, &specs, report);
}
