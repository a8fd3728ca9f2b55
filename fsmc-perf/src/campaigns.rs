//! The `campaigns` workload: two chaos campaigns and a leak campaign.
//!
//! The invariant monitor is armed, injected faults force per-cycle
//! stepping, the obs collector and the online leak estimator are on, and
//! shrinking re-runs cases, so `StreamMonitor`/`InvariantMonitor`, `obs`
//! and `leak` dominate while the fast-path tiers are bypassed.
//!
//! Each case is one timed job: the workload drives the campaigns from
//! their public parts (`generate_population`, `classify`,
//! `generate_leak_population`, `run_leak_case`, `shrink_leak`) the way
//! `run_campaign` and `run_leak_campaign` do, and replays every chaos
//! failure through `run_single` to check that it classifies the same.
//!
//! A case's cost depends on the fault it drew: a plan whose perturbed
//! timing cannot be solved ends at construction, a leaky plan runs the
//! FR-FCFS arbiter and is shrunk. So that runs with different seeds do
//! comparable work, every population is stratified: the first few plans
//! of every fault-kind combination in the seed's draw.

use crate::decor::{fingerprint, run_direct, run_traced};
use crate::layers::{self, chaos_job, ratio, timed, SimAgg};
use crate::report::{Metric, RunReport};
use crate::speed;
use crate::stats::median;
use crate::workloads::{vm_hwm_kb, Ctx, Samples, Timings, SETUP_REPS};
use fsmc::core::sched::SchedulerKind;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{generate_leak_population, run_leak_case, shrink_leak, LeakCampaignConfig};
use fsmc::sim::spec::{sha256_hex, JobSpec};
use fsmc::sim::{
    classify, generate_population, run_single, CampaignConfig, Engine, ExperimentJob, FaultPlan,
    Outcome, RunResult, System, SystemConfig,
};
use fsmc::workload::TraceCache;
use std::collections::BTreeMap;
use std::time::Instant;

/// Measured body time on the reference box (2 vCPU, 2 threads).
const NOMINAL_BODY_S: f64 = 2.8;
const CYCLES: u64 = 50_000;
/// Plans drawn per population before stratifying; every stratum fills
/// long before.
const DRAWS: usize = 400;
/// Chaos plans per fault kind: 10 kinds with churn (fs-rp), 5 without.
const CHAOS_PER_KIND: usize = 6;
/// Leak plans per fault-kind combination: 13 combinations.
const LEAK_PER_CLASS: usize = 4;

/// The first `per` plans of every fault-kind combination in `pool`, in
/// pool order.
pub fn stratified(pool: Vec<FaultPlan>, per: usize) -> Vec<FaultPlan> {
    let mut taken: BTreeMap<String, usize> = BTreeMap::new();
    pool.into_iter()
        .filter(|plan| {
            let spec = plan.spec();
            let mut kinds: Vec<&str> =
                spec.split('+').map(|f| f.split('(').next().unwrap_or(f)).collect();
            kinds.sort_unstable();
            let n = taken.entry(kinds.join("+")).or_default();
            *n += 1;
            *n <= per
        })
        .collect()
}

/// A chaos campaign: its configuration and stratified single-fault plans.
#[derive(Debug, Clone)]
pub struct Chaos {
    pub label: &'static str,
    pub cfg: CampaignConfig,
    pub plans: Vec<FaultPlan>,
}

impl Chaos {
    fn new(label: &'static str, mut cfg: CampaignConfig) -> Chaos {
        cfg.cycles = CYCLES;
        cfg.max_faults = 1;
        cfg.population = DRAWS;
        let plans = stratified(generate_population(&cfg), CHAOS_PER_KIND);
        Chaos { label, cfg, plans }
    }

    /// fs-rp on mcf×4 with churn and metrics on.
    fn secure(seed: u64) -> Chaos {
        let mut cfg = CampaignConfig::new(seed);
        cfg.run_seed = seed;
        cfg.churn = true;
        cfg.metrics = true;
        Chaos::new("chaos/fs-rp", cfg)
    }

    /// The FR-FCFS baseline on mcf×4.
    fn baseline(seed: u64) -> Chaos {
        let mut cfg = CampaignConfig::new(seed);
        cfg.run_seed = seed;
        cfg.scheduler = SchedulerKind::Baseline;
        Chaos::new("chaos/baseline", cfg)
    }
}

/// The leak campaign: fs-rp, intensity protocol, 20 windows of 2,500
/// cycles (the chaos campaigns' 50k cycles; detection is as sharp as at
/// the default 60: every leaky plan measures above 0.7 bits against the
/// 0.08 threshold).
pub fn leak_config(seed: u64) -> LeakCampaignConfig {
    let mut cfg = LeakCampaignConfig::new(seed);
    cfg.windows = 20;
    cfg
}

/// The stratified leak population of `cfg`'s seed.
pub fn leak_plans(cfg: &LeakCampaignConfig) -> Vec<FaultPlan> {
    let mut draw = cfg.clone();
    draw.population = DRAWS;
    stratified(generate_leak_population(&draw), LEAK_PER_CLASS)
}

/// One leak case as the campaign resolves it: run, then shrink when a
/// leak was detected.
#[derive(Debug, Clone)]
pub struct LeakCase {
    pub plan: FaultPlan,
    pub outcome: Outcome,
    pub mi_bits: f64,
    pub samples: u64,
    pub shrunk: Option<FaultPlan>,
    pub case_ns: f64,
    pub shrink_ns: f64,
    /// The scale factor the case ran at.
    pub factor: f64,
}

/// Runs every plan on `engine`, each case with its own shrink, as
/// `run_leak_campaign` resolves them.
pub fn leak_cases(engine: &Engine, cfg: &LeakCampaignConfig, plans: &[FaultPlan]) -> Vec<LeakCase> {
    engine.map(plans, |_, plan| {
        let factor = speed::job_factor();
        let ((outcome, mi_bits, samples), case_ns) = timed(|| run_leak_case(cfg, plan));
        let (shrunk, shrink_ns) = if outcome == Outcome::LeakDetected {
            let (s, ns) = timed(|| shrink_leak(cfg, plan));
            (Some(s), ns)
        } else {
            (None, 0.0)
        };
        LeakCase {
            plan: plan.clone(),
            outcome,
            mi_bits,
            samples,
            shrunk,
            case_ns,
            shrink_ns,
            factor,
        }
    })
}

/// A stable rendering of the leak cases, for digests.
fn render_leak(cases: &[LeakCase]) -> String {
    cases
        .iter()
        .map(|c| {
            format!(
                "{} {} {:016x} {} {}\n",
                c.plan.spec(),
                c.outcome.name(),
                c.mi_bits.to_bits(),
                c.samples,
                c.shrunk.as_ref().map(|s| s.spec()).unwrap_or_default()
            )
        })
        .collect()
}

/// The checks a leak campaign's verdicts must pass: only the shared
/// arbiter leaks under a secure policy, and every shrunk repro keeps it.
fn check_leaks(cases: &[LeakCase], report: &mut RunReport) {
    for c in cases {
        if c.outcome == Outcome::LeakDetected && !c.plan.has_shared_arbiter() {
            report.fail(format!("leak detected without shared-arbiter(): '{}'", c.plan.spec()));
        }
        if let Some(s) = &c.shrunk {
            if !s.has_shared_arbiter() {
                report.fail(format!("leak '{}' shrank to '{}'", c.plan.spec(), s.spec()));
            }
        }
    }
}

/// `leak.case_ms` and `leak.shrink_share` from resolved cases.
fn leak_metrics(cases: &[LeakCase], report: &mut RunReport) {
    let case_ms: Vec<f64> = cases.iter().map(|c| c.case_ns / 1e6).collect();
    let shrink: f64 = cases.iter().map(|c| c.shrink_ns).sum();
    let total: f64 = cases.iter().map(|c| c.case_ns).sum::<f64>() + shrink;
    report.push(Metric::new("leak.case_ms", median(&case_ms), cases.len()));
    report.push(Metric::new("leak.shrink_share", ratio(shrink, total), cases.len()));
}

/// The leak layer probe of workloads that run no leak campaign: four
/// plans of the workload's leak campaign.
pub fn leak_probe(ctx: &Ctx, report: &mut RunReport) {
    let mut cfg = leak_config(ctx.seed);
    cfg.population = 4;
    let cases = leak_cases(&Engine::with_threads(ctx.nproc), &cfg, &generate_leak_population(&cfg));
    check_leaks(&cases, report);
    leak_metrics(&cases, report);
}

struct Setup {
    chaos: [Chaos; 2],
    leak: LeakCampaignConfig,
    leak_plans: Vec<FaultPlan>,
}

/// Populations plus one `System` construction per distinct (scheduler,
/// device).
fn setup(seed: u64) -> Result<Setup, String> {
    let leak = leak_config(seed);
    let s = Setup {
        chaos: [Chaos::secure(seed), Chaos::baseline(seed)],
        leak_plans: leak_plans(&leak),
        leak,
    };
    for kind in [SchedulerKind::FsRankPartitioned, SchedulerKind::Baseline] {
        let mix = &s.chaos[0].cfg.mix;
        let cfg = SystemConfig::for_device(DeviceGeneration::Ddr3_1600, kind, mix.cores() as u8);
        System::try_from_mix(&cfg, mix, seed).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

/// One body's outcome.
struct Body {
    wall_s: f64,
    /// Per chaos campaign: the reference result and every case's outcome.
    chaos: Vec<Result<(RunResult, Vec<Outcome>), String>>,
    leak: Vec<LeakCase>,
    /// Wall time of the leak phase alone.
    leak_wall_s: f64,
    /// Every case, references included: (unscaled seconds, scale factor).
    jobs: Vec<(f64, f64)>,
}

fn body(s: &Setup, engine: &Engine) -> Body {
    let t = Instant::now();
    let mut jobs = Vec::new();
    let mut chaos = Vec::new();
    for c in &s.chaos {
        // One trace cache per campaign, as `run_campaign` shares one.
        let cache = TraceCache::new();
        let factor = speed::job_factor();
        let (reference, ns) = timed(|| chaos_job(&c.cfg, FaultPlan::default()).run_with(&cache));
        jobs.push((ns / 1e9, factor));
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                chaos.push(Err(format!("{}: reference run: {e}", c.label)));
                continue;
            }
        };
        let cases = engine.map(&c.plans, |_, plan| {
            let factor = speed::job_factor();
            let (r, ns) = timed(|| chaos_job(&c.cfg, plan.clone()).run_with(&cache));
            (classify(&c.cfg, &r, &reference, plan), (ns / 1e9, factor))
        });
        let (outcomes, times): (Vec<Outcome>, Vec<(f64, f64)>) = cases.into_iter().unzip();
        jobs.extend(times);
        chaos.push(Ok((reference, outcomes)));
    }
    let lt = Instant::now();
    let leak = leak_cases(engine, &s.leak, &s.leak_plans);
    jobs.extend(leak.iter().map(|c| ((c.case_ns + c.shrink_ns) / 1e9, c.factor)));
    Body {
        wall_s: t.elapsed().as_secs_f64(),
        chaos,
        leak,
        leak_wall_s: lt.elapsed().as_secs_f64(),
        jobs,
    }
}

/// Digests of one body's campaign tables, labelled; failed campaigns are
/// counted and reported.
fn digests(s: &Setup, b: &Body, report: &mut RunReport, first: bool) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (c, r) in s.chaos.iter().zip(&b.chaos) {
        match r {
            Ok((reference, outcomes)) => {
                let mut table = format!("reference {}\n", fingerprint(reference));
                for (plan, o) in c.plans.iter().zip(outcomes) {
                    table.push_str(&format!("{} {} {}\n", plan.seed, plan.spec(), o.name()));
                }
                out.push((c.label.to_string(), sha256_hex(table.as_bytes())));
            }
            Err(e) => {
                report.failed += 1;
                if first {
                    report.fail(e.clone());
                }
            }
        }
    }
    out.push(("leak/fs-rp".to_string(), sha256_hex(render_leak(&b.leak).as_bytes())));
    out
}

/// Every chaos failure must replay, through `run_single`, to the outcome
/// the campaign classified.
fn check_repros(s: &Setup, b: &Body, engine: &Engine, report: &mut RunReport) {
    let mut replays: Vec<(&CampaignConfig, &FaultPlan, Outcome)> = Vec::new();
    for (c, r) in s.chaos.iter().zip(&b.chaos) {
        if let Ok((_, outcomes)) = r {
            for (plan, &o) in c.plans.iter().zip(outcomes) {
                if o.is_failure() {
                    replays.push((&c.cfg, plan, o));
                }
            }
        }
    }
    let verdicts = engine
        .map(&replays, |_, (cfg, plan, _)| run_single(cfg, (*plan).clone()).map(|c| c.outcome));
    report.attempted += replays.len() as u64;
    for ((_, plan, want), got) in replays.iter().zip(verdicts) {
        match got {
            Ok(o) if o == *want => {}
            other => {
                report.failed += 1;
                report.fail(format!("repro '{}' replayed to {other:?}, not {want}", plan.spec()));
            }
        }
    }
}

pub fn run(ctx: &Ctx, traced: bool, span: u64) -> RunReport {
    let mut report = RunReport::new("campaigns", ctx.seed, traced, ctx.nproc);
    let engine = Engine::with_threads(ctx.nproc);
    let mut times = Timings::new(Samples::Jobs);
    let mut s = None;
    for _ in 0..SETUP_REPS {
        match speed::scaled(|| setup(ctx.seed)) {
            (Ok(built), secs) => {
                times.setup_s.push(secs);
                s = Some(built);
            }
            (Err(e), _) => {
                report.fail(format!("setup: {e}"));
                return report;
            }
        }
    }
    let s = s.expect("at least one setup ran");
    let reps = if traced { 1 } else { ctx.reps(NOMINAL_BODY_S) };
    let mut first: Option<Body> = None;
    for rep in 0..reps {
        let b = body(&s, &engine);
        report.attempted += b.jobs.len() as u64;
        times.scaled_body(b.wall_s, &b.jobs);
        // Leak cases without their shrink are the job samples: a chaos
        // case's or a shrink's cost turns on fault parameters the strata
        // do not fix.
        times.scaled_jobs(b.leak.iter().map(|c| (c.case_ns / 1e9, c.factor)));
        let d = digests(&s, &b, &mut report, rep == 0);
        if rep == 0 {
            check_leaks(&b.leak, &mut report);
            report.digests = d;
            first = Some(b);
        } else if d != report.digests {
            report.fail(format!("body {rep} campaign tables differ from body 0"));
        }
    }
    let first = first.expect("at least one body ran");
    check_repros(&s, &first, &engine, &mut report);
    if traced {
        traced_layers(ctx, &s, &first, &mut report, span);
    } else {
        times.report(&mut report, vm_hwm_kb("self").unwrap_or(0));
    }
    report
}

fn traced_layers(ctx: &Ctx, s: &Setup, first: &Body, report: &mut RunReport, wl: u64) {
    // Engine idle time over the leak phase, whose cases run with no
    // serial step between them.
    let busy: f64 = first.leak.iter().map(|c| (c.case_ns + c.shrink_ns) / 1e9).sum();
    let idle = 1.0 - ratio(busy, ctx.nproc as f64 * first.leak_wall_s);
    report.push(Metric::new("sim.engine_idle_frac", idle, first.leak.len()));
    leak_metrics(&first.leak, report);

    let mut agg = SimAgg::default();
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    let rep = ctx.spans.reserve(wl, "rep");
    let rep_start = Instant::now();
    let refs: Vec<ExperimentJob> =
        s.chaos.iter().map(|c| chaos_job(&c.cfg, FaultPlan::default())).collect();
    for job in &refs {
        let plain = run_direct(job, false);
        let start = Instant::now();
        match (run_traced(job), plain) {
            (Ok(t), Ok((p, t_plain))) => {
                if fingerprint(&t.result) != fingerprint(&p) {
                    report.fail(format!("traced {} differs from untraced", job.mix.name));
                }
                layers::job_span(&ctx.spans, rep, &crate::workloads::job_label(job), start, &t);
                traced_ns += (t.build_ns + t.run_ns) as f64;
                plain_ns += t_plain as f64;
                agg.add(&t, job.cycles);
            }
            (Err(e), _) | (_, Err(e)) => report.fail(format!("reference job: {e}")),
        }
    }
    ctx.spans.set(rep, rep_start, Instant::now());
    report.attempted += refs.len() as u64;
    report.metrics.extend(agg.metrics());
    report.push(Metric::new("trace_overhead_frac", ratio(traced_ns, plain_ns) - 1.0, agg.jobs()));

    // Probes run on the plain (unmonitored) reference jobs.
    let plain: Vec<ExperimentJob> = refs
        .iter()
        .map(|j| {
            let mut cfg = crate::decor::job_config(j);
            cfg.monitor = false;
            ExperimentJob::new(j.mix.clone(), j.scheduler, j.cycles, j.seed).with_config(cfg)
        })
        .collect();
    layers::dram_metrics(&plain[0], report);
    layers::obs_metrics(&plain, report);
    layers::monitor_metric(&plain, report);
    layers::chaos_metric(&s.chaos[0].cfg, report);
    layers::leak_record_metric(&plain[0], report);
    let specs: Vec<JobSpec> = plain
        .iter()
        .flat_map(|j| {
            [j.seed, j.seed + 1].map(|seed| {
                let mut j = j.clone();
                j.seed = seed;
                JobSpec::try_from_job(&j).expect("plain campaign jobs are stock jobs")
            })
        })
        .collect();
    crate::serve::probe(ctx, &specs, report);
}
