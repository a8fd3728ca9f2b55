//! The four workloads, their shared run context, and the correctness
//! helpers every workload uses.

use crate::decor::fingerprint;
use crate::report::{Metric, RunReport};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail};
use fsmc::sim::spec::{scheduler_spec, sha256_hex, JobSpec, ResultPayload};
use fsmc::sim::{ExperimentJob, RunResult};
use std::path::PathBuf;

/// What one invocation of the benchmark runs with.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Requested measuring time; sets how many bodies a run executes.
    pub seconds: u64,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Where result copies, traces and scratch directories go.
    pub out_dir: PathBuf,
    /// The `fsmc` binary built next to this one.
    pub fsmc_bin: PathBuf,
    pub spans: Spans,
}

impl Ctx {
    /// How many bodies a run executes: the requested seconds over the
    /// workload's nominal body time, at least three, so that every median
    /// has a middle. The count depends on the request only, never on
    /// measured speed, so two commits always do the same work and sample
    /// counts repeat exactly.
    pub fn reps(&self, nominal_body_s: f64) -> usize {
        ((self.seconds as f64 / nominal_body_s).round() as usize).max(3)
    }

    /// A scratch directory under the output directory, removed on drop.
    pub fn scratch(&self, name: &str) -> Scratch {
        let path = self.out_dir.join(format!("tmp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

/// A directory removed when dropped.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FigFrfcfs,
    FigSecure,
    Campaigns,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::FigFrfcfs, Workload::FigSecure, Workload::Campaigns, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigFrfcfs => "fig-frfcfs",
            Workload::FigSecure => "fig-secure",
            Workload::Campaigns => "campaigns",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload once: timed bodies, or with `traced` one body
    /// plus the per-layer measurements.
    pub fn run(self, ctx: &Ctx, traced: bool) -> RunReport {
        let start = std::time::Instant::now();
        let span = ctx.spans.reserve(0, self.name());
        let mut report = match self {
            Workload::FigFrfcfs => crate::fig::run(ctx, crate::fig::Fig::frfcfs(), traced, span),
            Workload::FigSecure => {
                crate::fig::run(ctx, crate::fig::Fig::secure(ctx.nproc), traced, span)
            }
            Workload::Campaigns => crate::campaigns::run(ctx, traced, span),
            Workload::Serve => crate::serve::run(ctx, traced, span),
        };
        ctx.spans.set(span, start, std::time::Instant::now());
        if !traced {
            check_golden(&mut report);
        }
        report.check_complete();
        report
    }
}

/// What a workload's job samples are, which sets the tail percentile
/// it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Samples {
    /// Simulation jobs, each run once per body: a job's time is the
    /// median of its repetitions, and `job_tail_ms` the highest
    /// percentile with at least ten jobs beyond it.
    Jobs,
    /// Service requests, each its own sample: `job_tail_ms` is their
    /// p90. A request that misses the daemon's 10 ms accept poll because
    /// the host was busy pays another 10 ms, and the share of such
    /// requests moved between 0.1% and 2.4% from run to run, so the
    /// percentiles beyond p90 measured the host.
    Requests,
}

/// Host times of one untraced run; every workload reports its
/// end-to-end metrics from these. Medians throughout: the shared host
/// has fast spells as well as slow ones, and a run's fastest repetition
/// depends on whether it met one.
#[derive(Debug)]
pub struct Timings {
    pub samples: Samples,
    /// One per set-up.
    pub setup_s: Vec<f64>,
    /// One per body.
    pub body_s: Vec<f64>,
    /// Per job: its time in every body that ran it.
    pub job_s: Vec<Vec<f64>>,
}

impl Timings {
    pub fn new(samples: Samples) -> Timings {
        Timings { samples, setup_s: Vec::new(), body_s: Vec::new(), job_s: Vec::new() }
    }

    /// Records a body of a CPU-bound workload: its wall time, scaled by
    /// the time-weighted mean factor of the jobs it ran, given as
    /// (unscaled seconds, scale factor).
    pub fn scaled_body(&mut self, wall_s: f64, jobs: &[(f64, f64)]) {
        let (scaled, raw) = jobs.iter().fold((0.0, 0.0), |(s, r), &(t, f)| (s + t * f, r + t));
        self.body_s.push(wall_s * if raw > 0.0 { scaled / raw } else { 1.0 });
    }

    /// Records one body's job times as (unscaled seconds, scale factor),
    /// in plan order: the `i`-th job of every body is the same job.
    pub fn scaled_jobs(&mut self, jobs: impl IntoIterator<Item = (f64, f64)>) {
        for (i, (t, f)) in jobs.into_iter().enumerate() {
            if i == self.job_s.len() {
                self.job_s.push(Vec::new());
            }
            self.job_s[i].push(t * f);
        }
    }

    /// Pushes the end-to-end metrics: the median set-up, the median
    /// body, and the median and tail of the job times.
    pub fn report(&self, report: &mut RunReport, peak_rss_kb: u64) {
        report.push(Metric::new("setup_s", median(&self.setup_s), self.setup_s.len()));
        let bodies = self.body_s.len();
        let makespan = Metric::new("makespan_s", median(&self.body_s), bodies);
        report.push(makespan.with_note(format!("median of {bodies} bodies")));
        let job_ms: Vec<f64> = self.job_s.iter().map(|t| median(t) * 1e3).collect();
        let n = job_ms.len();
        // Fewer than 40 jobs have no tail; the NaN fails the run's
        // completeness check.
        let (level, tail_ms) = match self.samples {
            Samples::Jobs => tail(&job_ms).unwrap_or((f64::NAN, f64::NAN)),
            Samples::Requests => (90.0, percentile(&job_ms, 90.0)),
        };
        let reps = match self.job_s.first().map_or(0, Vec::len) {
            1 => String::new(),
            reps => format!("median of {reps} per job"),
        };
        report.push(Metric::new("job_p50_ms", median(&job_ms), n).with_note(reps.clone()));
        let note = if reps.is_empty() { format!("p{level}") } else { format!("p{level}, {reps}") };
        report.push(Metric::new("job_tail_ms", tail_ms, n).with_note(note));
        report.push(Metric::new("peak_rss_mb", peak_rss_kb as f64 / 1024.0, 1));
    }
}

/// A job's label in digests and failure messages.
pub fn job_label(job: &ExperimentJob) -> String {
    format!(
        "{}/{}/{}/{}",
        job.mix.name,
        job.device().cli_name(),
        scheduler_spec(job.scheduler),
        job.seed
    )
}

pub fn spec_label(spec: &JobSpec) -> String {
    format!(
        "{}/{}/{}/{}",
        spec.mix,
        spec.device.cli_name(),
        scheduler_spec(spec.scheduler),
        spec.seed
    )
}

/// SHA-256 of the service's bit-exact encoding of a result: the same
/// bytes `fsmc serve` caches, so a digest means the same thing whether
/// the job ran in-process or through the daemon.
pub fn result_digest(job: &ExperimentJob, r: &RunResult) -> String {
    match JobSpec::try_from_job(job) {
        Some(spec) => sha256_hex(ResultPayload::of(&spec, r).encode().as_bytes()),
        None => sha256_hex(fingerprint(r).as_bytes()),
    }
}

/// Set-up phases per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// The seed whose results are pinned by committed digests.
pub const GOLDEN_SEED: u64 = 42;
/// The golden digests, relative to the repository root.
const GOLDEN: &str = "fsmc-perf/golden/seed-42.txt";

/// Compares the run's digests with the golden ones when the run used
/// [`GOLDEN_SEED`]. Lines are `<workload> <label> <sha256>`.
pub fn check_golden(report: &mut RunReport) {
    if report.seed != GOLDEN_SEED {
        return;
    }
    let text = match std::fs::read_to_string(GOLDEN) {
        Ok(t) => t,
        Err(e) => {
            report.fail(format!("golden digests {GOLDEN}: {e}"));
            return;
        }
    };
    let golden: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            match (w.next(), w.next(), w.next()) {
                (Some(wl), Some(label), Some(d)) if wl == report.workload => Some((label, d)),
                _ => None,
            }
        })
        .collect();
    if golden.len() != report.digests.len() {
        let (g, r) = (golden.len(), report.digests.len());
        report.fail(format!("golden has {g} digests for {}, the run made {r}", report.workload));
        return;
    }
    let mismatched: Vec<&str> = golden
        .iter()
        .zip(&report.digests)
        .filter(|((gl, gd), (l, d))| gl != l || gd != d)
        .map(|((gl, _), _)| *gl)
        .collect();
    if let Some(first) = mismatched.first() {
        let n = mismatched.len();
        report.fail(format!("{n} results differ from the golden digests, first {first}"));
    }
}

/// `VmHWM` of process `pid` ("self" for this one) in kB: its peak
/// resident set since its last exec. (`getrusage` would also count the
/// parent's resident set at the fork that started it.)
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
