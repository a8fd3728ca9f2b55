//! The `serve` workload: `fsmc serve` answering from a filled cache.
//!
//! One cold pass over distinct stock specs fills a cache; every body
//! then restarts the daemon on it and makes warm passes. One client
//! process drives it with `nproc` threads, each a closed loop of
//! `Client::submit` → `Client::wait`, as `run_plan_remote` callers wait
//! for replies. Warm requests run no simulation, so they measure only
//! the service: socket protocol, registry, SHA-256 key, cache read and
//! integrity check. Host times are reported unscaled: a request spends
//! most of its time in the daemon's accept-poll sleeps, which host speed
//! does not change.
//!
//! Cold requests (worker spawn, simulation, durable cache write) are
//! checked but not gated: under host contention their times spread
//! beyond any useful bound. The traced run measures their layers.

use crate::decor::{fingerprint, run_direct, run_traced};
use crate::layers::{self, ratio, timed, SimAgg};
use crate::report::{Metric, RunReport};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{spec_label, vm_hwm_kb, Ctx, Samples, Timings, SETUP_REPS};
use fsmc::core::sched::SchedulerKind;
use fsmc::dram::DeviceGeneration;
use fsmc::serve::{Client, ResultCache};
use fsmc::sim::spec::{sha256_hex, JobSpec, ResultPayload};
use fsmc::sim::Engine;
use fsmc::workload::WorkloadMix;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Measured body time on the reference box (2 vCPU).
const NOMINAL_BODY_S: f64 = 2.5;
const CYCLES: u64 = 60_000;
/// Warm passes over the specs per body.
const WARM_PASSES: usize = 2;
/// Every this-many-th spec is also run in-process and compared.
const IN_PROCESS_STRIDE: usize = 16;
/// Every this-many-th spec is traced in-process.
const TRACE_STRIDE: usize = 4;
/// How long a daemon may take to answer its first PING or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(30);

/// 12 mixes × {baseline, fs-rp, fs-reordered-bp, tp-bp, fs-ta} × seeds
/// {S, S+1} on DDR3-1600: 120 distinct specs.
pub fn specs(seed: u64) -> Vec<JobSpec> {
    let kinds = [
        SchedulerKind::Baseline,
        SchedulerKind::FsRankPartitioned,
        SchedulerKind::FsReorderedBankPartitioned,
        SchedulerKind::TpBankPartitioned { turn: 60 },
        SchedulerKind::FsTripleAlternation,
    ];
    let mut out = Vec::new();
    for mix in WorkloadMix::suite(8) {
        for scheduler in kinds {
            for s in [seed, seed + 1] {
                out.push(JobSpec {
                    mix: mix.name.to_string(),
                    cores: 8,
                    scheduler,
                    device: DeviceGeneration::Ddr3_1600,
                    cycles: CYCLES,
                    seed: s,
                });
            }
        }
    }
    out
}

/// A running `fsmc serve` child on a socket and cache under `dir`.
/// Dropping it kills the daemon if it is still running.
pub struct Daemon {
    child: Option<Child>,
    pub client: Client,
}

/// `path` relative to the working directory when that is shorter: Unix
/// socket paths are limited to about 100 bytes.
fn short(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

impl Daemon {
    /// Spawns the daemon with its socket and cache in `dir` and waits for
    /// its first PONG; returns the seconds from spawn to that PONG.
    ///
    /// # Errors
    ///
    /// The daemon could not be spawned, exited, or never answered.
    pub fn start(ctx: &Ctx, dir: &Path, workers: usize) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = short(&dir.join("d.sock"));
        let t = Instant::now();
        let child = Command::new(&ctx.fsmc_bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(workers.to_string())
            .env("FSMC_CACHE_DIR", dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.fsmc_bin.display()))?;
        let mut d = Daemon { child: Some(child), client: Client::new(socket) };
        while !d.client.ping() {
            let exited = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("fsmc serve exited before answering: {status}"));
            }
            if t.elapsed() > DAEMON_DEADLINE {
                return Err("fsmc serve did not answer PING".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((d, t.elapsed().as_secs_f64()))
    }

    /// Asks the daemon to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// The daemon did not exit cleanly in time (it is killed).
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("a started daemon has a child");
        self.client.shutdown();
        let t = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("fsmc serve exited with {s}")),
                Ok(None) if t.elapsed() < DAEMON_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("fsmc serve did not shut down; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Request {
    pub submit_ns: f64,
    pub wait_ns: f64,
    pub cached: bool,
    /// The DONE payload, or a rendered transport error / FAILED record.
    pub outcome: Result<String, String>,
}

impl Request {
    pub fn ms(&self) -> f64 {
        (self.submit_ns + self.wait_ns) / 1e6
    }
}

/// One pass over `specs` on `threads` closed-loop client threads;
/// request `i` answers spec `i`. With `spans`, each request is a span
/// (its id shared by its `submit` and `wait` children) under `parent`.
pub fn pass(
    client: &Client,
    specs: &[JobSpec],
    threads: usize,
    spans: Option<(&Spans, u64)>,
) -> Vec<Request> {
    Engine::with_threads(threads).map(specs, |_, spec| {
        let t0 = Instant::now();
        let submit = client.submit(0, spec);
        let t1 = Instant::now();
        let (cached, outcome) = match submit {
            Ok(reply) => match client.wait(reply.id) {
                Ok(Ok(payload)) => (reply.cached, Ok(payload)),
                Ok(Err(record)) => (reply.cached, Err(format!("FAILED {}", record.encode()))),
                Err(e) => (reply.cached, Err(e)),
            },
            Err(e) => (false, Err(e)),
        };
        let t2 = Instant::now();
        if let Some((spans, parent)) = spans {
            let id = spans.add(parent, &spec_label(spec), t0, t2, &[]);
            spans.add(id, "submit", t0, t1, &[]);
            spans.add(id, "wait", t1, t2, &[]);
        }
        Request {
            submit_ns: (t1 - t0).as_nanos() as f64,
            wait_ns: (t2 - t1).as_nanos() as f64,
            cached,
            outcome,
        }
    })
}

/// Checks a cold pass: every request answered by a fresh simulation.
/// Returns the payloads (empty string for a failed request).
fn check_cold(specs: &[JobSpec], cold: &[Request], report: &mut RunReport) -> Vec<String> {
    let mut payloads = Vec::with_capacity(specs.len());
    for (spec, r) in specs.iter().zip(cold) {
        report.attempted += 1;
        let payload = match &r.outcome {
            Ok(p) if !r.cached => p.clone(),
            Ok(_) => {
                report.failed += 1;
                report.fail(format!(
                    "{}: a cold request was served from the cache",
                    spec_label(spec)
                ));
                String::new()
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("{}: cold request: {e}", spec_label(spec)));
                String::new()
            }
        };
        payloads.push(payload);
    }
    payloads
}

/// Checks warm passes: every reply served from the cache and
/// byte-identical to the cold payload.
fn check_warm(
    specs: &[JobSpec],
    payloads: &[String],
    warm: &[Vec<Request>],
    report: &mut RunReport,
) {
    for w in warm {
        for ((spec, payload), r) in specs.iter().zip(payloads).zip(w) {
            report.attempted += 1;
            if !(r.cached && r.outcome.as_ref().ok() == Some(payload)) {
                report.failed += 1;
                report.fail(format!(
                    "{}: warm reply is not the cached cold payload",
                    spec_label(spec)
                ));
            }
        }
    }
}

/// In-process `ExperimentJob::run` of `spec`: its encoded payload and
/// wall time in ms.
fn in_process(spec: &JobSpec) -> Result<(String, f64), String> {
    let job = spec.to_job().map_err(|e| e.to_string())?;
    let (r, ns) = timed(|| job.run());
    let r = r.map_err(|e| e.to_string())?;
    Ok((ResultPayload::of(spec, &r).encode(), ns / 1e6))
}

/// One daemon lifetime: start, `passes` passes over `specs`, PINGs when
/// traced, stop.
struct Session {
    wall_s: f64,
    /// The daemon's peak resident set in kB, read before it stopped.
    peak_rss_kb: u64,
    passes: Vec<Vec<Request>>,
    pings_ms: Vec<f64>,
}

fn session(
    ctx: &Ctx,
    dir: &Path,
    specs: &[JobSpec],
    passes: usize,
    trace: Option<(&Spans, u64)>,
) -> Result<Session, String> {
    let (daemon, _) = Daemon::start(ctx, dir, ctx.nproc)?;
    let t = Instant::now();
    let passes: Vec<Vec<Request>> =
        (0..passes).map(|_| pass(&daemon.client, specs, ctx.nproc, trace)).collect();
    let wall_s = t.elapsed().as_secs_f64();
    let peak_rss_kb =
        daemon.child.as_ref().and_then(|c| vm_hwm_kb(&c.id().to_string())).unwrap_or(0);
    let pings_ms = if trace.is_some() {
        (0..20).map(|_| timed(|| daemon.client.ping()).1 / 1e6).collect()
    } else {
        Vec::new()
    };
    daemon.stop()?;
    Ok(Session { wall_s, peak_rss_kb, passes, pings_ms })
}

pub fn run(ctx: &Ctx, traced: bool, span: u64) -> RunReport {
    let mut report = RunReport::new("serve", ctx.seed, traced, ctx.nproc);
    let specs = specs(ctx.seed);
    let dir = ctx.scratch("serve");
    let cold = match session(ctx, &dir.0, &specs, 1, None) {
        Ok(mut s) => s.passes.remove(0),
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    let payloads = check_cold(&specs, &cold, &mut report);
    let mut times = Timings::new(Samples::Requests);
    // Set-up is a daemon start on the filled cache: spawn to first PONG.
    for _ in 0..SETUP_REPS {
        match Daemon::start(ctx, &dir.0, ctx.nproc).and_then(|(d, s)| d.stop().map(|()| s)) {
            Ok(s) => times.setup_s.push(s),
            Err(e) => {
                report.fail(e);
                return report;
            }
        }
    }
    let reps = if traced { 1 } else { ctx.reps(NOMINAL_BODY_S) };
    let mut first: Option<Session> = None;
    let mut peak_rss_kb = 0;
    for _ in 0..reps {
        let rep_span = ctx.spans.reserve(span, "rep");
        let started = Instant::now();
        let s = session(ctx, &dir.0, &specs, WARM_PASSES, traced.then_some((&ctx.spans, rep_span)));
        ctx.spans.set(rep_span, started, Instant::now());
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
        check_warm(&specs, &payloads, &s.passes, &mut report);
        times.body_s.push(s.wall_s);
        peak_rss_kb = peak_rss_kb.max(s.peak_rss_kb);
        // Every request is its own sample: a service's tail is the
        // requests that waited, not its slowest specs.
        times.job_s.extend(s.passes.iter().flatten().map(|r| vec![r.ms() / 1e3]));
        first.get_or_insert(s);
    }
    report.digests = specs
        .iter()
        .zip(&payloads)
        .map(|(s, p)| (spec_label(s), sha256_hex(p.as_bytes())))
        .collect();
    for i in (0..specs.len()).step_by(IN_PROCESS_STRIDE) {
        report.attempted += 1;
        if !matches!(in_process(&specs[i]), Ok((local, _)) if local == payloads[i]) {
            report.failed += 1;
            report.fail(format!(
                "{}: service payload differs from in-process run",
                spec_label(&specs[i])
            ));
        }
    }
    let first = first.expect("at least one body ran");
    if traced {
        traced_layers(ctx, &specs, &cold, &first, &mut report, span);
    } else {
        // The daemon is the system under test; this process is its load.
        times.report(&mut report, peak_rss_kb);
    }
    report
}

/// Per-layer metrics of a traced run: the in-process simulator layers on
/// every 4th spec, the service layers on this run's warm requests.
fn traced_layers(
    ctx: &Ctx,
    specs: &[JobSpec],
    cold: &[Request],
    body: &Session,
    report: &mut RunReport,
    wl: u64,
) {
    let own: Vec<&Request> = body.passes.iter().flatten().collect();
    let busy_s: f64 = own.iter().map(|r| r.ms() / 1e3).sum();
    let idle = 1.0 - ratio(busy_s, ctx.nproc as f64 * body.wall_s);
    report.push(Metric::new("sim.engine_idle_frac", idle, own.len()));

    let mut agg = SimAgg::default();
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    let (mut sub_specs, mut jobs, mut inproc_ms, mut cold_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rep = ctx.spans.reserve(wl, "in-process");
    let rep_start = Instant::now();
    for i in (0..specs.len()).step_by(TRACE_STRIDE) {
        let spec = &specs[i];
        report.attempted += 1;
        let job = match spec.to_job() {
            Ok(j) => j,
            Err(e) => {
                report.failed += 1;
                report.fail(format!("{}: {e}", spec_label(spec)));
                continue;
            }
        };
        let (plain, t_run) = timed(|| job.run());
        let direct = run_direct(&job, false);
        let start = Instant::now();
        match (run_traced(&job), plain, direct) {
            (Ok(t), Ok(p), Ok((_, t_direct))) => {
                let remote = cold[i].outcome.as_ref().ok();
                if fingerprint(&t.result) != fingerprint(&p)
                    || remote != Some(&ResultPayload::of(spec, &t.result).encode())
                {
                    report.failed += 1;
                    report.fail(format!("{}: traced result differs", spec_label(spec)));
                }
                layers::job_span(&ctx.spans, rep, &spec_label(spec), start, &t);
                traced_ns += (t.build_ns + t.run_ns) as f64;
                plain_ns += t_direct as f64;
                agg.add(&t, job.cycles);
                inproc_ms.push(t_run / 1e6);
                cold_ms.push(cold[i].ms());
                sub_specs.push(spec.clone());
                jobs.push(job);
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                report.failed += 1;
                report.fail(format!("{}: {e}", spec_label(spec)));
            }
        }
    }
    ctx.spans.set(rep, rep_start, Instant::now());
    report.metrics.extend(agg.metrics());
    report.push(Metric::new("trace_overhead_frac", ratio(traced_ns, plain_ns) - 1.0, agg.jobs()));
    if jobs.len() < 4 {
        report.fail("fewer than four in-process jobs succeeded; layer probes skipped".to_string());
        return;
    }
    let payloads: Vec<String> = (0..specs.len())
        .step_by(TRACE_STRIDE)
        .filter_map(|i| cold[i].outcome.clone().ok())
        .collect();
    service_metrics(ctx, &sub_specs, &payloads, &own, &body.pings_ms, report);
    report.push(Metric::new(
        "serve.cold_overhead_ms",
        median(&cold_ms) - median(&inproc_ms),
        cold_ms.len(),
    ));
    let probe = &jobs[..4];
    layers::dram_metrics(&probe[0], report);
    layers::obs_metrics(probe, report);
    layers::monitor_metric(probe, report);
    layers::chaos_metric(&layers::chaos_config_for(&probe[0], ctx.seed), report);
    layers::leak_record_metric(&probe[0], report);
    crate::campaigns::leak_probe(ctx, report);
}

/// The service-side layer metrics of one session, except
/// `serve.cold_overhead_ms`: round trips, key derivation, payload
/// decoding, cache reads and durable writes, and worker-process runs.
fn service_metrics(
    ctx: &Ctx,
    specs: &[JobSpec],
    payloads: &[String],
    requests: &[&Request],
    pings: &[f64],
    report: &mut RunReport,
) {
    report.push(Metric::new("serve.ping_ms", median(pings), pings.len()));
    let submit: Vec<f64> = requests.iter().map(|r| r.submit_ns / 1e6).collect();
    let wait: Vec<f64> = requests.iter().map(|r| r.wait_ns / 1e6).collect();
    report.push(Metric::new("serve.submit_ms", median(&submit), submit.len()));
    report.push(Metric::new("serve.wait_ms", median(&wait), wait.len()));

    const ROUNDS: usize = 200;
    let (keys, ns) = timed(|| {
        (0..ROUNDS).flat_map(|_| specs.iter().map(|s| std::hint::black_box(s.cache_key()))).count()
    });
    report.push(Metric::new("serve.key_us", ratio(ns / 1e3, keys as f64), keys));
    let (decoded, ns) = timed(|| {
        (0..ROUNDS)
            .flat_map(|_| payloads.iter().map(|p| std::hint::black_box(ResultPayload::decode(p))))
            .filter(Result::is_ok)
            .count()
    });
    if decoded != ROUNDS * payloads.len() {
        report.fail("a service payload failed to decode".to_string());
    }
    report.push(Metric::new("serve.decode_us", ratio(ns / 1e3, decoded as f64), decoded));

    let dir = ctx.scratch("cache-probe");
    let cache = ResultCache::new(dir.0.clone());
    let mut put_ms = Vec::new();
    let mut get_us = Vec::new();
    for (spec, payload) in specs.iter().zip(payloads) {
        let key = spec.cache_key();
        let (put, ns) = timed(|| cache.put(&key, payload));
        put_ms.push(ns / 1e6);
        if let Err(e) = put {
            report.fail(format!("cache put: {e}"));
        }
        for _ in 0..20 {
            let (got, ns) = timed(|| cache.get(&key));
            get_us.push(ns / 1e3);
            if got.as_ref() != Ok(payload) {
                report.fail(format!("cache get of {} missed", spec_label(spec)));
            }
        }
    }
    drop(dir);
    report.push(Metric::new("serve.cache_put_ms", median(&put_ms), put_ms.len()));
    report.push(Metric::new("serve.cache_get_us", median(&get_us), get_us.len()));

    let mut exec_ms = Vec::new();
    for (spec, payload) in specs.iter().zip(payloads).take(3) {
        let (out, ns) = timed(|| job_exec(&ctx.fsmc_bin, spec));
        exec_ms.push(ns / 1e6);
        match out {
            Ok(out) if &out == payload => {}
            Ok(_) => {
                report.fail(format!("job-exec of {} differs from the daemon", spec_label(spec)))
            }
            Err(e) => report.fail(format!("job-exec of {}: {e}", spec_label(spec))),
        }
    }
    report.push(Metric::new("serve.worker_exec_ms", median(&exec_ms), exec_ms.len()));
}

/// Runs one spec through a `fsmc job-exec` worker process, exactly as the
/// daemon's pool does: spec line on stdin, payload on stdout.
fn job_exec(fsmc: &Path, spec: &JobSpec) -> Result<String, String> {
    let mut child = Command::new(fsmc)
        .arg("job-exec")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(spec.canonical_line().as_bytes()).map_err(|e| e.to_string())?;
    drop(stdin);
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(out)
    } else {
        Err(format!("exited with {status}: {out}"))
    }
}

/// The service layer probe of workloads that do not run the service:
/// one daemon session (one client thread per CPU) over `specs`, cold
/// then warm, with the same checks and metrics as the `serve` workload.
pub fn probe(ctx: &Ctx, specs: &[JobSpec], report: &mut RunReport) {
    let dir = ctx.scratch("probe");
    let s = match session(ctx, &dir.0, specs, 2, Some((&ctx.spans, 0))) {
        Ok(s) => s,
        Err(e) => return report.fail(e),
    };
    let payloads = check_cold(specs, &s.passes[0], report);
    check_warm(specs, &payloads, &s.passes[1..], report);
    let mut inproc_ms = Vec::new();
    for (spec, payload) in specs.iter().zip(&payloads) {
        report.attempted += 1;
        match in_process(spec) {
            Ok((local, ms)) if &local == payload => inproc_ms.push(ms),
            _ => {
                report.failed += 1;
                report.fail(format!(
                    "{}: service payload differs from in-process run",
                    spec_label(spec)
                ));
            }
        }
    }
    let warm: Vec<&Request> = s.passes[1].iter().collect();
    service_metrics(ctx, specs, &payloads, &warm, &s.pings_ms, report);
    let cold_ms: Vec<f64> = s.passes[0].iter().map(Request::ms).collect();
    report.push(Metric::new(
        "serve.cold_overhead_ms",
        median(&cold_ms) - median(&inproc_ms),
        cold_ms.len(),
    ));
}
