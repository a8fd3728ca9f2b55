//! `fsmc` — command-line front end to the library.
//!
//! ```text
//! fsmc solve                         solver table for all anchors/partitions
//! fsmc certify                       certify every FS pipeline
//! fsmc diagram [--mix RRRWWRRR]      render the Figure-1 pipeline
//! fsmc simulate [--scheduler K] [--workload NAME] [--cycles N]
//!               [--cores N] [--seed S]
//! fsmc suite    [--schedulers K,K,..] [--cycles N] [--seed S] [--metrics]
//! fsmc attack [--scheduler K]        non-interference measurement
//! fsmc trace  [--scheduler K] [--out FILE]   Chrome-trace timeline export
//! fsmc record --workload NAME --ops N --out FILE
//! ```

use fsmc::bench::{metrics_csv, weighted_ipc_suite_metrics, weighted_ipc_suite_with};
use fsmc::core::sched::fs::FsPipeline;
use fsmc::core::sched::SchedulerKind;
use fsmc::core::solver::diagram::render_uniform;
use fsmc::core::solver::{solve, solve_best, Anchor, PartitionLevel, SlotSchedule};
use fsmc::cpu::trace_file::record_trace;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{
    measure_cell, run_leak_campaign, run_leak_case, shrink_leak, LeakCampaignConfig, Protocol,
};
use fsmc::obs::ChromeTraceBuilder;
use fsmc::security::{check_noninterference, run_covert_channel_on};
use fsmc::serve::pool::HANG_ENV;
use fsmc::serve::{serve, ChaosSpec, Client, ServeOptions};
use fsmc::sim::{
    run_campaign, run_single, CampaignConfig, Engine, ExperimentJob, FaultPlan, JobSpec, System,
    SystemConfig,
};
use fsmc::workload::{BenchProfile, SyntheticTrace, WorkloadMix};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "solve" => cmd_solve(&opts),
        "certify" => cmd_certify(&opts),
        "diagram" => cmd_diagram(&opts),
        "simulate" => cmd_simulate(&opts),
        "suite" => cmd_suite(&opts),
        "attack" => cmd_attack(&opts),
        "leak" => cmd_leak(&opts),
        "trace" => cmd_trace(&opts),
        "chaos" => cmd_chaos(&opts),
        "record" => cmd_record(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "status" => cmd_status(&opts),
        // Hidden: the worker-process entry point `fsmc serve` spawns.
        // Reads one spec line from stdin; exits 0 with the result
        // payload on stdout, 3 with the rendered typed error.
        "job-exec" => return cmd_job_exec(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fsmc — Fixed-Service memory controllers (MICRO'15 reproduction)

USAGE (every command also takes --device GEN):
  fsmc solve                          minimum-pitch table (Sec. 3.1/4.2/4.3)
  fsmc certify                        certify every FS pipeline conflict-free
  fsmc diagram [--mix RRRRRWWR]       render the pipeline timing diagram
  fsmc simulate [--scheduler KIND] [--workload NAME] [--cycles N]
                [--cores N] [--seed S]
  fsmc suite [--schedulers K,K,..] [--cycles N] [--seed S] [--metrics]
                                      weighted-IPC table over the 12-mix suite;
                                      --metrics appends per-domain latency
                                      histogram columns as CSV
  fsmc attack [--scheduler KIND]      measure co-runner interference
  fsmc leak [--scheduler KIND] [--protocol P] [--window N] [--windows N]
                                      covert-channel capacity study: BER, MI
                                      and gated bits/sec per protocol (P one
                                      of intensity, bank-conflict, row-buffer,
                                      or all) on this device generation
  fsmc leak --campaign [--population N] [--seed S] [--scheduler KIND]
            [--protocol P]            leak-hunting chaos campaign: injects
                                      faults (incl. the shared-arbiter
                                      misconfiguration), watches the online
                                      estimator, shrinks each leak-detected
                                      case to a 1-minimal repro
  fsmc leak --faults 'SPEC' [--fault-seed S] [--scheduler KIND] [--protocol P]
                                      reproduce one leak case from its spec
  fsmc trace [--scheduler KIND] [--workload NAME] [--cycles N] [--cores N]
             [--seed S] [--out FILE] [--faults 'SPEC']
                                      export a Chrome-trace-event command
                                      timeline (Perfetto / chrome://tracing)
                                      with per-domain lanes, plus metrics;
                                      --faults takes reconfiguration events
                                      only (leave/join/stuck-bank/dead-rank/
                                      thermal-refresh) and marks adoptions
  fsmc chaos [--scheduler KIND] [--workload NAME] [--cycles N] [--cores N]
             [--population N] [--seed S] [--run-seed S] [--metrics] [--churn]
             [--fault-seed S --faults 'SPEC']
                                      fault-injection campaign with shrinking;
                                      with --faults, reproduce one case
                                      (FSMC_NO_FASTPATH applies identically
                                      to repro and campaign modes);
                                      --churn adds persistent faults and
                                      domain join/leave to the fault pool;
                                      --metrics adds observability reports
  fsmc record --workload NAME --ops N --out FILE   export a USIMM trace
  fsmc serve [--socket PATH] [--workers N] [--timeout MS] [--max-attempts K]
             [--queue N]
                                      run the crash-tolerant experiment
                                      service: a worker-process pool with
                                      retry/backoff and a content-addressed
                                      result cache; suite/chaos and the
                                      figure binaries submit to it whenever
                                      FSMC_SERVE names its socket
  fsmc submit [--workload NAME] [--scheduler KIND] [--cycles N] [--cores N]
              [--seed S] [--priority P] [--spec 'LINE'] [--socket PATH]
                                      run one experiment through the service
                                      and print its bit-exact result payload
  fsmc status [--socket PATH] [--stats] [--shutdown]
                                      daemon status page; --stats prints the
                                      machine-readable counters line and
                                      --shutdown stops the daemon

SCHEDULERS: KIND[:param], KIND one of baseline, baseline-prefetch, fs-rp,
            fs-rp-prefetch, fs-bp, fs-reordered-bp, fs-np, fs-ta,
            channel-part, or a parameterised kind (default in brackets):
            tp-bp[:60] / tp-np[:172] turn length, tp-fence[:300] period,
            fs-mc[:2] channels
DEVICES:    ddr3-1600 (default), ddr4-2400, lpddr4-3200, hbm2
WORKLOADS:  mix1 mix2 CG SP astar lbm libquantum mcf milc zeusmp
            GemsFDTD xalancbmk
ENV:        FSMC_DEVICE    default device generation for fsmc and the
                           figure binaries (--device overrides it)
            FSMC_THREADS   worker threads for suite runs (default: all cores;
                           results are identical at any thread count)
            FSMC_CYCLES / FSMC_SEED   defaults for the figure binaries
            FSMC_RESULTS_DIR          where figure binaries write CSVs
            FSMC_NO_FASTPATH=1        force per-cycle stepping (debugging;
                                      results are bit-identical either way)
            FSMC_SERVE     experiment-service socket path; when set, suite
                           and chaos campaigns route through the daemon
            FSMC_SERVE_WORKERS        service worker processes (default:
                                      all cores)
            FSMC_JOB_TIMEOUT          per-attempt deadline in ms
                                      (default 120000)
            FSMC_CACHE_DIR result cache directory (default results/cache)";

/// Parses `--key value` pairs; a `--key` followed by another option (or
/// nothing) is a bare flag and records the value `"true"`.
fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| format!("expected --option, got {k:?}"))?;
        let v = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
            _ => String::from("true"),
        };
        out.insert(key.to_string(), v);
    }
    Ok(out)
}

/// A boolean flag: present (bare or with a truthy value) unless spelled
/// `false`/`0`/`no`/`off`.
fn get_flag(opts: &HashMap<String, String>, key: &str) -> bool {
    match opts.get(key).map(String::as_str) {
        None => false,
        Some("false") | Some("0") | Some("no") | Some("off") => false,
        Some(_) => true,
    }
}

fn scheduler_kind(name: &str) -> Result<SchedulerKind, String> {
    fsmc::sim::spec::parse_scheduler(name).ok_or_else(|| format!("unknown scheduler {name:?}"))
}

/// `--device` wins over `FSMC_DEVICE`; both default to DDR3-1600. An
/// unknown `--device` is a hard CLI error (the env knob only warns).
fn device_gen(opts: &HashMap<String, String>) -> Result<DeviceGeneration, String> {
    match opts.get("device") {
        None => Ok(fsmc::sim::env::device(DeviceGeneration::Ddr3_1600)),
        Some(v) => DeviceGeneration::parse(v).ok_or_else(|| {
            format!("--device: unknown device generation {v:?} (expected ddr3-1600, ddr4-2400, lpddr4-3200, hbm2)")
        }),
    }
}

fn profile(name: &str) -> Result<BenchProfile, String> {
    BenchProfile::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn get_u64(opts: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn cmd_solve(opts: &HashMap<String, String>) -> Result<(), String> {
    let p = device_gen(opts)?.profile();
    let t = p.timing;
    println!("device: {}", p.generation);
    println!("{:<8} {:<22} {:>4} {:>8} {:>10}", "part.", "anchor", "l", "Q(8thr)", "peak util");
    for level in [PartitionLevel::Rank, PartitionLevel::Bank, PartitionLevel::None] {
        for anchor in Anchor::all() {
            let s = solve(&t, anchor, level).map_err(|e| e.to_string())?;
            println!(
                "{:<8} {:<22} {:>4} {:>8} {:>9.1}%",
                format!("{level:?}"),
                format!("{anchor:?}"),
                s.l,
                s.interval_q(8),
                100.0 * s.peak_data_utilization(&t)
            );
        }
    }
    Ok(())
}

fn cmd_certify(opts: &HashMap<String, String>) -> Result<(), String> {
    let p = device_gen(opts)?.profile();
    let (t, geom) = (p.timing, p.geometry);
    println!("device: {}", p.generation);
    let mut all_ok = true;
    let mut show = |name: &str, r: &fsmc::core::solver::CertifyReport| {
        println!(
            "{name:<42} {:>7} cases  {}",
            r.cases,
            if r.certified() { "CERTIFIED" } else { "FAILED" }
        );
        all_ok &= r.certified();
    };
    for (kind, name) in [
        (SchedulerKind::FsRankPartitioned, "rank-partitioned"),
        (SchedulerKind::FsBankPartitioned, "bank-partitioned"),
        (SchedulerKind::FsNoPartitionNaive, "no-partitioning naive"),
        (SchedulerKind::FsTripleAlternation, "triple alternation"),
        (SchedulerKind::FsReorderedBankPartitioned, "reordered bank-partitioned"),
    ] {
        let pipeline = FsPipeline::for_kind(kind, &t, 8).map_err(|e| e.to_string())?;
        let label = match pipeline {
            _ if kind == SchedulerKind::FsTripleAlternation => name.to_string(),
            FsPipeline::Slots(s) => format!("{name} (l={})", s.slot_pitch()),
            FsPipeline::Reordered(r) => format!("{name} (Q={})", r.q()),
        };
        show(&label, &pipeline.certify(&t, &geom));
    }
    if all_ok {
        Ok(())
    } else {
        Err("certification failed".into())
    }
}

fn cmd_diagram(opts: &HashMap<String, String>) -> Result<(), String> {
    let p = device_gen(opts)?.profile();
    let t = p.timing;
    let mix_str = opts.get("mix").map(String::as_str).unwrap_or("RRRRRWWR");
    let mix: Vec<bool> = mix_str
        .chars()
        .map(|c| match c {
            'R' | 'r' => Ok(false),
            'W' | 'w' => Ok(true),
            other => Err(format!("mix must be R/W characters, got {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let sol = solve_best(&t, PartitionLevel::Rank).map_err(|e| e.to_string())?;
    let s = SlotSchedule::uniform(sol, 8);
    println!(
        "{} rank-partitioned pipeline, l = {}, Q = {}, mix = {mix_str}\n",
        p.generation,
        sol.l,
        s.q()
    );
    print!("{}", render_uniform(&s, &t, &mix, 16));
    Ok(())
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = scheduler_kind(opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp"))?;
    let cycles = get_u64(opts, "cycles", 60_000)?;
    let seed = get_u64(opts, "seed", 42)?;
    let cores = get_u64(opts, "cores", 8)? as usize;
    let wl = opts.get("workload").map(String::as_str).unwrap_or("mix1");
    let mix = WorkloadMix::by_name(wl, cores).ok_or_else(|| format!("unknown workload {wl:?}"))?;
    let device = device_gen(opts)?;
    let cfg = SystemConfig::for_device(device, kind, cores as u8);
    let job = ExperimentJob::new(mix.clone(), kind, cycles, seed).with_config(cfg);
    let stats = job.run().map_err(|e| e.to_string())?.stats;
    println!("scheduler        {kind}");
    println!("device           {device}");
    println!("workload         {} x{} cores", mix.name, cores);
    println!("DRAM cycles      {cycles}");
    println!("IPC sum          {:.3}", stats.ipc_sum());
    println!("reads completed  {}", stats.reads_completed);
    println!("avg read latency {:.0} DRAM cycles", stats.avg_read_latency());
    println!("bus utilization  {:.1}%", 100.0 * stats.bus_utilization);
    println!("dummy fraction   {:.1}%", 100.0 * stats.mc.dummy_fraction());
    println!("row-hit rate     {:.1}%", 100.0 * stats.mc.row_hit_rate());
    println!("forwarded reads  {}", stats.forwarded_reads);
    println!("memory energy    {:.3} mJ", stats.energy.total_mj());
    Ok(())
}

fn cmd_suite(opts: &HashMap<String, String>) -> Result<(), String> {
    let kinds: Vec<SchedulerKind> = opts
        .get("schedulers")
        .map(String::as_str)
        .unwrap_or("fs-rp,fs-reordered-bp,tp-bp")
        .split(',')
        .map(scheduler_kind)
        .collect::<Result<_, _>>()?;
    let cycles = get_u64(opts, "cycles", 60_000)?;
    let seed = get_u64(opts, "seed", 42)?;
    let device = device_gen(opts)?;
    let mixes = WorkloadMix::suite(8);
    let engine = Engine::from_env();
    let table = if get_flag(opts, "metrics") {
        let (table, rows) =
            weighted_ipc_suite_metrics(&engine, device, &mixes, &kinds, cycles, seed);
        println!("Sum of weighted IPCs vs the non-secure baseline ({cycles} DRAM cycles)\n");
        print!("{}", table.render("weighted IPC"));
        let domains = rows.first().map(|r| r.report.domains.len()).unwrap_or(0);
        println!("\nper-run metrics (CSV, histogram columns appended):");
        print!("{}", metrics_csv(&rows, domains));
        table
    } else {
        let table = weighted_ipc_suite_with(&engine, device, &mixes, &kinds, cycles, seed, &[]);
        println!("Sum of weighted IPCs vs the non-secure baseline ({cycles} DRAM cycles)\n");
        print!("{}", table.render("weighted IPC"));
        table
    };
    if table.all_failed() {
        return Err("every run in the suite failed".into());
    }
    Ok(())
}

fn cmd_attack(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = scheduler_kind(opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp"))?;
    let device = device_gen(opts)?;
    let report = check_noninterference(device, kind, &FaultPlan::default(), 2_000, 10)
        .map_err(|e| format!("non-interference probe: {e}"))?;
    println!("scheduler                   {kind}");
    println!("device                      {device}");
    println!(
        "attacker with idle peers    {:>12} CPU cycles",
        report.idle_profile.boundaries.last().copied().unwrap_or(0)
    );
    println!(
        "attacker with flooding peers{:>12} CPU cycles",
        report.intensive_profile.boundaries.last().copied().unwrap_or(0)
    );
    println!("max divergence              {:>12} CPU cycles", report.max_divergence());
    println!(
        "verdict                     {}",
        if report.is_non_interfering() { "NON-INTERFERING (zero leakage)" } else { "LEAKS" }
    );
    // The active-adversary view of the same question: an intensity-keyed
    // covert channel measured on this device generation.
    let secret = vec![true, false, true, true, false, false, true, false];
    let covert = run_covert_channel_on(device, kind, &secret, 2_500, 100)
        .map_err(|e| format!("covert-channel estimate: {e}"))?;
    println!("covert-channel BER          {:>12.3}", covert.ber);
    println!("covert-channel MI           {:>12.3} bits/window", covert.mutual_information_bits);
    println!("covert-channel capacity     {:>12.0} bits/second", covert.capacity_bps);
    Ok(())
}

fn cmd_leak(opts: &HashMap<String, String>) -> Result<(), String> {
    let device = device_gen(opts)?;
    let window_cycles = get_u64(opts, "window", 2_500)?;
    let windows = get_u64(opts, "windows", 80)? as usize;
    let proto_arg = opts.get("protocol").map(String::as_str).unwrap_or("all");
    let parse_protocol = |name: &str| {
        Protocol::parse(name).ok_or_else(|| {
            format!("--protocol: unknown protocol {name:?} (expected intensity, bank-conflict, row-buffer, or all)")
        })
    };

    if get_flag(opts, "campaign") || opts.contains_key("faults") {
        let kind = scheduler_kind(opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp"))?;
        let mut cfg = LeakCampaignConfig::new(get_u64(opts, "seed", 1)?);
        cfg.device = device;
        cfg.scheduler = kind;
        cfg.protocol =
            if proto_arg == "all" { Protocol::Intensity } else { parse_protocol(proto_arg)? };
        cfg.window_cycles = window_cycles;
        cfg.windows = windows;
        cfg.population = get_u64(opts, "population", 12)? as usize;
        if let Some(spec) = opts.get("faults") {
            // Repro mode: classify exactly one explicit plan.
            let plan = FaultPlan::parse_spec(get_u64(opts, "fault-seed", 0)?, spec)?;
            let (outcome, mi, samples) = run_leak_case(&cfg, &plan);
            println!("scheduler  {kind}");
            println!("device     {device}");
            println!("protocol   {}", cfg.protocol);
            println!("faults     {}", plan.spec());
            println!("online MI  {mi:.4} bits ({samples} samples)");
            println!("outcome    {}", outcome.name());
            if outcome == fsmc::sim::Outcome::LeakDetected {
                let minimal = shrink_leak(&cfg, &plan);
                if minimal != plan {
                    println!("shrunk to  {}", minimal.spec());
                }
            }
            return Ok(());
        }
        let report = run_leak_campaign(&Engine::from_env(), &cfg);
        print!("{}", report.render());
        return Ok(());
    }

    // Study mode: the capacity table for this device generation.
    let schedulers: Vec<SchedulerKind> = match opts.get("scheduler") {
        Some(name) => vec![scheduler_kind(name)?],
        None => vec![
            SchedulerKind::Baseline,
            SchedulerKind::TpBankPartitioned { turn: 60 },
            SchedulerKind::TpFence { period: 300 },
            SchedulerKind::FsRankPartitioned,
            SchedulerKind::FsBankPartitioned,
            SchedulerKind::FsNoPartitionNaive,
            SchedulerKind::FsTripleAlternation,
        ],
    };
    let protocols: Vec<Protocol> = if proto_arg == "all" {
        Protocol::all().to_vec()
    } else {
        vec![parse_protocol(proto_arg)?]
    };
    let secret = fsmc::leak::default_secret();
    let mut jobs = Vec::new();
    for &kind in &schedulers {
        for &protocol in &protocols {
            jobs.push((kind, protocol));
        }
    }
    let cells = Engine::from_env().map(&jobs, |_, &(kind, protocol)| {
        measure_cell(device, kind, protocol, &secret, window_cycles, windows, false)
    });
    println!("device: {device}  ({} windows x {window_cycles} cycles)", windows);
    println!(
        "{:<24} {:<14} {:>7} {:>7} {:>9} {:>7} {:>12}",
        "scheduler", "protocol", "windows", "BER", "adaptBER", "MI", "bits/sec"
    );
    for cell in cells {
        let c = cell.map_err(|e| format!("capacity estimate: {e}"))?;
        println!(
            "{:<24} {:<14} {:>7} {:>7.3} {:>9.3} {:>7.3} {:>12.0}",
            c.scheduler.label(),
            c.protocol.name(),
            c.windows_used,
            c.ber,
            c.adaptive_ber,
            c.mi_bits,
            c.capacity_bps
        );
    }
    Ok(())
}

fn cmd_chaos(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = scheduler_kind(opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp"))?;
    let cores = get_u64(opts, "cores", 4)? as usize;
    let wl = opts.get("workload").map(String::as_str).unwrap_or("mcf");
    let mut cfg = CampaignConfig::new(get_u64(opts, "seed", 1)?);
    cfg.mix = WorkloadMix::by_name(wl, cores).ok_or_else(|| format!("unknown workload {wl:?}"))?;
    cfg.scheduler = kind;
    cfg.device = device_gen(opts)?;
    cfg.cycles = get_u64(opts, "cycles", 8_000)?;
    cfg.run_seed = get_u64(opts, "run-seed", 42)?;
    cfg.population = get_u64(opts, "population", 16)? as usize;
    cfg.metrics = get_flag(opts, "metrics");
    cfg.churn = get_flag(opts, "churn");
    if let Some(spec) = opts.get("faults") {
        // Repro mode: classify exactly one explicit plan.
        let plan = FaultPlan::parse_spec(get_u64(opts, "fault-seed", 0)?, spec)?;
        let case = run_single(&cfg, plan).map_err(|e| e.to_string())?;
        println!("scheduler  {kind}");
        println!("device     {}", cfg.device);
        println!("workload   {} x{} cores, {} cycles", cfg.mix.name, cores, cfg.cycles);
        println!("faults     {}", case.plan.spec());
        println!("outcome    {}", case.outcome);
        if let Some(e) = &case.error {
            println!("error      {e}");
        }
        if let Some(s) = &case.shrunk {
            println!("shrunk to  {}", s.spec());
        }
        if let Some(m) = &case.metrics {
            print!("{}", m.render());
        }
        return Ok(());
    }
    let report = run_campaign(&Engine::from_env(), &cfg).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(())
}

fn cmd_trace(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = scheduler_kind(opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp"))?;
    let cycles = get_u64(opts, "cycles", 4_000)?;
    let seed = get_u64(opts, "seed", 42)?;
    let cores = get_u64(opts, "cores", 8)? as usize;
    let wl = opts.get("workload").map(String::as_str).unwrap_or("mix1");
    let mix = WorkloadMix::by_name(wl, cores).ok_or_else(|| format!("unknown workload {wl:?}"))?;
    let out = opts.get("out").map(String::as_str).unwrap_or("results/trace.json");
    let device = device_gen(opts)?;
    let cfg = SystemConfig::for_device(device, kind, cores as u8);
    let mut sys = System::try_from_mix(&cfg, &mix, seed).map_err(|e| e.to_string())?;
    if let Some(spec) = opts.get("faults") {
        let plan = FaultPlan::parse_spec(get_u64(opts, "fault-seed", 0)?, spec)?;
        if !plan.is_pure_reconfig() {
            return Err("fsmc trace accepts only reconfiguration events in --faults \
                 (stuck-bank/dead-rank/thermal-refresh/leave/join)"
                .into());
        }
        plan.arm(&mut sys);
    }
    sys.enable_tracing();
    sys.enable_metrics();
    sys.try_run_cycles(cycles).map_err(|e| e.to_string())?;
    let events = sys.take_trace();
    let title = format!("{kind} / {device} / {} x{cores} / {cycles} DRAM cycles", mix.name);
    let json = ChromeTraceBuilder::new(sys.lane_layout(), &title).export(&events);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, &json).map_err(|e| e.to_string())?;
    println!("scheduler  {kind}");
    println!("workload   {} x{cores} cores, {cycles} DRAM cycles", mix.name);
    println!("events     {}", events.len());
    println!("wrote      {out}  (load in Perfetto or chrome://tracing)");
    if let Some(m) = sys.metrics_report() {
        print!("{}", m.render());
    }
    Ok(())
}

/// `--socket` wins over `FSMC_SERVE`; the daemon and its clients must
/// agree on one of them.
fn serve_socket_path(opts: &HashMap<String, String>) -> Result<PathBuf, String> {
    match opts.get("socket") {
        Some(p) => Ok(PathBuf::from(p)),
        None => fsmc::sim::env::serve_socket()
            .ok_or_else(|| "pass --socket PATH or set FSMC_SERVE".to_string()),
    }
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let socket = serve_socket_path(opts)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut so = ServeOptions::from_env(socket, vec![exe.display().to_string(), "job-exec".into()]);
    if let Some(w) = opts.get("workers") {
        so.workers = w.parse().map_err(|e| format!("--workers: {e}"))?;
        if so.workers == 0 {
            return Err("--workers: must be at least 1".into());
        }
    }
    so.timeout_ms = get_u64(opts, "timeout", so.timeout_ms)?;
    let attempts = get_u64(opts, "max-attempts", u64::from(so.max_attempts))?;
    so.max_attempts = u32::try_from(attempts)
        .ok()
        .filter(|a| *a >= 1)
        .ok_or("--max-attempts: must be 1..=2^32")?;
    so.queue_capacity = get_u64(opts, "queue", so.queue_capacity as u64)? as usize;
    // Hidden chaos knobs for the robustness CI: deterministically kill /
    // hang a percentage of worker attempts (never a job's final one).
    let kill = get_u64(opts, "chaos-kill", 0)?;
    let hang = get_u64(opts, "chaos-hang", 0)?;
    if kill > 0 || hang > 0 {
        if kill + hang > 100 {
            return Err("--chaos-kill + --chaos-hang must not exceed 100".into());
        }
        so.chaos = Some(ChaosSpec {
            kill_pct: kill as u8,
            hang_pct: hang as u8,
            seed: get_u64(opts, "chaos-seed", 0)?,
        });
    }
    println!(
        "fsmc serve: listening on {} ({} workers, {}ms deadline, cache {})",
        so.socket.display(),
        so.workers,
        so.timeout_ms,
        so.cache_dir.display()
    );
    serve(so).map_err(|e| e.to_string())
}

fn cmd_submit(opts: &HashMap<String, String>) -> Result<(), String> {
    let socket = serve_socket_path(opts)?;
    let spec = match opts.get("spec") {
        // Raw canonical spec line, exactly as the daemon hashes it.
        Some(raw) => JobSpec::parse_line(raw)?,
        None => {
            let sched = opts.get("scheduler").map(String::as_str).unwrap_or("fs-rp");
            let scheduler = scheduler_kind(sched)?;
            let cores = u32::try_from(get_u64(opts, "cores", 8)?)
                .map_err(|_| "--cores: too large".to_string())?;
            let wl = opts.get("workload").map(String::as_str).unwrap_or("mix1");
            // Catch typos locally instead of as a remote failure record.
            WorkloadMix::by_name(wl, cores as usize)
                .ok_or_else(|| format!("unknown workload {wl:?}"))?;
            JobSpec {
                mix: wl.to_string(),
                cores,
                scheduler,
                device: device_gen(opts)?,
                cycles: get_u64(opts, "cycles", 60_000)?,
                seed: get_u64(opts, "seed", 42)?,
            }
        }
    };
    let priority = u8::try_from(get_u64(opts, "priority", 1)?)
        .map_err(|_| "--priority: must be 0..=255".to_string())?;
    let client = Client::new(socket.clone());
    if !client.ping() {
        return Err(format!("no experiment service at {} (start `fsmc serve`)", socket.display()));
    }
    let reply = client.submit(priority, &spec)?;
    eprintln!(
        "job {} key {} ({})",
        reply.id,
        &reply.key[..16],
        if reply.cached { "cache hit" } else { "submitted" }
    );
    match client.wait(reply.id)? {
        Ok(payload) => {
            print!("{payload}");
            Ok(())
        }
        Err(record) => Err(format!(
            "job poisoned after {} attempt(s) ({}): {}",
            record.attempts, record.reason, record.error
        )),
    }
}

fn cmd_status(opts: &HashMap<String, String>) -> Result<(), String> {
    let socket = serve_socket_path(opts)?;
    let client = Client::new(socket.clone());
    let nope = |e: std::io::Error| format!("no experiment service at {}: {e}", socket.display());
    if get_flag(opts, "shutdown") {
        client.shutdown();
        println!("sent SHUTDOWN to {}", socket.display());
        return Ok(());
    }
    if get_flag(opts, "stats") {
        print!("{}", client.stats().map_err(nope)?);
    } else {
        print!("{}", client.status().map_err(nope)?);
    }
    Ok(())
}

/// The worker-process entry point (`fsmc job-exec`): reads one spec line
/// from stdin, runs it, and reports through the pool's process protocol
/// — payload on stdout / exit 0, rendered typed error on stdout /
/// exit 3. Anything else (signal, other exit) the pool counts a crash.
fn cmd_job_exec() -> ExitCode {
    use std::io::Read as _;
    // The chaos harness wedges a worker by setting this; honouring it
    // here exercises the daemon's deadline watchdog end to end.
    if std::env::var_os(HANG_ENV).is_some() {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let mut line = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut line) {
        println!("job-exec: reading spec from stdin: {e}");
        return ExitCode::from(3);
    }
    let spec = match JobSpec::parse_line(line.trim()) {
        Ok(spec) => spec,
        Err(e) => {
            println!("job-exec: bad spec: {e}");
            return ExitCode::from(3);
        }
    };
    match spec.run() {
        Ok(payload) => {
            print!("{payload}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{e}");
            ExitCode::from(3)
        }
    }
}

fn cmd_record(opts: &HashMap<String, String>) -> Result<(), String> {
    let name = opts.get("workload").ok_or("--workload is required")?;
    let out = opts.get("out").ok_or("--out is required")?;
    let ops = get_u64(opts, "ops", 100_000)? as usize;
    let seed = get_u64(opts, "seed", 42)?;
    let mut src = SyntheticTrace::new(profile(name)?, seed);
    record_trace(&mut src, ops, out).map_err(|e| e.to_string())?;
    println!("wrote {ops} memory operations of {name} to {out}");
    Ok(())
}
