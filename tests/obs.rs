//! Observability acceptance: per-domain metrics are deterministic across
//! thread counts and simulation paths, the Chrome trace export is
//! structurally sound, and — the paper's point, read off the histograms —
//! FS per-domain latency distributions are bit-identical across co-runner
//! environments while the baseline's leak.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::cpu::trace::TraceSource;
use fsmc::dram::command::TimedCommand;
use fsmc::dram::CommandKind;
use fsmc::obs::{ChromeTraceBuilder, DomainLatency, MetricsReport, TraceEvent};
use fsmc::sim::{Engine, ExperimentJob, ExperimentPlan, System, SystemConfig};
use fsmc::workload::{BenchProfile, FloodTrace, IdleTrace, SyntheticTrace, WorkloadMix};

fn suite_reports(threads: usize) -> Vec<MetricsReport> {
    let mut plan = ExperimentPlan::new();
    for kind in [K::Baseline, K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }] {
        plan.push(ExperimentJob::new(WorkloadMix::mix1_for(4), kind, 6_000, 7).with_metrics());
    }
    Engine::with_threads(threads)
        .run(&plan)
        .into_iter()
        .map(|r| r.expect("run ok").metrics.expect("metrics armed"))
        .collect()
}

#[test]
fn metrics_are_byte_identical_across_thread_counts() {
    let serial = suite_reports(1);
    let parallel = suite_reports(8);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|r| r.domains.iter().any(|d| d.count > 0)), "empty histograms");
    // The rendered text (what lands in reports) matches too.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.render(), b.render());
        assert_eq!(a.csv_cells(), b.csv_cells());
    }
}

fn path_report(kind: K, fast: bool) -> MetricsReport {
    let cfg = SystemConfig::with_cores(kind, 4);
    let mix = WorkloadMix::mix2_for(4);
    let mut sys = System::try_from_mix(&cfg, &mix, 9).expect("system builds");
    if !fast {
        sys.disable_fastpath();
    }
    sys.enable_metrics();
    sys.run_cycles(8_000);
    sys.metrics_report().expect("metrics armed")
}

#[test]
fn metrics_identical_on_fast_and_per_cycle_paths() {
    for kind in [
        K::Baseline,
        K::FsRankPartitioned,
        K::FsNoPartitionNaive,
        K::TpBankPartitioned { turn: 60 },
        K::TpFence { period: 300 },
    ] {
        assert_eq!(path_report(kind, true), path_report(kind, false), "{kind}");
    }
}

/// The attacker's (domain 0) latency summary under `kind`, against seven
/// idle or seven memory-flooding co-runners — the Figure 4 environments.
fn domain0_latency(kind: K, flooding: bool) -> DomainLatency {
    let cfg = SystemConfig::paper_default(kind);
    let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(cfg.cores as usize);
    traces.push(Box::new(SyntheticTrace::new(BenchProfile::mcf(), 0xA77AC)));
    for _ in 1..cfg.cores {
        if flooding {
            traces.push(Box::new(FloodTrace::new()));
        } else {
            traces.push(Box::new(IdleTrace));
        }
    }
    let mut sys = System::new(&cfg, traces);
    sys.enable_metrics();
    sys.run_cycles(12_000);
    let report = sys.metrics_report().expect("metrics armed");
    report.domains[0]
}

#[test]
fn fs_domain_histogram_is_identical_across_corunner_environments() {
    let idle = domain0_latency(K::FsRankPartitioned, false);
    let flooded = domain0_latency(K::FsRankPartitioned, true);
    assert!(idle.count > 0, "attacker retired no reads");
    assert_eq!(idle, flooded, "FS domain-0 latency histogram depends on co-runners");
}

#[test]
fn baseline_domain_histogram_leaks_corunner_activity() {
    let idle = domain0_latency(K::Baseline, false);
    let flooded = domain0_latency(K::Baseline, true);
    assert!(idle.count > 0 && flooded.count > 0);
    assert_ne!(idle, flooded, "baseline latency histogram should reflect co-runner pressure");
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let cfg = SystemConfig::with_cores(K::FsRankPartitioned, 4);
    let mix = WorkloadMix::mix1_for(4);
    let mut sys = System::try_from_mix(&cfg, &mix, 3).expect("system builds");
    sys.enable_tracing();
    sys.run_cycles(3_000);
    let events = sys.take_trace();
    assert!(!events.is_empty(), "tracing armed but no events recorded");
    let json = ChromeTraceBuilder::new(sys.lane_layout(), "obs test").export(&events);
    for needle in
        ["\"traceEvents\"", "\"ph\":\"M\"", "\"ph\":\"X\"", "\"displayTimeUnit\"", "[dom 0]"]
    {
        assert!(json.contains(needle), "export missing {needle}");
    }
    // Balanced structure outside string literals — a parser-free check
    // (Perfetto acceptance is exercised by the CI obs-smoke step).
    let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close");
    }
    assert_eq!(depth, 0, "unbalanced braces/brackets");
    assert!(!in_str, "unterminated string");
}

/// A system with no observability armed records nothing and exposes no
/// report — the disabled path is the default everywhere.
#[test]
fn disabled_observability_yields_no_artifacts() {
    let cfg = SystemConfig::with_cores(K::FsRankPartitioned, 4);
    let mix = WorkloadMix::mix1_for(4);
    let mut sys = System::try_from_mix(&cfg, &mix, 3).expect("system builds");
    sys.run_cycles(2_000);
    assert!(sys.take_trace().is_empty());
    assert!(sys.metrics_report().is_none());
}

/// One issued command as `(cycle, kind, rank, bank, row)`; refreshes
/// carry no bank or row.
type CmdKey = (u64, String, u8, u8, u32);

fn log_key(tc: &TimedCommand) -> CmdKey {
    let c = tc.cmd;
    let (bank, row) = if c.kind == CommandKind::Refresh { (0, 0) } else { (c.bank.0, c.row.0) };
    (tc.cycle, format!("{:?}", c.kind), c.rank.0, bank, row)
}

fn trace_key(ev: &TraceEvent) -> Option<CmdKey> {
    match *ev {
        TraceEvent::Command { cycle, class, rank, bank, row, .. } => {
            Some((cycle, format!("{class:?}"), rank, bank, row))
        }
        TraceEvent::Refresh { cycle, rank } => Some((cycle, "Refresh".into(), rank, 0, 0)),
        _ => None,
    }
}

/// The recorded command log and trace of one run, with the monitor and
/// tracing armed beside the command log or not.
fn recorded_run(kind: K, observed: bool) -> (Vec<TimedCommand>, Vec<TraceEvent>) {
    let mut cfg = SystemConfig::with_cores(kind, 4);
    cfg.record_commands = true;
    cfg.monitor = observed;
    let mut sys = System::try_from_mix(&cfg, &WorkloadMix::mix1_for(4), 5).expect("system builds");
    if observed {
        sys.enable_tracing();
    }
    sys.try_run_cycles(6_000).unwrap_or_else(|e| panic!("{kind}: {e}"));
    let trace = sys.take_trace();
    (sys.take_command_log(), trace)
}

/// The trace, the monitor and the command log read one device tap:
/// the trace's commands are the log element for element, and arming
/// the monitor and tracing never changes the recorded schedule.
#[test]
fn trace_and_command_log_are_one_stream() {
    for kind in [K::FsRankPartitioned, K::Baseline, K::TpFence { period: 300 }] {
        let (log, trace) = recorded_run(kind, true);
        assert!(log.len() > 100, "{kind}: only {} commands", log.len());
        let traced: Vec<CmdKey> = trace.iter().filter_map(trace_key).collect();
        assert_eq!(traced, log.iter().map(log_key).collect::<Vec<_>>(), "{kind}");
        let (plain, untraced) = recorded_run(kind, false);
        assert!(untraced.is_empty());
        assert_eq!(log, plain, "{kind}: observers changed the recorded schedule");
    }
}

/// The traced fast-path spans of a run tile exactly the cycles the skip
/// counter reports: in order, disjoint and inside the run. With the fast
/// path off there are neither.
#[test]
fn fastpath_spans_tile_the_skipped_cycles() {
    for kind in [K::FsRankPartitioned, K::Baseline, K::TpFence { period: 300 }] {
        for fast in [true, false] {
            let cfg = SystemConfig::with_cores(kind, 4);
            let mut sys = System::try_from_mix(&cfg, &WorkloadMix::mix1_for(4), 5).expect("builds");
            if !fast {
                sys.disable_fastpath();
            }
            sys.enable_tracing();
            sys.run_cycles(6_000);
            let (mut end, mut covered, mut kinds) = (0, 0, [false; 2]);
            for ev in sys.take_trace() {
                if let TraceEvent::FastPath { from, to, batched } = ev {
                    assert!(end <= from && from < to && to <= 6_000, "{kind}: span {from}..{to}");
                    (end, covered) = (to, covered + to - from);
                    kinds[batched as usize] = true;
                }
            }
            assert_eq!(covered, sys.fastpath_counters().0, "{kind}: spans vs skip counter");
            assert_eq!(covered > 0, fast, "{kind}: fast path {fast} skipped {covered}");
            if kind == K::FsRankPartitioned {
                assert_eq!(kinds, [fast; 2], "{kind}: batched and unbatched spans");
            }
        }
    }
}
