//! `fsmc-perf`: run the benchmark, or compare two sets of runs.
//!
//! ```text
//! fsmc-perf [--workload NAME|all] [--seed S] [--seconds N] [--trace [0|1]]
//! fsmc-perf compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Run from the repository root: golden digests are read from
//! `fsmc-perf/golden/` and bounds from `BENCHMARK.json` there. `run.sh`
//! builds this binary and the `fsmc` binary it drives, then runs it.

use fsmc_perf::compare;
use fsmc_perf::spans::Spans;
use fsmc_perf::workloads::{Ctx, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

/// Default measuring time of one run (BENCHMARK.json `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;
const USAGE: &str =
    "usage: fsmc-perf [--workload NAME|all] [--seed S] [--seconds N] [--trace [0|1]]\n\
                     \x20      fsmc-perf compare PARENT_DIR CHANGE_DIR\n\
                     workloads: fig-frfcfs fig-secure campaigns serve";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 42, seconds: DEFAULT_SECONDS, trace: false };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                a.workload = match v.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?)
                    }
                };
                i += 2;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                i += 2;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 2,
                Some("1") => {
                    a.trace = true;
                    i += 2;
                }
                _ => {
                    a.trace = true;
                    i += 1;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // The ambient environment must not change what is measured: every
    // FSMC_* knob is cleared here, for this process and its children.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("FSMC_") {
            std::env::remove_var(k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse(&args).and_then(run)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fsmc-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare takes PARENT_DIR CHANGE_DIR".to_string());
    };
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let rules = compare::rules(&bench)?;
    let rows = compare::compare(
        &compare::load(Path::new(parent))?,
        &compare::load(Path::new(change))?,
        &rules,
    );
    print!("{}", compare::render(&rows));
    let regressed = rows.iter().any(|r| r.verdict == "worse");
    Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn run(a: Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?.to_path_buf();
    let out_dir = bin_dir.parent().unwrap_or(&bin_dir).join("perf");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let Some(workload) = a.workload else {
        return run_all(&exe, &a);
    };
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        out_dir: out_dir.clone(),
        fsmc_bin: bin_dir.join("fsmc"),
        spans: Spans::default(),
    };
    let report = workload.run(&ctx, a.trace);
    let stem = out_dir.join(format!("{}-{}", workload.name(), a.seed));
    let copy = stem.with_extension(if a.trace { "layers.json" } else { "json" });
    std::fs::write(&copy, report.to_json()).map_err(|e| format!("{}: {e}", copy.display()))?;
    if a.trace {
        let path = stem.with_extension("trace.json");
        std::fs::write(&path, ctx.spans.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.lines());
    println!("{}", report.result_line());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Runs each workload in its own child process, so peak RSS is per
/// workload; fails when any of them does.
fn run_all(exe: &Path, a: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(exe)
            .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
