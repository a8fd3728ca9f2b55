//! # fsmc-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`); the
//! simulator's performance is measured by the separate `fsmc-perf`
//! package instead. This library holds the shared experiment plumbing: run-length configuration, the engine-
//! driven workload suite sweep, and plain-text/CSV table printing.
//!
//! Every binary accepts its run length from the `FSMC_CYCLES` environment
//! variable (DRAM cycles per simulation; default 60 000, which finishes
//! in seconds and already shows the paper's shapes — raise it for
//! tighter numbers), the seed from `FSMC_SEED`, and its worker-pool
//! width from `FSMC_THREADS` (default: available parallelism). Output
//! is byte-identical at any thread count. Artefacts land in `results/`
//! or `$FSMC_RESULTS_DIR`.

use fsmc_core::sched::SchedulerKind;
use fsmc_dram::DeviceGeneration;
use fsmc_obs::MetricsReport;
use fsmc_sim::engine::{Engine, ExperimentJob, ExperimentPlan};
use fsmc_sim::runner::{RunResult, SuiteResult};
use fsmc_sim::{FaultPlan, SystemConfig};
use fsmc_workload::WorkloadMix;
use std::path::PathBuf;
use std::process::ExitCode;

/// Runs a plan on the in-process engine — or, when `FSMC_SERVE` names a
/// live experiment-service socket, through the daemon's worker-process
/// pool and content-addressed result cache
/// ([`fsmc_serve::run_plan_remote`]). Slot order and result bytes are
/// identical either way; jobs the service cannot express (faults,
/// metrics, custom controllers) and every job when the daemon is down
/// run locally.
pub fn run_plan(
    engine: &Engine,
    plan: &ExperimentPlan,
) -> Vec<Result<RunResult, fsmc_sim::FsmcError>> {
    match fsmc_sim::env::serve_socket() {
        Some(socket) => fsmc_serve::run_plan_remote(&socket, plan),
        None => engine.run(plan),
    }
}

/// Simulation length in DRAM cycles, from `FSMC_CYCLES` (default 60 000).
/// A malformed value is reported and replaced by the default.
pub fn run_cycles() -> u64 {
    fsmc_sim::env::cycles(60_000)
}

/// Workload seed, from `FSMC_SEED` (default 42). A malformed value is
/// reported and replaced by the default.
pub fn seed() -> u64 {
    fsmc_sim::env::seed(42)
}

/// One table cell: the metric, or the diagnostic of the run that failed
/// to produce it.
#[derive(Debug, Clone)]
pub enum Cell {
    Value(f64),
    Failed(String),
}

impl Cell {
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Value(v) => Some(*v),
            Cell::Failed(_) => None,
        }
    }

    pub fn diagnostic(&self) -> Option<&str> {
        match self {
            Cell::Value(_) => None,
            Cell::Failed(d) => Some(d),
        }
    }
}

/// A results table: one row per workload, one column per scheduler.
/// Failed runs stay in their cell as diagnostics instead of killing the
/// figure.
#[derive(Debug, Clone)]
pub struct SuiteTable {
    pub columns: Vec<SchedulerKind>,
    /// (workload name, cell per column).
    pub rows: Vec<(&'static str, Vec<Cell>)>,
}

impl SuiteTable {
    /// A table where every run succeeded (tests, derived tables).
    pub fn from_values(columns: Vec<SchedulerKind>, rows: Vec<(&'static str, Vec<f64>)>) -> Self {
        SuiteTable {
            columns,
            rows: rows
                .into_iter()
                .map(|(name, vals)| (name, vals.into_iter().map(Cell::Value).collect()))
                .collect(),
        }
    }

    /// Arithmetic mean across workloads per column (the paper's AM bars),
    /// taken over the cells that produced a value; a column with no
    /// surviving cell yields NaN.
    pub fn arithmetic_means(&self) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> =
                    self.rows.iter().filter_map(|(_, cells)| cells[c].value()).collect();
                if vals.is_empty() {
                    f64::NAN
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            })
            .collect()
    }

    /// Every failed cell as `(workload, column scheduler, diagnostic)`.
    pub fn failures(&self) -> Vec<(&'static str, SchedulerKind, &str)> {
        let mut out = Vec::new();
        for (name, cells) in &self.rows {
            for (c, cell) in cells.iter().enumerate() {
                if let Some(d) = cell.diagnostic() {
                    out.push((*name, self.columns[c], d));
                }
            }
        }
        out
    }

    /// True when no cell produced a value.
    pub fn all_failed(&self) -> bool {
        self.rows.iter().all(|(_, cells)| cells.iter().all(|c| c.value().is_none()))
    }

    /// The figure binaries' exit policy: nonzero only if *every* run
    /// failed — partial figures are still figures.
    pub fn exit_code(&self) -> ExitCode {
        if !self.rows.is_empty() && self.all_failed() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    /// Renders the table; failed cells print `FAILED` and their
    /// diagnostics are listed below the table.
    pub fn render(&self, metric: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12}", "workload"));
        for c in &self.columns {
            out.push_str(&format!(" {:>18}", c.label()));
        }
        out.push('\n');
        for (name, cells) in &self.rows {
            out.push_str(&format!("{name:<12}"));
            for cell in cells {
                match cell {
                    Cell::Value(v) => out.push_str(&format!(" {v:>18.3}")),
                    Cell::Failed(_) => out.push_str(&format!(" {:>18}", "FAILED")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<12}", "AM"));
        for m in self.arithmetic_means() {
            out.push_str(&format!(" {m:>18.3}"));
        }
        out.push('\n');
        out.push_str(&format!("({metric})\n"));
        let failures = self.failures();
        if !failures.is_empty() {
            out.push_str("diagnostics:\n");
            for (name, kind, diag) in failures {
                out.push_str(&format!("  {name}/{}: {diag}\n", kind.label()));
            }
        }
        out
    }

    /// CSV form for downstream plotting; failed cells emit `error`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload");
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.label());
        }
        out.push('\n');
        for (name, cells) in &self.rows {
            out.push_str(name);
            for cell in cells {
                match cell {
                    Cell::Value(v) => out.push_str(&format!(",{v:.4}")),
                    Cell::Failed(_) => out.push_str(",error"),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Assembles the weighted-IPC table from engine slots: one baseline and
/// `kinds.len()` policy runs per mix, in declaration order.
fn weighted_table(
    kinds: &[SchedulerKind],
    mixes: &[WorkloadMix],
    results: Vec<Result<RunResult, fsmc_sim::FsmcError>>,
) -> SuiteTable {
    let mut slots = results.into_iter();
    let mut rows = Vec::with_capacity(mixes.len());
    for mix in mixes {
        let base = slots.next().expect("baseline slot declared");
        let cells = kinds
            .iter()
            .map(|_| {
                let run = slots.next().expect("policy slot declared");
                match (&base, run) {
                    (Ok(b), Ok(r)) => Cell::Value(r.weighted_ipc_vs(b)),
                    (Err(e), _) => Cell::Failed(format!("baseline failed: {e}")),
                    (Ok(_), Err(e)) => Cell::Failed(e.to_string()),
                }
            })
            .collect();
        rows.push((mix.name, cells));
    }
    SuiteTable { columns: kinds.to_vec(), rows }
}

/// One suite run of `mix` under `kind` on a Table-1 system built from
/// `device`'s profile ([`SystemConfig::for_device`]).
fn suite_job(
    device: DeviceGeneration,
    mix: &WorkloadMix,
    kind: SchedulerKind,
    cycles: u64,
    seed: u64,
) -> ExperimentJob {
    let cfg = SystemConfig::for_device(device, kind, mix.cores() as u8);
    ExperimentJob::new(mix.clone(), kind, cycles, seed).with_config(cfg)
}

/// [`weighted_ipc_suite`] over an explicit device generation, mixes,
/// [`Engine`], and optional per-scheduler fault plans — the fully
/// parameterised form `fsmc suite` and the determinism and
/// failure-isolation tests drive directly.
pub fn weighted_ipc_suite_with(
    engine: &Engine,
    device: DeviceGeneration,
    mixes: &[WorkloadMix],
    kinds: &[SchedulerKind],
    cycles: u64,
    seed: u64,
    faults: &[(SchedulerKind, FaultPlan)],
) -> SuiteTable {
    let plan_for = |k: SchedulerKind| {
        faults.iter().find(|(fk, _)| *fk == k).map(|(_, p)| p.clone()).unwrap_or_default()
    };
    let mut plan = ExperimentPlan::new();
    for mix in mixes {
        plan.push(suite_job(device, mix, SchedulerKind::Baseline, cycles, seed));
        for &k in kinds {
            plan.push(suite_job(device, mix, k, cycles, seed).with_faults(plan_for(k)));
        }
    }
    weighted_table(kinds, mixes, run_plan(engine, &plan))
}

/// One `--metrics` row: the observability report of a single
/// `(workload, scheduler)` run, including the baseline runs.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    pub mix: &'static str,
    pub scheduler: SchedulerKind,
    pub report: MetricsReport,
}

/// Renders `--metrics` rows as CSV: identity columns plus the
/// [`MetricsReport`] histogram columns appended per
/// [`MetricsReport::csv_header`].
pub fn metrics_csv(rows: &[MetricsRow], domains: usize) -> String {
    let mut out = format!("workload,scheduler,{}\n", MetricsReport::csv_header(domains));
    for r in rows {
        out.push_str(&format!("{},{},{}\n", r.mix, r.scheduler.label(), r.report.csv_cells()));
    }
    out
}

/// [`weighted_ipc_suite_with`] with per-run observability metrics
/// armed: every job (baselines included) collects per-domain latency
/// histograms and row-locality counters, returned as one
/// [`MetricsRow`] per completed run in declaration (slot) order — so
/// the rows, like the table, are byte-identical at any `FSMC_THREADS`.
pub fn weighted_ipc_suite_metrics(
    engine: &Engine,
    device: DeviceGeneration,
    mixes: &[WorkloadMix],
    kinds: &[SchedulerKind],
    cycles: u64,
    seed: u64,
) -> (SuiteTable, Vec<MetricsRow>) {
    let mut plan = ExperimentPlan::new();
    for mix in mixes {
        plan.push(suite_job(device, mix, SchedulerKind::Baseline, cycles, seed).with_metrics());
        for &k in kinds {
            plan.push(suite_job(device, mix, k, cycles, seed).with_metrics());
        }
    }
    let results = engine.run(&plan);
    let mut rows = Vec::new();
    {
        let mut slots = results.iter();
        for mix in mixes {
            let mut take = |scheduler: SchedulerKind| {
                if let Some(Ok(r)) = slots.next() {
                    if let Some(report) = &r.metrics {
                        rows.push(MetricsRow { mix: mix.name, scheduler, report: report.clone() });
                    }
                }
            };
            take(SchedulerKind::Baseline);
            for &k in kinds {
                take(k);
            }
        }
    }
    (weighted_table(kinds, mixes, results), rows)
}

/// Runs the 12-workload suite under each scheduler on the experiment
/// engine (`FSMC_THREADS` workers, one memoized trace per stream),
/// reporting the paper's sum-of-weighted-IPC metric (normalised per
/// workload against the non-secure baseline with identical seeds). A
/// failed run becomes a diagnostic cell; the other columns survive.
pub fn weighted_ipc_suite(kinds: &[SchedulerKind], cycles: u64, seed: u64) -> SuiteTable {
    let (engine, mixes) = (Engine::from_env(), WorkloadMix::suite(8));
    weighted_ipc_suite_with(&engine, DeviceGeneration::Ddr3_1600, &mixes, kinds, cycles, seed, &[])
}

/// Runs the suite on the engine and returns the raw per-workload
/// [`SuiteResult`]s (baseline plus one fallible slot per kind), for
/// figures that need full [`RunResult`] statistics rather than the
/// weighted-IPC metric.
pub fn suite_results(kinds: &[SchedulerKind], cycles: u64, seed: u64) -> Vec<SuiteResult> {
    let mixes = WorkloadMix::suite(8);
    let mut plan = ExperimentPlan::new();
    for mix in &mixes {
        plan.push(ExperimentJob::new(mix.clone(), SchedulerKind::Baseline, cycles, seed));
        for &k in kinds {
            plan.push(ExperimentJob::new(mix.clone(), k, cycles, seed));
        }
    }
    let mut slots = Engine::from_env().run(&plan).into_iter();
    mixes
        .iter()
        .map(|mix| SuiteResult {
            mix_name: mix.name,
            baseline: slots.next().expect("baseline slot declared"),
            runs: kinds.iter().map(|&k| (k, slots.next().expect("policy slot declared"))).collect(),
        })
        .collect()
}

/// The exit policy for binaries built on [`suite_results`]: nonzero only
/// if every run (baselines included) failed.
pub fn suite_exit_code(rows: &[SuiteResult]) -> ExitCode {
    let any_ok =
        rows.iter().any(|r| r.baseline.is_ok() || r.runs.iter().any(|(_, run)| run.is_ok()));
    if rows.is_empty() || any_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Convenience single run; panics with the structured error on failure
/// (the figure binaries run known-good configurations).
pub fn single(mix: &WorkloadMix, kind: SchedulerKind, cycles: u64, seed: u64) -> RunResult {
    fsmc_sim::runner::run_mix(mix, kind, cycles, seed)
        .unwrap_or_else(|e| panic!("{}: {kind} failed: {e}", mix.name))
}

/// Writes an experiment artefact into `results/<name>` — or
/// `$FSMC_RESULTS_DIR/<name>` — creating the directory. The write is
/// durable and atomic ([`fsmc_serve::write_durable`]: unique temp file,
/// fsync, rename, fsync of the directory), so concurrent figure
/// binaries never interleave partial contents and a crash mid-write
/// never leaves a torn CSV. Returns the final path, or a typed
/// [`fsmc_serve::WriteError`] naming the path and the stage that failed
/// (e.g. an unwritable `FSMC_RESULTS_DIR`); callers treat that as a
/// warning — the console output is the primary artefact.
pub fn save_result(name: &str, contents: &str) -> Result<PathBuf, fsmc_serve::WriteError> {
    let dir = fsmc_sim::env::results_dir().unwrap_or_else(|| PathBuf::from("results"));
    let path = dir.join(name);
    fsmc_serve::write_durable(&path, contents.as_bytes())?;
    Ok(path)
}

/// [`save_result`], reporting the outcome on stderr instead of
/// returning it — the figure binaries' one-liner.
pub fn save_result_or_warn(name: &str, contents: &str) {
    match save_result(name, contents) {
        Ok(path) => eprintln!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmc_sim::faults::{FaultKind, TimingField};
    use fsmc_workload::BenchProfile;

    #[test]
    fn table_means_and_csv() {
        let t = SuiteTable::from_values(
            vec![SchedulerKind::Baseline, SchedulerKind::FsRankPartitioned],
            vec![("a", vec![8.0, 6.0]), ("b", vec![8.0, 4.0])],
        );
        let m = t.arithmetic_means();
        assert!((m[0] - 8.0).abs() < 1e-12 && (m[1] - 5.0).abs() < 1e-12);
        let csv = t.to_csv();
        assert!(csv.starts_with("workload,Baseline,FS_RP"));
        assert!(csv.contains("a,8.0000,6.0000"));
        let txt = t.render("weighted IPC");
        assert!(txt.contains("AM"));
        assert!(matches!(t.exit_code(), ExitCode::SUCCESS));
    }

    #[test]
    fn failed_cells_render_as_diagnostics_not_values() {
        let t = SuiteTable {
            columns: vec![SchedulerKind::Baseline, SchedulerKind::FsRankPartitioned],
            rows: vec![
                ("a", vec![Cell::Value(8.0), Cell::Failed("no feasible pitch".into())]),
                ("b", vec![Cell::Value(6.0), Cell::Failed("no feasible pitch".into())]),
            ],
        };
        let m = t.arithmetic_means();
        assert!((m[0] - 7.0).abs() < 1e-12);
        assert!(m[1].is_nan());
        let txt = t.render("x");
        assert!(txt.contains("FAILED"));
        assert!(txt.contains("a/FS_RP: no feasible pitch"));
        assert!(t.to_csv().contains("a,8.0000,error"));
        assert_eq!(t.failures().len(), 2);
        // One column survived: the figure is partial, not dead.
        assert!(!t.all_failed());
        assert!(matches!(t.exit_code(), ExitCode::SUCCESS));
    }

    #[test]
    fn all_failed_table_exits_nonzero() {
        let t = SuiteTable {
            columns: vec![SchedulerKind::FsRankPartitioned],
            rows: vec![("a", vec![Cell::Failed("x".into())])],
        };
        assert!(t.all_failed());
        assert!(matches!(t.exit_code(), ExitCode::FAILURE));
    }

    #[test]
    fn env_defaults() {
        assert!(run_cycles() >= 1000);
        let _ = seed();
    }

    /// Regression for the pre-engine `expect_ok` behaviour: a suite
    /// containing a deliberately infeasible configuration must still
    /// produce every other column instead of aborting the figure.
    #[test]
    fn infeasible_policy_leaves_other_columns_standing() {
        let mixes =
            [WorkloadMix::rate(BenchProfile::astar(), 8), WorkloadMix::rate(BenchProfile::cg(), 8)];
        let kinds =
            [SchedulerKind::FsRankPartitioned, SchedulerKind::TpBankPartitioned { turn: 60 }];
        // +600 cycles of rank-to-rank turnaround exceeds even the
        // conservative pipeline's search bound: FS construction fails
        // with a solver error. TP ignores the FS pipeline entirely.
        let infeasible = FaultPlan::new(5)
            .with(FaultKind::PerturbTiming { field: TimingField::TRtrs, delta: 600 });
        let table = weighted_ipc_suite_with(
            &Engine::with_threads(2),
            DeviceGeneration::Ddr3_1600,
            &mixes,
            &kinds,
            4_000,
            42,
            &[(SchedulerKind::FsRankPartitioned, infeasible)],
        );
        for (name, cells) in &table.rows {
            assert!(cells[0].value().is_none(), "{name}: FS column should have failed");
            let tp = cells[1].value().unwrap_or_else(|| panic!("{name}: TP column died too"));
            assert!(tp > 0.0);
        }
        assert!(!table.all_failed());
        assert!(matches!(table.exit_code(), ExitCode::SUCCESS));
        let txt = table.render("weighted IPC");
        assert!(txt.contains("FAILED") && txt.contains("diagnostics:"), "{txt}");
    }
}
