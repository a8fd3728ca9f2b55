//! The chaos campaign: seeded fault populations, outcome classification
//! and fault shrinking.
//!
//! A campaign generates a deterministic population of random
//! [`FaultPlan`]s from one seed, runs each plan against a fixed
//! `(mix, scheduler)` job on the parallel [`Engine`] with the online
//! invariant monitor armed, and classifies every outcome:
//!
//! * [`Outcome::Clean`] — statistics bit-identical to the fault-free
//!   reference run.
//! * [`Outcome::GracefulDegrade`] — the system absorbed the fault: it
//!   switched to the conservative pipeline, or rejected the bad input
//!   with a structured construction-time error.
//! * [`Outcome::Violation`] — a timing rule or FS invariant was broken
//!   (controller poisoned, or the monitor caught drift the controller
//!   itself missed).
//! * [`Outcome::Stall`] — the starvation watchdog fired.
//! * [`Outcome::Diverged`] — the run finished "healthy" but its results
//!   differ from the reference: a silent wrong-answer, the worst class.
//! * [`Outcome::Reconfigured`] — the plan scheduled persistent-fault or
//!   churn events, the controller adopted a re-certified schedule at an
//!   epoch boundary, and every *surviving* domain's statistics are
//!   bit-identical to the fault-free reference.
//! * [`Outcome::ReconfigLeak`] — a reconfiguration happened but some
//!   survivor's execution changed: the transition leaked. A failure,
//!   shrunk like the others.
//!
//! Failing plans (violation / stall / diverged) are then **shrunk**:
//! faults are removed one at a time to a fixpoint, keeping only those
//! whose removal changes the classification. The result is a 1-minimal
//! fault set and a one-line repro command for every failure.
//!
//! Everything is deterministic: the population depends only on the
//! campaign seed, each run is a single-threaded simulation, and results
//! land by population index, so the classification table and every
//! shrunk fault list are identical at any `FSMC_THREADS` value.

use crate::config::SystemConfig;
use crate::engine::{Engine, ExperimentJob};
use crate::error::FsmcError;
use crate::faults::{FaultKind, FaultPlan, TimingField};
use crate::runner::RunResult;
use crate::spec::scheduler_spec;
use fsmc_core::domain::PartitionPolicy;
use fsmc_core::sched::{ReconfigEvent, SchedulerKind};
use fsmc_dram::DeviceGeneration;
use fsmc_workload::{BenchProfile, TraceCache, WorkloadMix};
use std::fmt;

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. One seed,
/// one stream; used for everything the campaign randomises.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n = 0 is treated as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// How a faulted run ended, relative to the fault-free reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Clean,
    GracefulDegrade,
    Violation,
    Stall,
    Diverged,
    Reconfigured,
    ReconfigLeak,
    /// The online leakage estimator measured information flow between
    /// domains on a configuration that claims to be secure (`fsmc leak
    /// --campaign`; the classic cause is [`crate::FaultKind::SharedArbiter`]).
    LeakDetected,
}

impl Outcome {
    pub const ALL: [Outcome; 8] = [
        Outcome::Clean,
        Outcome::GracefulDegrade,
        Outcome::Violation,
        Outcome::Stall,
        Outcome::Diverged,
        Outcome::Reconfigured,
        Outcome::ReconfigLeak,
        Outcome::LeakDetected,
    ];

    /// Failures worth shrinking and reproducing; graceful degradation
    /// and a clean reconfiguration are *designed* responses to a fault,
    /// not failures.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::Violation
                | Outcome::Stall
                | Outcome::Diverged
                | Outcome::ReconfigLeak
                | Outcome::LeakDetected
        )
    }

    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::GracefulDegrade => "graceful-degrade",
            Outcome::Violation => "violation",
            Outcome::Stall => "stall",
            Outcome::Diverged => "diverged",
            Outcome::Reconfigured => "reconfigured",
            Outcome::ReconfigLeak => "reconfig-leak",
            Outcome::LeakDetected => "leak-detected",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Campaign parameters. The defaults are sized for a CI smoke run;
/// soak runs raise `population` and `cycles`.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: generates the whole fault-plan population.
    pub seed: u64,
    /// Number of fault plans to generate and run.
    pub population: usize,
    /// DRAM cycles per run.
    pub cycles: u64,
    /// Workload seed (trace synthesis), shared by every run.
    pub run_seed: u64,
    pub mix: WorkloadMix,
    pub scheduler: SchedulerKind,
    /// Device generation every campaign run simulates.
    pub device: DeviceGeneration,
    /// Faults per generated plan: 1..=max_faults, chosen per plan.
    pub max_faults: usize,
    /// Include persistent-fault and domain-churn event kinds (stuck
    /// bank, dead rank, thermal refresh, leave, join) in the generated
    /// population. Off by default so legacy campaign seeds keep their
    /// exact populations and classification tables.
    pub churn: bool,
    /// Shrink failing plans to a 1-minimal fault set.
    pub shrink: bool,
    /// Collect per-domain observability metrics on every run; the
    /// fault-free reference's report lands in
    /// [`CampaignReport::reference_metrics`] and each successful faulted
    /// run's in [`CaseReport::metrics`].
    pub metrics: bool,
}

impl CampaignConfig {
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            population: 16,
            cycles: 8_000,
            run_seed: 42,
            mix: WorkloadMix::rate(BenchProfile::mcf(), 4),
            scheduler: SchedulerKind::FsRankPartitioned,
            device: DeviceGeneration::Ddr3_1600,
            max_faults: 4,
            churn: false,
            shrink: true,
            metrics: false,
        }
    }

    /// The system configuration every campaign run uses: the derived
    /// per-mix config with the online invariant monitor armed.
    fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::for_device(self.device, self.scheduler, self.mix.cores() as u8);
        cfg.monitor = true;
        cfg
    }

    /// The job for one fault plan.
    fn job(&self, plan: FaultPlan) -> ExperimentJob {
        let job = ExperimentJob::new(self.mix.clone(), self.scheduler, self.cycles, self.run_seed)
            .with_config(self.system_config())
            .with_faults(plan);
        if self.metrics {
            job.with_metrics()
        } else {
            job
        }
    }
}

/// One random fault, drawn from ranges wide enough to cover silent
/// drift (small delays), lost work (drops), retention hazards
/// (stretched refresh), mis-certified silicon (perturbed timing) and
/// bad input (corrupt traces). With `churn` on, the persistent-fault
/// and domain-churn kinds join the pool, their fire cycles drawn from
/// the middle of the run so the reconfiguration actually adopts.
fn random_fault(rng: &mut SplitMix64, cores: u64, cycles: u64, churn: bool) -> FaultKind {
    const FIELDS: [TimingField; 7] = [
        TimingField::TRc,
        TimingField::TRcd,
        TimingField::TRas,
        TimingField::TFaw,
        TimingField::TRtrs,
        TimingField::TRfc,
        TimingField::TWtr,
    ];
    let at = |rng: &mut SplitMix64| 200 + rng.below(cycles.saturating_sub(1_200).max(1));
    match rng.below(if churn { 10 } else { 5 }) {
        0 => FaultKind::DelayCommand {
            period: 20 + rng.below(180),
            delay: 1 + rng.below(8),
            max: 1 + rng.below(3),
        },
        1 => FaultKind::DropCommand { period: 40 + rng.below(360), max: 1 + rng.below(3) },
        2 => FaultKind::StretchRefresh { factor: (2 + rng.below(30)) as u32 },
        3 => FaultKind::PerturbTiming {
            field: FIELDS[rng.below(FIELDS.len() as u64) as usize],
            delta: rng.below(8) as i32 - 2,
        },
        4 => FaultKind::CorruptTrace {
            core: rng.below(cores) as usize,
            period: (2 + rng.below(8)) as usize,
        },
        5 => {
            FaultKind::StuckBank { rank: rng.below(8) as u8, bank: rng.below(8) as u8, at: at(rng) }
        }
        6 => FaultKind::DeadRank { rank: rng.below(8) as u8, at: at(rng) },
        7 => FaultKind::ThermalRefresh { factor: (2 + rng.below(3)) as u8, at: at(rng) },
        8 => FaultKind::DomainLeave { domain: rng.below(cores) as u8, at: at(rng) },
        _ => FaultKind::DomainJoin { domain: rng.below(cores) as u8, at: at(rng) },
    }
}

/// The deterministic plan population for a campaign seed.
pub fn generate_population(cfg: &CampaignConfig) -> Vec<FaultPlan> {
    let mut rng = SplitMix64::new(cfg.seed);
    let cores = cfg.mix.cores() as u64;
    (0..cfg.population)
        .map(|i| {
            let mut plan = FaultPlan::new(cfg.seed.wrapping_add(i as u64));
            let count = 1 + rng.below(cfg.max_faults.max(1) as u64);
            for _ in 0..count {
                plan = plan.with(random_fault(&mut rng, cores, cfg.cycles, cfg.churn));
            }
            plan
        })
        .collect()
}

/// Survivor non-interference check for a run whose plan scheduled
/// reconfiguration events: every domain *not* touched by the events
/// must end the run with core statistics and per-domain scheduling
/// statistics bit-identical to the fault-free reference — the paper's
/// isolation property carried across the epoch boundary.
fn survivors_intact(
    cfg: &CampaignConfig,
    r: &RunResult,
    reference: &RunResult,
    events: &[(u64, ReconfigEvent)],
) -> bool {
    let cores = cfg.mix.cores() as u8;
    let ranks = cfg.system_config().geometry.ranks_per_channel();
    let policy = cfg.scheduler.partition_policy();
    let mut touched = vec![false; cores as usize];
    for (_, ev) in events {
        match ev {
            // A thermal alarm retimes refresh for *everyone* — identical
            // across domains, but not identical to the no-event baseline,
            // so no domain is held to bit-identity.
            ReconfigEvent::ThermalRefresh { .. } => return true,
            // A spatial fault under bank-striped or unpartitioned mapping
            // touches every domain's address space: there is no survivor
            // to hold to bit-identity.
            ReconfigEvent::StuckBank { .. } | ReconfigEvent::DeadRank { .. }
                if !matches!(policy, PartitionPolicy::Rank) =>
            {
                return true;
            }
            _ => {}
        }
        if let Some(d) = ev.touched_domain(cores, ranks) {
            if (d as usize) < touched.len() {
                touched[d as usize] = true;
            }
        }
    }
    (0..cores as usize).filter(|&i| !touched[i]).all(|i| {
        r.stats.cores[i] == reference.stats.cores[i]
            && r.stats.mc.domains().get(i) == reference.stats.mc.domains().get(i)
    })
}

/// Classifies one faulted result against the fault-free reference.
/// `plan` is the fault plan the run executed — reconfiguration outcomes
/// depend on which domains its events touched.
pub fn classify(
    cfg: &CampaignConfig,
    result: &Result<RunResult, FsmcError>,
    reference: &RunResult,
    plan: &FaultPlan,
) -> Outcome {
    match result {
        Err(FsmcError::Watchdog(_)) => Outcome::Stall,
        Err(FsmcError::Timing(_)) | Err(FsmcError::Invariant(_)) => Outcome::Violation,
        // Construction-time rejection (bad trace, infeasible perturbed
        // timing, bad config) is the structured-error path working as
        // designed; a service poisoning already exhausted its retries,
        // so it counts the same way.
        Err(FsmcError::Trace(_))
        | Err(FsmcError::Solve(_))
        | Err(FsmcError::Config(_))
        | Err(FsmcError::Service(_)) => Outcome::GracefulDegrade,
        Ok(r) => {
            let fired: Vec<_> =
                plan.reconfig_events().into_iter().filter(|&(at, _)| at < cfg.cycles).collect();
            if r.stats.mc.degraded {
                Outcome::GracefulDegrade
            } else if !fired.is_empty() {
                // Schedulers without a reconfiguration protocol (the
                // FR-FCFS baseline, TP) still see the churn at the
                // system level; their survivors legitimately diverge
                // and the plan classifies as a reconfig leak.
                if survivors_intact(cfg, r, reference, &fired) {
                    Outcome::Reconfigured
                } else {
                    Outcome::ReconfigLeak
                }
            } else if r.ipcs == reference.ipcs
                && r.stats.reads_completed == reference.stats.reads_completed
            {
                Outcome::Clean
            } else {
                Outcome::Diverged
            }
        }
    }
}

/// One campaign case: the plan, its classification, the failure text
/// (if any), and the shrunk minimal plan (for shrunk failures).
#[derive(Debug, Clone)]
pub struct CaseReport {
    pub index: usize,
    pub plan: FaultPlan,
    pub outcome: Outcome,
    /// Rendered error for failed runs (includes the provenance line).
    pub error: Option<String>,
    /// 1-minimal plan preserving the classification, when shrinking ran.
    pub shrunk: Option<FaultPlan>,
    /// Observability metrics of the faulted run, when the campaign ran
    /// with [`CampaignConfig::metrics`] and the run completed.
    pub metrics: Option<fsmc_obs::MetricsReport>,
}

impl CaseReport {
    /// The plan to reproduce this case with: the shrunk plan if one was
    /// computed, otherwise the original.
    pub fn minimal_plan(&self) -> &FaultPlan {
        self.shrunk.as_ref().unwrap_or(&self.plan)
    }
}

/// The campaign's full outcome table.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub scheduler: SchedulerKind,
    pub device: DeviceGeneration,
    pub mix_name: &'static str,
    pub cores: usize,
    pub cycles: u64,
    pub run_seed: u64,
    pub seed: u64,
    pub cases: Vec<CaseReport>,
    /// Metrics of the fault-free reference run, when the campaign ran
    /// with [`CampaignConfig::metrics`].
    pub reference_metrics: Option<fsmc_obs::MetricsReport>,
}

impl CampaignReport {
    pub fn count(&self, outcome: Outcome) -> usize {
        self.cases.iter().filter(|c| c.outcome == outcome).count()
    }

    pub fn failures(&self) -> impl Iterator<Item = &CaseReport> {
        self.cases.iter().filter(|c| c.outcome.is_failure())
    }

    /// The standalone command reproducing one case.
    pub fn repro_line(&self, case: &CaseReport) -> String {
        let plan = case.minimal_plan();
        format!(
            "fsmc chaos --scheduler {} --device {} --workload {} --cores {} --cycles {} \
             --run-seed {} --fault-seed {} --faults '{}'",
            scheduler_spec(self.scheduler),
            self.device,
            self.mix_name,
            self.cores,
            self.cycles,
            self.run_seed,
            plan.seed,
            plan.spec()
        )
    }

    /// Human-readable classification table plus a repro line per failure.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos campaign: {} on {} x{} runs of {} cycles (seed {})",
            self.scheduler,
            self.mix_name,
            self.cases.len(),
            self.cycles,
            self.seed
        );
        for outcome in Outcome::ALL {
            let _ = writeln!(out, "  {:<18} {}", format!("{outcome}"), self.count(outcome));
        }
        for case in self.cases.iter() {
            if !case.outcome.is_failure() {
                continue;
            }
            let _ = writeln!(out, "case {:>3}  {:<18} {}", case.index, case.outcome, {
                let p = case.minimal_plan();
                format!("seed {} faults {}", p.seed, p.spec())
            });
            if let Some(e) = &case.error {
                let _ = writeln!(out, "          {e}");
            }
            let _ = writeln!(out, "          {}", self.repro_line(case));
        }
        if let Some(m) = &self.reference_metrics {
            let _ = writeln!(out, "reference-run metrics (fault-free):");
            for line in m.render().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// Greedy delta reduction to a 1-minimal fault set: repeatedly tries
/// removing each fault; a removal sticks iff the reduced plan still
/// `reproduces` the failure. Terminates at a fixpoint where removing any
/// single remaining fault loses it.
pub fn shrink(plan: &FaultPlan, mut reproduces: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    let mut changed = true;
    while changed && current.faults.len() > 1 {
        changed = false;
        let mut i = 0;
        while i < current.faults.len() && current.faults.len() > 1 {
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if reproduces(&candidate) {
                current = candidate;
                changed = true;
                // Same index now names the next fault; don't advance.
            } else {
                i += 1;
            }
        }
    }
    current
}

/// Runs and classifies one plan against the fault-free `reference`, and
/// shrinks it to the faults that keep its classification when it fails.
fn run_case(
    cfg: &CampaignConfig,
    index: usize,
    plan: &FaultPlan,
    reference: &RunResult,
    cache: &TraceCache,
) -> CaseReport {
    let result = cfg.job(plan.clone()).run_with(cache);
    let outcome = classify(cfg, &result, reference, plan);
    let error = result.as_ref().err().map(|e| e.to_string());
    let shrunk = (cfg.shrink && outcome.is_failure() && plan.faults.len() > 1).then(|| {
        shrink(plan, |candidate| {
            let result = cfg.job(candidate.clone()).run_with(cache);
            classify(cfg, &result, reference, candidate) == outcome
        })
    });
    let metrics = result.ok().and_then(|r| r.metrics);
    CaseReport { index, plan: plan.clone(), outcome, error, shrunk, metrics }
}

/// Runs a full campaign on `engine`.
///
/// # Errors
///
/// Only a failing *reference* run (the fault-free baseline every
/// classification compares against) aborts the campaign; faulted runs
/// always land as classified cases.
pub fn run_campaign(engine: &Engine, cfg: &CampaignConfig) -> Result<CampaignReport, FsmcError> {
    let cache = TraceCache::new();
    let reference = cfg.job(FaultPlan::default()).run_with(&cache)?;
    let population = generate_population(cfg);
    let cases =
        engine.map(&population, |index, plan| run_case(cfg, index, plan, &reference, &cache));
    Ok(CampaignReport {
        scheduler: cfg.scheduler,
        device: cfg.device,
        mix_name: cfg.mix.name,
        cores: cfg.mix.cores(),
        cycles: cfg.cycles,
        run_seed: cfg.run_seed,
        seed: cfg.seed,
        cases,
        reference_metrics: reference.metrics,
    })
}

/// Classifies a single explicit plan (the `fsmc chaos` repro mode).
///
/// # Errors
///
/// As for [`run_campaign`]: only the reference run can abort.
pub fn run_single(cfg: &CampaignConfig, plan: FaultPlan) -> Result<CaseReport, FsmcError> {
    let cache = TraceCache::new();
    let reference = cfg.job(FaultPlan::default()).run_with(&cache)?;
    Ok(run_case(cfg, 0, &plan, &reference, &cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_seed_deterministic_and_bounded() {
        let cfg = CampaignConfig::new(7);
        let a = generate_population(&cfg);
        let b = generate_population(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.population);
        assert!(a.iter().all(|p| !p.faults.is_empty() && p.faults.len() <= cfg.max_faults));
        // Different seeds generate different populations.
        let c = generate_population(&CampaignConfig::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut counts = [0usize; 5];
        for _ in 0..1000 {
            counts[a.below(5) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 120), "roughly uniform: {counts:?}");
    }

    #[test]
    fn shrinker_reduces_to_the_single_culprit() {
        // A plan of one lethal fault (drop every 3rd transaction's
        // commands, unbounded enough to starve) plus two harmless
        // passengers must shrink to just the lethal fault.
        let mut cfg = CampaignConfig::new(1);
        cfg.population = 0;
        cfg.cycles = 6_000;
        let lethal = FaultKind::DropCommand { period: 3, max: 3 };
        let plan = FaultPlan::new(9)
            .with(FaultKind::DelayCommand { period: 1_000_000, delay: 1, max: 1 })
            .with(lethal)
            .with(FaultKind::StretchRefresh { factor: 1 });
        let case = run_single(&cfg, plan).expect("reference run is clean");
        assert!(case.outcome.is_failure(), "outcome {}", case.outcome);
        let min = case.minimal_plan();
        assert_eq!(min.faults, vec![lethal], "shrunk to {}", min.spec());
    }

    #[test]
    fn churn_population_is_deterministic_and_adds_reconfig_kinds() {
        let mut cfg = CampaignConfig::new(7);
        cfg.churn = true;
        let a = generate_population(&cfg);
        let b = generate_population(&cfg);
        assert_eq!(a, b);
        // The widened draw space must actually surface reconfiguration
        // events somewhere in a 16-plan population.
        assert!(
            a.iter().any(|p| !p.reconfig_events().is_empty()),
            "no churn kinds drawn across {} plans",
            a.len()
        );
        // The legacy (churn-off) population is untouched by the flag's
        // existence: same seed, same plans as before.
        let legacy = generate_population(&CampaignConfig::new(7));
        assert!(legacy.iter().all(|p| p.reconfig_events().is_empty()));
    }

    #[test]
    fn pure_reconfig_churn_classifies_as_reconfigured_under_fs() {
        let mut cfg = CampaignConfig::new(3);
        cfg.population = 0;
        cfg.cycles = 6_000;
        let plan = FaultPlan::new(5).with(FaultKind::DomainLeave { domain: 1, at: 2_000 });
        let case = run_single(&cfg, plan).expect("reference run is clean");
        assert_eq!(case.outcome, Outcome::Reconfigured, "error: {:?}", case.error);
    }

    #[test]
    fn clean_runs_match_reference_bit_for_bit() {
        let mut cfg = CampaignConfig::new(2);
        cfg.cycles = 4_000;
        // A delay that never fires (period beyond the run) is a no-op.
        let plan =
            FaultPlan::new(3).with(FaultKind::DelayCommand { period: u64::MAX, delay: 5, max: 1 });
        let case = run_single(&cfg, plan).expect("reference run is clean");
        assert_eq!(case.outcome, Outcome::Clean);
        assert!(case.error.is_none());
    }
}
