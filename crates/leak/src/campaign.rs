//! Leak-hunting chaos campaigns: inject faults (including the
//! shared-arbiter misconfiguration), watch the *online* estimator, and
//! shrink any leak to a 1-minimal repro.
//!
//! The classic chaos campaign asks "does the machine still satisfy its
//! functional invariants under faults?". This campaign asks the security
//! question instead: "does the machine still *not leak*?" — a property a
//! functional checker cannot see, because a run with the wrong arbiter
//! wired in is perfectly healthy by every functional measure. Each case
//! runs the covert-channel experiment against the configured (secure)
//! scheduler with a fault plan applied exactly as `fsmc chaos` would
//! apply it, feeds every receiver latency to the
//! [`OnlineLeakEstimator`], and classifies
//! [`Outcome::LeakDetected`] when the estimator measures information
//! flow a secure policy should have destroyed.

use crate::online::OnlineLeakEstimator;
use crate::protocol::{default_secret, Protocol};
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::trace::TraceSource;
use fsmc_dram::DeviceGeneration;
use fsmc_sim::{Engine, FaultKind, FaultPlan, Outcome, SplitMix64, System, SystemConfig};
use fsmc_workload::{IdleTrace, ProbeTrace};

/// Geometry of one leak campaign.
#[derive(Debug, Clone)]
pub struct LeakCampaignConfig {
    /// Master seed for the fault population.
    pub seed: u64,
    /// How many fault plans to draw.
    pub population: usize,
    pub device: DeviceGeneration,
    /// The scheduler the configuration *asks for* (a fault may silently
    /// replace it).
    pub scheduler: SchedulerKind,
    pub protocol: Protocol,
    pub window_cycles: u64,
    pub windows: usize,
    /// Online-MI level (bits) above which a secure scheduler counts as
    /// leaking. The clean floor is ~1e-3 bits; a live channel measures
    /// an order of magnitude above this threshold.
    pub mi_threshold: f64,
}

impl LeakCampaignConfig {
    pub fn new(seed: u64) -> Self {
        LeakCampaignConfig {
            seed,
            population: 12,
            device: DeviceGeneration::Ddr3_1600,
            scheduler: SchedulerKind::FsRankPartitioned,
            protocol: Protocol::Intensity,
            window_cycles: 2_500,
            windows: 60,
            mi_threshold: 0.08,
        }
    }
}

/// One case's verdict.
#[derive(Debug, Clone)]
pub struct LeakCaseReport {
    pub plan: FaultPlan,
    pub outcome: Outcome,
    /// Online mutual information the estimator measured (bits).
    pub mi_bits: f64,
    /// Receiver observations the estimator consumed.
    pub samples: u64,
    /// For leaks: the 1-minimal plan that still reproduces, plus the
    /// CLI line that replays it.
    pub shrunk: Option<FaultPlan>,
    pub repro: Option<String>,
}

/// A whole campaign's results.
#[derive(Debug, Clone)]
pub struct LeakCampaignReport {
    pub config: LeakCampaignConfig,
    pub cases: Vec<LeakCaseReport>,
}

impl LeakCampaignReport {
    pub fn failures(&self) -> usize {
        self.cases.iter().filter(|c| c.outcome.is_failure()).count()
    }

    /// Human-readable summary, stable across thread counts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "leak campaign: device={} scheduler={} protocol={} population={} seed={}\n",
            self.config.device.cli_name(),
            self.config.scheduler.label(),
            self.config.protocol,
            self.config.population,
            self.config.seed,
        );
        for o in Outcome::ALL {
            let n = self.cases.iter().filter(|c| c.outcome == o).count();
            if n > 0 {
                out.push_str(&format!("  {:>16}: {}\n", o.name(), n));
            }
        }
        for case in &self.cases {
            if !case.outcome.is_failure() {
                continue;
            }
            out.push_str(&format!(
                "  {}: faults='{}' mi={:.4} samples={}\n",
                case.outcome.name(),
                case.plan.spec(),
                case.mi_bits,
                case.samples,
            ));
            if let Some(shrunk) = &case.shrunk {
                out.push_str(&format!("    shrunk: '{}'\n", shrunk.spec()));
            }
            if let Some(repro) = &case.repro {
                out.push_str(&format!("    repro: {repro}\n"));
            }
        }
        out
    }
}

/// Draws the leak campaign's fault population. The pool mixes the leaky
/// misconfiguration with faults that perturb timing without breaking
/// isolation, so the campaign has both true positives and true
/// negatives to classify. Deliberately separate from the functional
/// campaign's population (whose byte-exact legacy draws must not
/// change).
pub fn generate_leak_population(cfg: &LeakCampaignConfig) -> Vec<FaultPlan> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut plans = Vec::with_capacity(cfg.population);
    for _ in 0..cfg.population {
        let mut plan = FaultPlan::new(rng.next_u64());
        let nfaults = 1 + rng.below(2) as usize;
        for _ in 0..nfaults {
            let fault = match rng.below(4) {
                0 => FaultKind::SharedArbiter,
                1 => FaultKind::StretchRefresh { factor: 2 + rng.below(3) as u32 },
                2 => FaultKind::DelayCommand {
                    period: 64 + rng.below(64),
                    delay: 1 + rng.below(4),
                    max: 16,
                },
                _ => FaultKind::PerturbTiming {
                    field: fsmc_sim::TimingField::TWtr,
                    delta: 1 + rng.below(2) as i32,
                },
            };
            if !plan.faults.contains(&fault) {
                plan.faults.push(fault);
            }
        }
        plans.push(plan);
    }
    plans
}

/// Runs one fault plan through the covert experiment and classifies it.
pub fn run_leak_case(cfg: &LeakCampaignConfig, plan: &FaultPlan) -> (Outcome, f64, u64) {
    let mut sys_cfg = SystemConfig::for_device(cfg.device, cfg.scheduler, 8);
    plan.configure(&mut sys_cfg);

    let (sender, modulator) = cfg.protocol.build(&default_secret());
    let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(sys_cfg.cores as usize);
    traces.push(Box::new(ProbeTrace::new(20)));
    traces.push(sender);
    for _ in 2..sys_cfg.cores {
        traces.push(Box::new(IdleTrace));
    }
    let mut sys = match System::try_new(&sys_cfg, traces) {
        Ok(sys) => sys,
        // An infeasible perturbed configuration refuses to construct:
        // the machine degraded gracefully rather than running insecure.
        Err(_) => return (Outcome::GracefulDegrade, 0.0, 0),
    };
    plan.arm(&mut sys);
    sys.observe(0);

    let mut est = OnlineLeakEstimator::new();
    for _ in 0..cfg.windows {
        sys.take_observations(); // clear
        let slot_before = modulator.slot_at(sys.core_stats(1).instructions_retired);
        for _ in 0..cfg.window_cycles {
            sys.step();
        }
        let obs = sys.take_observations();
        let instrs = sys.core_stats(1).instructions_retired;
        if modulator.slot_at(instrs) != slot_before {
            continue; // straddles a symbol boundary
        }
        let symbol = modulator.bit_at(instrs);
        for (_, latency) in obs {
            est.record(symbol, latency);
        }
    }

    let mi = est.mi_bits();
    let samples = est.samples();
    let outcome = if samples == 0 {
        Outcome::Stall
    } else if mi > cfg.mi_threshold && cfg.scheduler.is_secure() {
        Outcome::LeakDetected
    } else {
        Outcome::Clean
    };
    (outcome, mi, samples)
}

/// Greedy delta-debugging: drops faults one at a time while the leak
/// still reproduces. The result is 1-minimal — removing any remaining
/// fault loses the detection.
pub fn shrink_leak(cfg: &LeakCampaignConfig, plan: &FaultPlan) -> FaultPlan {
    let mut current = plan.clone();
    'outer: loop {
        if current.faults.len() <= 1 {
            return current;
        }
        for i in 0..current.faults.len() {
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if run_leak_case(cfg, &candidate).0 == Outcome::LeakDetected {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// The CLI line that replays one (shrunk) leak.
pub fn repro_line(cfg: &LeakCampaignConfig, plan: &FaultPlan) -> String {
    format!(
        "fsmc leak --device {} --scheduler {} --protocol {} --fault-seed {} --faults '{}'",
        cfg.device.cli_name(),
        cfg.scheduler.cli_name(),
        cfg.protocol,
        plan.seed,
        plan.spec(),
    )
}

/// Runs the whole campaign on `engine`. Case execution parallelises;
/// shrinking runs only on the (rare) failures afterwards. Output is
/// byte-identical at any thread count.
pub fn run_leak_campaign(engine: &Engine, cfg: &LeakCampaignConfig) -> LeakCampaignReport {
    let plans = generate_leak_population(cfg);
    let verdicts = engine.map(&plans, |_, plan| run_leak_case(cfg, plan));
    let cases = plans
        .into_iter()
        .zip(verdicts)
        .map(|(plan, (outcome, mi_bits, samples))| {
            let (shrunk, repro) = if outcome == Outcome::LeakDetected {
                let minimal = shrink_leak(cfg, &plan);
                let repro = repro_line(cfg, &minimal);
                (Some(minimal), Some(repro))
            } else {
                (None, None)
            };
            LeakCaseReport { plan, outcome, mi_bits, samples, shrunk, repro }
        })
        .collect();
    LeakCampaignReport { config: cfg.clone(), cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> LeakCampaignConfig {
        let mut cfg = LeakCampaignConfig::new(seed);
        cfg.windows = 40;
        cfg
    }

    #[test]
    fn population_is_seed_deterministic_and_mixes_leaky_plans() {
        let cfg = quick_cfg(7);
        let a = generate_leak_population(&cfg);
        let b = generate_leak_population(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.population);
        assert!(a.iter().any(|p| p.has_shared_arbiter()), "pool never drew the leaky fault");
        assert!(a.iter().any(|p| !p.has_shared_arbiter()), "pool drew only leaky faults");
    }

    #[test]
    fn shared_arbiter_under_fs_is_detected_and_shrinks_to_one_fault() {
        let cfg = quick_cfg(1);
        // A deliberately noisy plan: the misconfiguration plus two
        // benign faults the shrinker must strip away.
        let plan = FaultPlan::new(99)
            .with(FaultKind::StretchRefresh { factor: 2 })
            .with(FaultKind::SharedArbiter)
            .with(FaultKind::PerturbTiming { field: fsmc_sim::TimingField::TWtr, delta: 1 });
        let (outcome, mi, samples) = run_leak_case(&cfg, &plan);
        assert_eq!(outcome, Outcome::LeakDetected, "mi={mi} samples={samples}");
        assert!(mi > cfg.mi_threshold);
        let minimal = shrink_leak(&cfg, &plan);
        assert_eq!(minimal.faults, vec![FaultKind::SharedArbiter]);
        let repro = repro_line(&cfg, &minimal);
        assert!(repro.contains("--faults 'shared-arbiter()'"), "{repro}");
        // The repro's spec round-trips through the chaos parser.
        let reparsed = FaultPlan::parse_spec(minimal.seed, &minimal.spec()).unwrap();
        assert_eq!(reparsed, minimal);
    }

    #[test]
    fn faultless_fs_run_is_clean() {
        let cfg = quick_cfg(2);
        let (outcome, mi, samples) = run_leak_case(&cfg, &FaultPlan::new(0));
        assert_eq!(outcome, Outcome::Clean, "mi={mi}");
        assert!(samples > 0);
        assert!(mi < cfg.mi_threshold, "clean FS run measured {mi} bits");
    }

    #[test]
    fn baseline_scheduler_is_not_reported_as_a_leak() {
        // An insecure scheduler carrying information is not a *fault* —
        // the campaign only flags schedulers that promised isolation.
        let mut cfg = quick_cfg(3);
        cfg.scheduler = SchedulerKind::Baseline;
        let (outcome, mi, _) = run_leak_case(&cfg, &FaultPlan::new(0));
        assert_eq!(outcome, Outcome::Clean);
        assert!(mi > cfg.mi_threshold, "baseline should measurably leak (mi={mi})");
    }
}
