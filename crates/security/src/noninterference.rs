//! The non-interference harness: does a thread's timing depend on its
//! co-runners?

use crate::profile::ExecutionProfile;
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::trace::TraceSource;
use fsmc_dram::DeviceGeneration;
use fsmc_sim::{FaultKind, FaultPlan, FsmcError, System, SystemConfig};
use fsmc_workload::{BenchProfile, FloodTrace, IdleTrace, SyntheticTrace};

/// What the attacker thread ran against (Figure 4's two environments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoRunners {
    /// "Synthetic threads that make no memory accesses."
    Idle,
    /// "Highly memory-intensive" synthetic threads.
    MemoryIntensive,
}

/// Outcome of a non-interference check.
#[derive(Debug, Clone)]
pub struct NonInterferenceReport {
    pub scheduler: SchedulerKind,
    pub idle_profile: ExecutionProfile,
    pub intensive_profile: ExecutionProfile,
}

impl NonInterferenceReport {
    /// Zero leakage: the two profiles are bit-identical.
    pub fn is_non_interfering(&self) -> bool {
        self.idle_profile.identical(&self.intensive_profile)
    }

    /// Worst-case timing divergence between environments, in CPU cycles.
    pub fn max_divergence(&self) -> u64 {
        self.idle_profile.max_divergence(&self.intensive_profile)
    }
}

/// Measures the execution profile of an mcf-like attacker on core 0 of
/// an 8-core `device` system under `scheduler`, co-scheduled with seven
/// `co` threads, with `plan` applied and the online invariant monitor
/// armed.
///
/// The empty plan is the static environment; [`ChurnEnv::plan`] gives
/// the churn environments. The plan applies as it does to any
/// [`fsmc_sim::ExperimentJob`] ([`FaultPlan::configure`] and
/// [`FaultPlan::arm`]), except that trace-corruption faults do not: the
/// harness owns its traces, and the attacker's instruction stream must
/// stay identical across environments for profiles to be comparable at
/// all. The monitor only observes, so it never changes a profile; any
/// stall, poisoning or invariant breach surfaces as a structured error
/// carrying the plan's repro provenance.
///
/// # Errors
///
/// As for [`fsmc_sim::System::try_run_profile`], plus construction
/// failures for infeasible perturbed timing.
pub fn execution_profile(
    device: DeviceGeneration,
    scheduler: SchedulerKind,
    co: CoRunners,
    plan: &FaultPlan,
    bucket_instrs: u64,
    buckets: usize,
) -> Result<ExecutionProfile, FsmcError> {
    let mut cfg = SystemConfig::for_device(device, scheduler, 8);
    cfg.monitor = true;
    plan.configure(&mut cfg);
    let mut sys = System::try_new(&cfg, traces(co, cfg.cores))?;
    plan.arm(&mut sys);
    let boundaries =
        sys.try_run_profile(0, bucket_instrs, buckets).map_err(|e| e.with_provenance(plan))?;
    Ok(ExecutionProfile::new(boundaries, bucket_instrs))
}

/// The attacker on core 0 and `co` threads on the other `cores - 1`.
fn traces(co: CoRunners, cores: u8) -> Vec<Box<dyn TraceSource>> {
    let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(cores as usize);
    // The attacker (the paper uses mcf) always uses the same seed, so its
    // own instruction stream is identical across environments.
    traces.push(Box::new(SyntheticTrace::new(BenchProfile::mcf(), 0xA77AC)));
    for _ in 1..cores {
        match co {
            CoRunners::Idle => traces.push(Box::new(IdleTrace)),
            CoRunners::MemoryIntensive => traces.push(Box::new(FloodTrace::new())),
        }
    }
    traces
}

/// What churns around the observer mid-run (the reconfiguration probe).
///
/// The observer is always domain 0; each environment differs only in a
/// reconfiguration event pinned to the same absolute DRAM cycle, so any
/// difference in the observer's profile is attributable to the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEnv {
    /// Nothing churns: the reference environment.
    Static,
    /// Co-domain 1 leaves mid-run (its slots decay to dummies).
    CoLeave,
    /// Co-domain 1 is absent from the start and joins mid-run.
    CoJoin,
    /// A persistent stuck-bank fault lands in domain 7's rank, forcing
    /// a re-solved, re-certified schedule adoption the observer is not
    /// party to.
    ForeignBankFault,
}

impl ChurnEnv {
    pub const ALL: [ChurnEnv; 4] =
        [ChurnEnv::Static, ChurnEnv::CoLeave, ChurnEnv::CoJoin, ChurnEnv::ForeignBankFault];

    pub fn name(self) -> &'static str {
        match self {
            ChurnEnv::Static => "static",
            ChurnEnv::CoLeave => "co-leave",
            ChurnEnv::CoJoin => "co-join",
            ChurnEnv::ForeignBankFault => "foreign-bank-fault",
        }
    }

    /// The fault plan realising this environment, churning at `at`.
    pub fn plan(self, at: u64) -> FaultPlan {
        let plan = FaultPlan::new(0);
        match self {
            ChurnEnv::Static => plan,
            ChurnEnv::CoLeave => plan.with(FaultKind::DomainLeave { domain: 1, at }),
            ChurnEnv::CoJoin => plan.with(FaultKind::DomainJoin { domain: 1, at }),
            ChurnEnv::ForeignBankFault => plan.with(FaultKind::StuckBank { rank: 7, bank: 0, at }),
        }
    }
}

/// Outcome of a churn non-interference check: the observer's profile in
/// every [`ChurnEnv`], first entry the [`ChurnEnv::Static`] reference.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    pub scheduler: SchedulerKind,
    pub profiles: Vec<(ChurnEnv, ExecutionProfile)>,
}

impl ChurnReport {
    /// Zero leakage: the survivor's profile is bit-identical whether or
    /// not anything churned.
    pub fn is_non_interfering(&self) -> bool {
        self.divergent_envs().is_empty()
    }

    /// Environments whose profile differs from the static reference.
    pub fn divergent_envs(&self) -> Vec<ChurnEnv> {
        let reference = &self.profiles[0].1;
        self.profiles
            .iter()
            .skip(1)
            .filter(|(_, p)| !reference.identical(p))
            .map(|&(env, _)| env)
            .collect()
    }

    /// Worst-case divergence from the static reference, in CPU cycles.
    pub fn max_divergence(&self) -> u64 {
        let reference = &self.profiles[0].1;
        self.profiles.iter().skip(1).map(|(_, p)| reference.max_divergence(p)).max().unwrap_or(0)
    }
}

/// Runs the observer through every [`ChurnEnv`] (memory-intensive
/// co-runners throughout, the reconfiguration event at DRAM cycle
/// `churn_at`) and reports whether its execution profile is independent
/// of domain churn and foreign persistent faults.
///
/// # Errors
///
/// Whichever environment's run fails first, with provenance attached: a
/// stall, timing poisoning, cadence breach on either side of the
/// transition, or a failed re-certification.
pub fn check_churn_noninterference(
    device: DeviceGeneration,
    scheduler: SchedulerKind,
    churn_at: u64,
    bucket_instrs: u64,
    buckets: usize,
) -> Result<ChurnReport, FsmcError> {
    let profiles = ChurnEnv::ALL
        .into_iter()
        .map(|env| {
            let plan = env.plan(churn_at);
            let co = CoRunners::MemoryIntensive;
            Ok((env, execution_profile(device, scheduler, co, &plan, bucket_instrs, buckets)?))
        })
        .collect::<Result<_, FsmcError>>()?;
    Ok(ChurnReport { scheduler, profiles })
}

/// Runs the attacker next to idle and next to flooding co-runners, with
/// the same fault plan applied in both, and reports whether its profile
/// changed. With the empty plan this is Figure 4's experiment. Under a
/// fault the FS guarantee must survive graceful degradation — a fault
/// that demotes the controller to the conservative pipeline demotes it
/// *identically* regardless of co-runner behaviour, so even a degraded
/// FS system leaks nothing.
///
/// ```no_run
/// use fsmc_core::sched::SchedulerKind;
/// use fsmc_dram::DeviceGeneration;
/// use fsmc_security::check_noninterference;
/// use fsmc_sim::FaultPlan;
///
/// let report = check_noninterference(
///     DeviceGeneration::Ddr3_1600,
///     SchedulerKind::FsRankPartitioned,
///     &FaultPlan::default(),
///     10_000,
///     20,
/// )
/// .unwrap();
/// assert!(report.is_non_interfering()); // divergence is exactly zero
/// ```
///
/// # Errors
///
/// Whichever environment's run fails first (stall, poisoning, invariant
/// breach, infeasible perturbed timing), with provenance attached.
pub fn check_noninterference(
    device: DeviceGeneration,
    scheduler: SchedulerKind,
    plan: &FaultPlan,
    bucket_instrs: u64,
    buckets: usize,
) -> Result<NonInterferenceReport, FsmcError> {
    let profile = |co| execution_profile(device, scheduler, co, plan, bucket_instrs, buckets);
    Ok(NonInterferenceReport {
        scheduler,
        idle_profile: profile(CoRunners::Idle)?,
        intensive_profile: profile(CoRunners::MemoryIntensive)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDR3: DeviceGeneration = DeviceGeneration::Ddr3_1600;

    fn check(
        scheduler: SchedulerKind,
        bucket_instrs: u64,
        buckets: usize,
    ) -> NonInterferenceReport {
        check_noninterference(DDR3, scheduler, &FaultPlan::default(), bucket_instrs, buckets)
            .expect("clean probe runs must complete")
    }

    #[test]
    fn fs_rank_partitioned_is_non_interfering() {
        let r = check(SchedulerKind::FsRankPartitioned, 2000, 10);
        assert!(r.is_non_interfering(), "FS leaked: divergence {} cycles", r.max_divergence());
    }

    #[test]
    fn fs_triple_alternation_is_non_interfering() {
        let r = check(SchedulerKind::FsTripleAlternation, 1000, 5);
        assert!(r.is_non_interfering(), "divergence {}", r.max_divergence());
    }

    #[test]
    fn fs_is_non_interfering_on_every_device_generation() {
        // The FS guarantee must not be an artifact of DDR3-1600's
        // parameters: the bit-identity holds on grouped DDR4, slow-core
        // LPDDR4 and wide HBM2 alike.
        for device in DeviceGeneration::all() {
            let r = check_noninterference(
                device,
                SchedulerKind::FsRankPartitioned,
                &FaultPlan::default(),
                1000,
                5,
            )
            .expect("clean probe runs must complete");
            assert!(
                r.is_non_interfering(),
                "FS leaked on {device}: divergence {} cycles",
                r.max_divergence()
            );
        }
    }

    #[test]
    fn baseline_leaks_on_ddr4_too() {
        // Negative control off-DDR3: bank-grouped FR-FCFS still leaks
        // co-runner intensity, so the per-device FS assertion above is
        // not vacuous.
        let r = check_noninterference(
            DeviceGeneration::Ddr4_2400,
            SchedulerKind::Baseline,
            &FaultPlan::default(),
            2000,
            10,
        )
        .expect("clean probe runs must complete");
        assert!(!r.is_non_interfering(), "ddr4 baseline unexpectedly non-interfering");
    }

    #[test]
    fn fs_survivor_profile_is_churn_independent_on_ddr4() {
        // The PR-6 reconfiguration story must survive the device swap:
        // joins, leaves and foreign persistent faults on a bank-grouped
        // part reconfigure without perturbing the observer.
        let r = check_churn_noninterference(
            DeviceGeneration::Ddr4_2400,
            SchedulerKind::FsRankPartitioned,
            800,
            1000,
            5,
        )
        .expect("churn must reconfigure cleanly under FS on ddr4");
        assert!(
            r.is_non_interfering(),
            "FS survivor diverged on ddr4 under {:?}: {} cycles",
            r.divergent_envs(),
            r.max_divergence()
        );
    }

    #[test]
    fn armed_monitor_does_not_change_the_profile() {
        // Every probe arms the invariant monitor; it observes without
        // perturbing, so the profile equals an unmonitored run's.
        for (kind, co) in [
            (SchedulerKind::FsRankPartitioned, CoRunners::Idle),
            (SchedulerKind::Baseline, CoRunners::MemoryIntensive),
        ] {
            let armed = execution_profile(DDR3, kind, co, &FaultPlan::default(), 1000, 5)
                .expect("clean run must not breach the monitor");
            let cfg = SystemConfig::for_device(DDR3, kind, 8);
            let mut sys = System::new(&cfg, traces(co, cfg.cores));
            let plain = ExecutionProfile::new(sys.run_profile(0, 1000, 5), 1000);
            assert!(plain.identical(&armed), "{kind}: monitoring changed the profile");
        }
    }

    #[test]
    fn fs_stays_bit_identical_under_graceful_degradation() {
        // A 3x-stretched refresh forces the controller onto the
        // conservative pipeline mid-run. Degradation is triggered by the
        // wall-clock refresh cadence, so it happens identically in both
        // environments — and the degraded pipeline is still FS: the
        // profiles must remain bit-identical even while degraded.
        let plan = FaultPlan::new(11).with(FaultKind::StretchRefresh { factor: 3 });
        let r = check_noninterference(DDR3, SchedulerKind::FsRankPartitioned, &plan, 1000, 5)
            .expect("stretch-refresh must degrade gracefully, not fail");
        assert!(
            r.is_non_interfering(),
            "degraded FS leaked: divergence {} cycles",
            r.max_divergence()
        );
    }

    #[test]
    fn faulted_probe_applies_the_plans_reconfiguration_events() {
        // A co-runner leaving mid-run must actually happen under a fault
        // plan, not just under the churn probe: FR-FCFS sees the flooder
        // go, while FS-RP's survivor profile stays bit-identical.
        let base = FaultPlan::new(11).with(FaultKind::StretchRefresh { factor: 3 });
        let leave = base.clone().with(FaultKind::DomainLeave { domain: 1, at: 800 });
        let co = CoRunners::MemoryIntensive;
        let profile = |kind, plan: &FaultPlan| {
            execution_profile(DDR3, kind, co, plan, 2000, 10).expect("faulted probe must run")
        };
        let (kind, other) = (SchedulerKind::Baseline, SchedulerKind::FsRankPartitioned);
        assert!(
            !profile(kind, &base).identical(&profile(kind, &leave)),
            "baseline attacker did not see the co-runner leave"
        );
        assert!(
            profile(other, &base).identical(&profile(other, &leave)),
            "FS-RP attacker saw the co-runner leave"
        );
    }

    #[test]
    fn fs_survivor_profile_is_churn_independent() {
        let r = check_churn_noninterference(DDR3, SchedulerKind::FsRankPartitioned, 800, 1000, 5)
            .expect("churn must reconfigure cleanly under FS");
        assert!(
            r.is_non_interfering(),
            "FS survivor diverged under {:?}: {} cycles",
            r.divergent_envs(),
            r.max_divergence()
        );
    }

    #[test]
    fn baseline_survivor_profile_leaks_churn() {
        // The negative control that keeps the FS test honest: under
        // FR-FCFS the same probe sees co-domain churn, because a flooder
        // leaving (or being absent until it joins) frees real bandwidth.
        let r = check_churn_noninterference(DDR3, SchedulerKind::Baseline, 800, 2000, 10)
            .expect("baseline churn runs must complete");
        assert!(!r.is_non_interfering(), "baseline unexpectedly churn-independent");
    }

    #[test]
    fn baseline_leaks_co_runner_intensity() {
        let r = check(SchedulerKind::Baseline, 2000, 10);
        assert!(!r.is_non_interfering(), "baseline unexpectedly non-interfering");
        // The divergence is large: flooding co-runners slow the attacker
        // substantially (the visible gap of Figure 4).
        assert!(r.max_divergence() > 1000, "divergence only {}", r.max_divergence());
        assert!(r.idle_profile.final_slowdown(&r.intensive_profile) > 1.2);
    }
}
