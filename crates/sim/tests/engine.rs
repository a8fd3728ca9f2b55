//! Engine determinism and failure isolation: the contract that lets the
//! figure binaries run on a thread pool without changing a single byte
//! of output.

use fsmc_core::sched::SchedulerKind as K;
use fsmc_sim::faults::{FaultKind, FaultPlan, TimingField};
use fsmc_sim::{Engine, ExperimentJob, ExperimentPlan, FsmcError, SystemConfig};
use fsmc_workload::{BenchProfile, WorkloadMix};

const CYCLES: u64 = 4_000;

fn small_plan() -> ExperimentPlan {
    let mixes = [WorkloadMix::mix1(), WorkloadMix::mix2()];
    let kinds = [K::Baseline, K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }];
    ExperimentPlan::grid(&mixes, &kinds, CYCLES, 7)
}

/// An infeasible configuration: tRTRS inflated so far past the pitch
/// that the rank-partitioned pipeline has no solution.
fn infeasible() -> FaultPlan {
    FaultPlan::new(5).with(FaultKind::PerturbTiming { field: TimingField::TRtrs, delta: 600 })
}

#[test]
fn thread_count_does_not_change_results() {
    let plan = small_plan();
    let serial = Engine::with_threads(1).run(&plan);
    let parallel = Engine::with_threads(8).run(&plan);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let s = s.as_ref().expect("small plan is feasible");
        let p = p.as_ref().expect("small plan is feasible");
        assert_eq!(s.stats.ipcs(), p.stats.ipcs(), "slot {i} diverged across thread counts");
        assert_eq!(
            s.stats.reads_completed, p.stats.reads_completed,
            "slot {i} diverged across thread counts"
        );
    }
}

#[test]
fn results_land_in_declaration_order() {
    let mixes = [WorkloadMix::mix1(), WorkloadMix::mix2()];
    let kinds = [K::Baseline, K::FsRankPartitioned];
    let plan = ExperimentPlan::grid(&mixes, &kinds, CYCLES, 7);
    let runs = Engine::with_threads(4).run(&plan);
    // Slot i must hold the result of job i: re-run each job serially and
    // compare against the slot the engine filled.
    for (i, job) in plan.jobs().iter().enumerate() {
        let solo = job.run().expect("feasible");
        let slot = runs[i].as_ref().expect("feasible");
        assert_eq!(solo.stats.ipcs(), slot.stats.ipcs(), "slot {i} out of order");
    }
}

#[test]
fn one_infeasible_job_does_not_poison_the_plan() {
    let mut plan = ExperimentPlan::new();
    plan.push(ExperimentJob::new(WorkloadMix::mix1(), K::FsRankPartitioned, CYCLES, 7));
    plan.push(
        ExperimentJob::new(WorkloadMix::mix1(), K::FsRankPartitioned, CYCLES, 7)
            .with_faults(infeasible()),
    );
    // A config demanding more cores than the mix supplies traces for.
    plan.push(
        ExperimentJob::new(
            WorkloadMix::rate(BenchProfile::mcf(), 4),
            K::FsRankPartitioned,
            CYCLES,
            7,
        )
        .with_config(SystemConfig::with_cores(K::FsRankPartitioned, 6)),
    );
    plan.push(ExperimentJob::new(WorkloadMix::mix2(), K::Baseline, CYCLES, 7));
    let runs = Engine::with_threads(2).run(&plan);
    assert!(runs[0].is_ok(), "healthy job failed: {:?}", runs[0].as_ref().err());
    assert!(
        matches!(runs[1], Err(FsmcError::Solve(_))),
        "infeasible job should fail with a solve error, got {:?}",
        runs[1].as_ref().map(|_| ())
    );
    assert!(
        matches!(runs[2], Err(FsmcError::Config(_))),
        "core/trace mismatch should fail with a config error, got {:?}",
        runs[2].as_ref().map(|_| ())
    );
    assert!(runs[3].is_ok(), "healthy job failed: {:?}", runs[3].as_ref().err());
}

#[test]
fn engine_map_preserves_input_order() {
    let items: Vec<u64> = (0..23).collect();
    let out = Engine::with_threads(5).map(&items, |i, &x| (i, x * x));
    for (i, &(slot, sq)) in out.iter().enumerate() {
        assert_eq!(slot, i);
        assert_eq!(sq, (i as u64) * (i as u64));
    }
}
