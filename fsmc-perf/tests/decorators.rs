//! The decorators must be invisible to the simulation: the same job run
//! through them, directly, and on the engine path gives the same result,
//! for one job per scheduler family.

use fsmc::core::sched::SchedulerKind;
use fsmc::sim::ExperimentJob;
use fsmc::workload::{BenchProfile, WorkloadMix};
use fsmc_perf::decor::{fingerprint, run_direct, run_traced};

fn check(job: ExperimentJob) -> fsmc_perf::decor::Counts {
    let engine = job.run().expect("engine run");
    let (direct, _) = run_direct(&job, false).expect("direct run");
    let traced = run_traced(&job).expect("traced run");
    assert_eq!(fingerprint(&traced.result), fingerprint(&engine), "{:?}", job.scheduler);
    assert_eq!(fingerprint(&direct), fingerprint(&engine), "{:?}", job.scheduler);
    assert!(traced.counts.tick.0 > 0 && traced.counts.next_op.0 > 0);
    traced.counts
}

#[test]
fn decorated_runs_match_undecorated_for_every_family() {
    let mix = WorkloadMix::mix1();
    for kind in [
        SchedulerKind::Baseline,
        SchedulerKind::TpBankPartitioned { turn: 60 },
        SchedulerKind::TpFence { period: 300 },
        SchedulerKind::FsReorderedBankPartitioned,
        SchedulerKind::ChannelPartitioned,
    ] {
        check(ExperimentJob::new(mix.clone(), kind, 20_000, 3));
    }
}

#[test]
fn fs_job_takes_fast_forward_through_the_decorator() {
    // A lightly loaded FS-NP system idles between slots: the engine
    // hands those spans to `fast_forward`, which must reach the wrapped
    // controller rather than the trait's declining default.
    let mix = WorkloadMix::rate(BenchProfile::zeusmp(), 8);
    let counts = check(ExperimentJob::new(mix, SchedulerKind::FsNoPartitionNaive, 20_000, 5));
    assert!(counts.fast_forward_accepts > 0, "no fast_forward accepted: {counts:?}");
    assert!(counts.fast_forward_cycles > 0);
}

#[test]
fn metrics_jobs_match_too() {
    let job = ExperimentJob::new(WorkloadMix::mix2(), SchedulerKind::FsRankPartitioned, 10_000, 9)
        .with_metrics();
    check(job);
}
