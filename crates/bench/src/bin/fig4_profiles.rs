//! Figure 4: execution profiles for mcf under the baseline and FS, with
//! idle or memory-intensive co-runners. The two FS curves must overlap
//! exactly — zero information leakage. The four profile simulations run
//! concurrently on the experiment engine.

use fsmc_core::sched::SchedulerKind as K;
use fsmc_dram::DeviceGeneration;
use fsmc_security::noninterference::{execution_profile, CoRunners};
use fsmc_sim::env::env_u64;
use fsmc_sim::{Engine, FaultPlan};
use std::process::ExitCode;

fn main() -> ExitCode {
    let bucket = env_u64("FSMC_BUCKET", 10_000);
    let buckets = env_u64("FSMC_BUCKETS", 20) as usize;
    println!("Figure 4: time (CPU cycles) to complete each {bucket}-instruction block for mcf\n");
    let cases = [
        (K::Baseline, CoRunners::Idle),
        (K::Baseline, CoRunners::MemoryIntensive),
        (K::FsRankPartitioned, CoRunners::Idle),
        (K::FsRankPartitioned, CoRunners::MemoryIntensive),
    ];
    let profiles = Engine::from_env().map(&cases, |_, &(kind, co)| {
        let plan = FaultPlan::default();
        execution_profile(DeviceGeneration::Ddr3_1600, kind, co, &plan, bucket, buckets)
    });
    let profiles = match profiles.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: profile run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let [base_idle, base_mem, fs_idle, fs_mem] = &profiles[..] else {
        unreachable!("map preserves slot count")
    };
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "block", "base+idle", "base+intensive", "FS+idle", "FS+intensive"
    );
    for i in 0..buckets {
        println!(
            "{:>6} {:>14} {:>14} {:>14} {:>14}",
            (i + 1),
            base_idle.boundaries.get(i).copied().unwrap_or(0),
            base_mem.boundaries.get(i).copied().unwrap_or(0),
            fs_idle.boundaries.get(i).copied().unwrap_or(0),
            fs_mem.boundaries.get(i).copied().unwrap_or(0),
        );
    }
    let div_base = base_idle.max_divergence(base_mem);
    let div_fs = fs_idle.max_divergence(fs_mem);
    println!("\nBaseline divergence between environments: {div_base} CPU cycles (leaks)");
    println!("FS divergence between environments:       {div_fs} CPU cycles");
    if div_fs != 0 {
        eprintln!("error: FS must be perfectly non-interfering, diverged by {div_fs} cycles");
        return ExitCode::FAILURE;
    }
    println!("FS curves overlap perfectly: zero information leakage, as proved in Sec. 3.");
    ExitCode::SUCCESS
}
