//! Chaos campaign over the FS schedulers: seeded fault populations,
//! outcome classification, fault shrinking, and non-interference under
//! fault.
//!
//! For each scheduler, a deterministic population of random fault plans
//! runs against a fault-free reference with the online invariant monitor
//! armed; every failing plan (violation / stall / diverged) is shrunk to
//! a 1-minimal fault set and printed with a standalone repro command.
//! Plans the system absorbs by graceful degradation are then re-checked
//! for the paper's core guarantee: the attacker's execution profile must
//! stay **bit-identical** across co-runner environments even while the
//! controller runs degraded.
//!
//! Knobs: `FSMC_CHAOS_SEED` (population seed, default 1),
//! `FSMC_CHAOS_POPULATION` (plans per scheduler, default 12),
//! `FSMC_CHAOS_CHURN=1` (add persistent-fault and domain join/leave
//! kinds to the pool, enabling the `reconfigured` / `reconfig-leak`
//! outcomes), `FSMC_DEVICE` (device generation under chaos, default
//! ddr3-1600 — the nightly soak sweeps all four), `FSMC_CYCLES`
//! (default 8 000 for this binary), `FSMC_SEED` (workload seed),
//! `FSMC_THREADS`. Output is byte-identical at any thread count.

use fsmc_bench::{save_result_or_warn, seed};
use fsmc_core::sched::SchedulerKind;
use fsmc_dram::DeviceGeneration;
use fsmc_security::check_noninterference;
use fsmc_sim::env::{env_flag, env_u64};
use fsmc_sim::{run_campaign, CampaignConfig, Engine, Outcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let engine = Engine::from_env();
    let population = env_u64("FSMC_CHAOS_POPULATION", 12) as usize;
    let cycles = fsmc_sim::env::cycles(8_000);
    let master = env_u64("FSMC_CHAOS_SEED", 1);
    let device = fsmc_sim::env::device(DeviceGeneration::Ddr3_1600);
    println!("device: {device}\n");
    let mut csv = String::from("device,scheduler,case,outcome,fault_seed,faults,shrunk\n");
    let mut ok = true;
    for kind in [SchedulerKind::FsRankPartitioned, SchedulerKind::FsNoPartitionNaive] {
        let mut cfg = CampaignConfig::new(master);
        cfg.population = population;
        cfg.cycles = cycles;
        cfg.run_seed = seed();
        cfg.scheduler = kind;
        cfg.device = device;
        cfg.churn = env_flag("FSMC_CHAOS_CHURN", false);
        let report = match run_campaign(&engine, &cfg) {
            Ok(r) => r,
            Err(e) => {
                println!("{kind}: reference run failed: {e}\n");
                ok = false;
                continue;
            }
        };
        print!("{}", report.render());
        for case in &report.cases {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                device,
                kind.label(),
                case.index,
                case.outcome,
                case.plan.seed,
                case.plan.spec(),
                case.shrunk.as_ref().map(|p| p.spec()).unwrap_or_default()
            ));
        }
        // Security under fault: non-interference must survive every plan
        // the system degrades gracefully on (probe a bounded sample).
        for case in report.cases.iter().filter(|c| c.outcome == Outcome::GracefulDegrade).take(3) {
            match check_noninterference(device, kind, &case.plan, 800, 5) {
                Ok(r) if r.is_non_interfering() => println!(
                    "case {:>3}  non-interference holds under '{}'",
                    case.index,
                    case.plan.spec()
                ),
                Ok(r) => {
                    ok = false;
                    println!(
                        "case {:>3}  LEAK under '{}': divergence {} CPU cycles",
                        case.index,
                        case.plan.spec(),
                        r.max_divergence()
                    );
                }
                // The probe's 8-core harness can fail on a plan the
                // 4-core campaign absorbed (e.g. a stall); that is a
                // reported outcome, not a leak.
                Err(e) => {
                    println!("case {:>3}  non-interference probe aborted: {e}", case.index)
                }
            }
        }
        println!();
    }
    save_result_or_warn("chaos_campaign.csv", &csv);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
