//! A cloud-consolidation scenario: four tenants with different memory
//! personalities share one secure channel under rank partitioning, and
//! each gets a hard, interference-free service guarantee.
//!
//! Run with: `cargo run --release --example cloud_consolidation`

use fsmc::core::sched::fs::{EnergyOptions, FsScheduler};
use fsmc::core::sched::SchedulerKind;
use fsmc::sim::{System, SystemConfig};
use fsmc::workload::{BenchProfile, WorkloadMix};

fn main() {
    // Tenants: a database (mcf-like), an analytics job (milc), a web tier
    // (xalancbmk-like) and a batch job (lbm), two vCPUs each.
    let tenants = [
        ("database", BenchProfile::mcf()),
        ("analytics", BenchProfile::milc()),
        ("web", BenchProfile::xalancbmk()),
        ("batch", BenchProfile::lbm()),
    ];
    let mut profiles = Vec::new();
    for (_, p) in &tenants {
        profiles.push(*p);
        profiles.push(*p);
    }
    let mix = WorkloadMix { name: "cloud", profiles };

    let mut cfg = SystemConfig::paper_default(SchedulerKind::FsRankPartitioned);
    cfg.energy_options = EnergyOptions::all(); // idle ranks power down

    // The SLA: the database tenant pays for double memory bandwidth —
    // two issue slots per interval for each of its vCPUs (Section 5.1).
    let weights = [2u8, 2, 1, 1, 1, 1, 1, 1];
    let controller = Box::new(
        FsScheduler::try_new(
            cfg.geometry,
            cfg.timing,
            &weights,
            SchedulerKind::FsRankPartitioned,
            cfg.energy_options,
        )
        .expect("the SLA solves on the paper's DDR3-1600 part"),
    );
    let traces: Vec<Box<dyn fsmc::cpu::trace::TraceSource>> = mix
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(fsmc::workload::SyntheticTrace::new(*p, 2026 + i as u64))
                as Box<dyn fsmc::cpu::trace::TraceSource>
        })
        .collect();
    let mut sys = System::with_controller(&cfg, traces, controller);
    let stats = sys.run_cycles(60_000);

    println!("Secure consolidation: 8 vCPUs, 8 ranks, FS rank partitioning");
    println!("SLA slot weights {weights:?} — the database tenant gets 2x bandwidth.\n");
    println!("{:<12} {:>8} {:>12} {:>12} {:>10}", "tenant", "vCPU", "IPC", "avg lat", "dummies");
    for (i, core) in stats.cores.iter().enumerate() {
        let (name, _) = tenants[i / 2];
        let d = &stats.mc.domains()[i];
        println!(
            "{:<12} {:>8} {:>12.3} {:>9.0} cy {:>10}",
            name,
            i,
            core.ipc(),
            d.avg_read_latency(),
            d.dummies
        );
    }
    println!("\nPower-downs taken on idle ranks: {}", stats.mc.power_downs);
    println!("Memory energy: {:.2} mJ", stats.energy.total_mj());
    println!("\nThe web tier's latency is low and *constant* regardless of what the");
    println!("database tenant does — the SLA is enforced by the pipeline itself, and");
    println!("no tenant can sense another's load (see the side_channel example).");
}
