//! Hot-path benchmarks: event-driven fast path vs forced per-cycle
//! stepping on four representative scenarios (idle-heavy FS-NP, FS-RP
//! and TP-BP on the mixed workloads, and saturated FR-FCFS). End-to-end
//! performance is measured by `fsmc-perf` (`bash fsmc-perf/run.sh`).
//!
//! Each scenario runs twice — once with the fast path armed and once
//! with [`System::disable_fastpath`] — so a Criterion report shows the
//! time-skipping speedup directly. `next_event` is also benchmarked in
//! isolation: it is the fast path's marginal cost (the per-cycle path
//! never calls it).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fsmc_core::sched::SchedulerKind as K;
use fsmc_dram::geometry::{BankId, ColId, RankId, RowId};
use fsmc_dram::{Command, DramDevice, Geometry, TimingParams};
use fsmc_sim::{System, SystemConfig};
use fsmc_workload::{BenchProfile, WorkloadMix};

const CYCLES: u64 = 5_000;

fn scenarios() -> Vec<(&'static str, K, WorkloadMix)> {
    vec![
        ("fs-np-idle-heavy", K::FsNoPartitionNaive, WorkloadMix::rate(BenchProfile::mcf(), 8)),
        ("fs-rp-mix1", K::FsRankPartitioned, WorkloadMix::mix1_for(8)),
        ("baseline-memory-intensive", K::Baseline, WorkloadMix::rate(BenchProfile::mcf(), 8)),
        ("tp-bp-mix2", K::TpBankPartitioned { turn: 60 }, WorkloadMix::mix2_for(8)),
    ]
}

fn bench_fast_vs_percycle(c: &mut Criterion) {
    for (name, kind, mix) in scenarios() {
        for fast in [true, false] {
            let path = if fast { "fastpath" } else { "per-cycle" };
            let mix = mix.clone();
            c.bench_function(&format!("hot_path/{name}/{path}"), |b| {
                b.iter(|| {
                    let cfg = SystemConfig::with_cores(kind, mix.cores() as u8);
                    let mut sys = System::from_mix(&cfg, &mix, 42);
                    if !fast {
                        sys.disable_fastpath();
                    }
                    black_box(sys.run_cycles(CYCLES))
                })
            });
        }
    }
}

fn bench_next_event(c: &mut Criterion) {
    for (name, kind, mix) in scenarios() {
        let cfg = SystemConfig::with_cores(kind, mix.cores() as u8);
        let mut sys = System::from_mix(&cfg, &mix, 42);
        // Warm the controller into a loaded steady state, then probe the
        // scan cost against that queue occupancy.
        sys.run_cycles(CYCLES);
        let now = sys.dram_cycle();
        c.bench_function(&format!("next_event/{name}"), |b| {
            b.iter(|| black_box(sys.controller().next_event(black_box(now))))
        });
    }
}

/// A device warmed into a loaded steady state — open rows on every
/// rank and in-flight read bursts — so the SoA probes below scan
/// realistic ready-cycle tables rather than the all-zero reset state.
fn warmed_device() -> (DramDevice, u64) {
    let mut dev = DramDevice::new(Geometry::paper_default(), TimingParams::ddr3_1600());
    let mut cycle = 0;
    // Each (rank, bank) pair is activated exactly once — a second ACT
    // on an open bank would be illegal for good.
    for i in 0..32u64 {
        let rank = RankId((i % 8) as u8);
        let bank = BankId((i / 8) as u8);
        let row = RowId((i % 512) as u32);
        let act = Command::activate(rank, bank, row);
        cycle = dev.earliest_issue(&act, cycle, 50_000).expect("warmup fits");
        dev.issue(&act, cycle).unwrap();
        let rd = Command::read(rank, bank, row, ColId(0));
        let at = dev.earliest_issue(&rd, cycle, 50_000).expect("warmup fits");
        dev.issue(&rd, at).unwrap();
    }
    (dev, cycle)
}

/// The two SoA hot paths in isolation: the flat-table event-bound scan
/// (the fast path's marginal cost per elided span) and a CAS apply
/// (the dominant mutation on saturated runs — rank/bank ready-cycle
/// stores plus the data-bus window push).
fn bench_soa_device(c: &mut Criterion) {
    let (dev, now) = warmed_device();
    // Per-rank masks `[read CAS, write CAS, PRE, ACT]` mirror what the
    // baseline scheduler builds: CAS and PRE bits on every open bank, ACT
    // bits on the closed ones. The bench evaluates every rank's floors
    // from scratch, as the scheduler does for a rank a command touched.
    let masks: Vec<[u128; 4]> = (0..dev.geometry().ranks_per_channel())
        .map(|r| {
            let (mut open, mut closed) = (0u128, 0u128);
            for b in 0..dev.geometry().banks_per_rank() {
                if dev.open_row(RankId(r), BankId(b)).is_some() {
                    open |= 1 << b;
                } else {
                    closed |= 1 << b;
                }
            }
            [open, open, open, closed]
        })
        .collect();
    let mut floors = vec![[0; 4]; masks.len()];
    c.bench_function("soa/next_event_bound", |b| {
        b.iter(|| {
            for (r, (f, m)) in floors.iter_mut().zip(&masks).enumerate() {
                *f = dev.rank_event_floors(RankId(r as u8), *m);
            }
            black_box(dev.next_event_bound(black_box(now), &floors))
        })
    });
    let target = RankId(1);
    let row = dev.open_row(target, BankId(0)).expect("warmup opened rank 1 bank 0");
    let cmd = Command::read(target, BankId(0), row, ColId(0));
    let at = dev.earliest_issue(&cmd, now, 500_000).expect("CAS issues");
    // `issue` mutates, so each sample replays onto a fresh copy; the
    // clone of the flat SoA tables is part of the measured cost (and a
    // useful canary against the state ever growing pointer-chasing
    // members again).
    c.bench_function("soa/cas_apply", |b| {
        b.iter(|| {
            let mut d = dev.clone();
            black_box(d.issue(&cmd, at).unwrap())
        })
    });
}

criterion_group!(benches, bench_fast_vs_percycle, bench_next_event, bench_soa_device);
criterion_main!(benches);
