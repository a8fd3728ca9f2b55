//! Host-speed scaling for the CPU-bound workloads.
//!
//! On a shared host the same simulation can take 1.5x longer from one
//! minute to the next, and host CPU time moves with wall time, so
//! neither measures the code alone. Each thread of a CPU-bound run
//! therefore also times a fixed probe, a toy FR-FCFS loop (a 32-entry
//! queue scanned every cycle for the oldest row hit over 16 banks) whose
//! code resembles the simulator's hot loop. A host time is multiplied by
//! `REFERENCE_S / (probe time)`: the host time at the speed the
//! reference box (2 vCPU) has when quiet. The probe belongs to this
//! benchmark, not to `fsmc`, so no change to `fsmc` can move it.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cycles of the probe loop; one probe takes about 0.8 ms.
const PROBE_CYCLES: u64 = 1 << 15;
/// Median probe time on the reference box when quiet.
const REFERENCE_S: f64 = 0.8e-3;
/// Minimum time between two probes on one thread in [`job_factor`].
const PROBE_EVERY: Duration = Duration::from_millis(50);

thread_local! {
    /// When this thread last probed, and what the probe took.
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

fn probe_loop() -> u64 {
    let mut x: u64 = 99;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut open = [u32::MAX; 16];
    let mut busy = [0u64; 16];
    let mut queue: Vec<(usize, u32)> = Vec::with_capacity(32);
    let mut served = 0u64;
    for now in 0..PROBE_CYCLES {
        if queue.len() < 32 && next() % 3 == 0 {
            let r = next();
            queue.push(((r & 15) as usize, ((r >> 8) % 64) as u32));
        }
        let mut pick = None;
        for (i, &(bank, row)) in queue.iter().enumerate() {
            if busy[bank] > now {
                continue;
            }
            if open[bank] == row {
                pick = Some(i);
                break;
            }
            pick = pick.or(Some(i));
        }
        if let Some(i) = pick {
            let (bank, row) = queue.remove(i);
            busy[bank] = now + if open[bank] == row { 4 } else { 28 };
            open[bank] = row;
            served += 1;
        }
    }
    served
}

/// Times one probe on this thread and returns its scale factor.
fn probe() -> f64 {
    let t = Instant::now();
    black_box(probe_loop());
    let s = t.elapsed().as_secs_f64();
    LAST.with(|c| c.set(Some((Instant::now(), s))));
    REFERENCE_S / s
}

/// This thread's current scale factor, probing first unless it probed
/// within the last [`PROBE_EVERY`]: for jobs, which last tens of ms.
pub fn job_factor() -> f64 {
    match LAST.with(Cell::get) {
        Some((at, s)) if at.elapsed() < PROBE_EVERY => REFERENCE_S / s,
        _ => probe(),
    }
}

/// Runs `f` between two probes on this thread; returns its result and
/// its host seconds scaled by the mean of the two factors. For phases of
/// a millisecond or less, whose speed a probe taken earlier does not
/// track.
pub fn scaled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs * (before + probe()) / 2.0)
}
