//! Property test of the compute-span fast path: a core advanced with
//! `OooCore::advance_compute` up to its `compute_floor` must be
//! indistinguishable from the same core stepped one CPU cycle at a time,
//! and a stepped core must never read its trace or offer a memory
//! operation before a floor it reported.

use fsmc_cpu::trace::{MemOp, TraceOp, TraceSource, VecTrace};
use fsmc_cpu::{CoreConfig, OooCore, SubmitResult};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts `next_op` calls of the wrapped trace.
struct CountingTrace {
    inner: VecTrace,
    reads: Arc<AtomicU64>,
}

impl TraceSource for CountingTrace {
    fn next_op(&mut self) -> TraceOp {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.next_op()
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A memory system that answers as a pure function of (seed, cycle,
/// tag), so both cores get the same answers for the same offers. Reads
/// complete after 1..=`max_latency` cycles; one in 32 never completes,
/// leaving a read at the ROB head for good.
#[derive(Clone)]
struct Memory {
    seed: u64,
    max_latency: u64,
    /// `(due cycle, tag)` of accepted reads.
    due: Vec<(u64, u64)>,
    offers: Vec<(u64, MemOp, u64)>,
}

impl Memory {
    fn offer(&mut self, now: u64, op: MemOp, tag: u64) -> SubmitResult {
        self.offers.push((now, op, tag));
        let h = mix(self.seed ^ mix(now.wrapping_mul(0x9e37_79b9) ^ tag));
        match h % 8 {
            0 | 1 => SubmitResult::Rejected,
            2 => SubmitResult::Hit,
            _ => {
                if !op.is_write && !(h >> 8).is_multiple_of(32) {
                    self.due.push((now + 1 + (h >> 16) % self.max_latency, tag));
                }
                SubmitResult::Accepted { tag }
            }
        }
    }

    /// Hands every completion due by `now` to `core`; reports whether
    /// any was delivered.
    fn deliver(&mut self, now: u64, core: &mut OooCore) -> bool {
        let before = self.due.len();
        self.due.retain(|&(at, tag)| {
            if at <= now {
                core.complete_read(tag);
            }
            at > now
        });
        self.due.len() != before
    }

    fn next_due(&self) -> u64 {
        self.due.iter().map(|&(at, _)| at).min().unwrap_or(u64::MAX)
    }
}

fn trace_op() -> impl Strategy<Value = TraceOp> {
    (0u32..60, 0u8..4, 0u64..6).prop_map(|(nonmem, kind, addr)| match kind {
        0 => TraceOp::compute(nonmem),
        1 => TraceOp::with_mem(nonmem, MemOp::write(addr)),
        _ => TraceOp::with_mem(nonmem, MemOp::read(addr)),
    })
}

fn core_config() -> impl Strategy<Value = CoreConfig> {
    (1usize..96, 1u32..7, 0u32..40).prop_map(|(rob_size, width, pipeline_depth)| CoreConfig {
        rob_size,
        width,
        pipeline_depth,
    })
}

fn core(cfg: CoreConfig, ops: &[TraceOp]) -> (OooCore, Arc<AtomicU64>) {
    let reads = Arc::new(AtomicU64::new(0));
    let trace = CountingTrace { inner: VecTrace::new(ops.to_vec()), reads: reads.clone() };
    (OooCore::new(cfg, Box::new(trace)), reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compute_spans_match_per_cycle_stepping(
        cfg in core_config(),
        ops in prop::collection::vec(trace_op(), 1..12),
        seed in 0u64..u64::MAX,
        max_latency in 1u64..400,
        skips in prop::collection::vec(0u64..1000, 64),
    ) {
        let (mut stepped, stepped_reads) = core(cfg, &ops);
        let (mut spanned, spanned_reads) = core(cfg, &ops);
        let mut mem_a = Memory { seed, max_latency, due: Vec::new(), offers: Vec::new() };
        let mut mem_b = mem_a.clone();
        // Largest compute floor the stepped core has reported so far.
        let mut guard = 0u64;
        let (mut floors, mut spans) = (0usize, 0usize);
        let mut now = 0u64;
        while now < 3_000 {
            let delivered = mem_a.deliver(now, &mut stepped);
            prop_assert_eq!(delivered, mem_b.deliver(now, &mut spanned));
            let floor = stepped.compute_floor(now);
            prop_assert_eq!(floor, spanned.compute_floor(now));
            if let Some(f) = floor {
                prop_assert!(!delivered, "a pending completion must withhold the floor");
                prop_assert!(f > now);
                guard = guard.max(f);
            }
            // Take a span when the floor allows one, ending at a random
            // cycle no later than the floor or the next completion.
            let choice = skips[floors % skips.len()];
            floors += floor.is_some() as usize;
            if let Some(f) = floor.filter(|_| choice % 4 != 0) {
                let end = (now + 1 + choice % (f - now)).min(mem_b.next_due()).max(now + 1);
                let reads = spanned_reads.load(Ordering::Relaxed);
                spanned.advance_compute(now, end);
                prop_assert_eq!(spanned_reads.load(Ordering::Relaxed), reads);
                for t in now..end {
                    if t > now {
                        prop_assert!(!mem_a.deliver(t, &mut stepped));
                    }
                    stepped.cycle(t, |_, _| panic!("offer at {t} before compute floor {guard}"));
                }
                spans += 1;
                now = end;
            } else {
                let reads = stepped_reads.load(Ordering::Relaxed);
                stepped.cycle(now, |op, tag| {
                    assert!(now >= guard, "offer at {now} before compute floor {guard}");
                    mem_a.offer(now, op, tag)
                });
                if stepped_reads.load(Ordering::Relaxed) != reads {
                    prop_assert!(now >= guard, "trace read at {} before floor {}", now, guard);
                }
                spanned.cycle(now, |op, tag| mem_b.offer(now, op, tag));
                now += 1;
            }
            prop_assert_eq!(stepped.stats(), spanned.stats(), "cycle {}", now);
            prop_assert_eq!(stepped.idle_until(), spanned.idle_until(), "cycle {}", now);
            prop_assert_eq!(stepped_reads.load(Ordering::Relaxed), spanned_reads.load(Ordering::Relaxed));
        }
        prop_assert!(spans > 0 || floors == 0, "no span taken");
        prop_assert_eq!(&mem_a.offers, &mem_b.offers);
        prop_assert_eq!(format!("{stepped:?}"), format!("{spanned:?}"));
    }
}
