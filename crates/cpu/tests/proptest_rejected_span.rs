//! Property test of the refused-offer crossing: a core whose last offer
//! was refused, carried over `from..to` with `OooCore::skip_rejected`,
//! must be indistinguishable from the same core stepped one CPU cycle at
//! a time against a memory system that refuses every offer, and both
//! must then run the same 200 cycles against a memory system that
//! answers. A refused offer leaves the ROB at most one short of full
//! (it had room for the offer), so the shapes covered are: one short of
//! full, partial, a read waiting at the head through the whole span,
//! and a head that retires mid-span.

use fsmc_cpu::trace::{MemOp, TraceOp, VecTrace};
use fsmc_cpu::{CoreConfig, OooCore, SubmitResult};
use proptest::prelude::*;
use proptest::TestRng;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A memory system that answers as a pure function of (seed, cycle,
/// tag), so both cores get the same answers for the same offers: three
/// offers in eight are refused. Reads complete after
/// 1..=`max_latency` cycles; one in 16 never completes, leaving a read
/// at the ROB head for good.
#[derive(Clone)]
struct Memory {
    seed: u64,
    max_latency: u64,
    /// `(due cycle, tag)` of accepted reads.
    due: Vec<(u64, u64)>,
}

impl Memory {
    fn offer(&mut self, now: u64, op: MemOp, tag: u64) -> SubmitResult {
        let h = mix(self.seed ^ mix(now.wrapping_mul(0x9e37_79b9) ^ tag));
        match h % 8 {
            0..=2 => SubmitResult::Rejected,
            3 => SubmitResult::Hit,
            _ => {
                if !op.is_write && !(h >> 8).is_multiple_of(16) {
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
}

fn trace_op() -> impl Strategy<Value = TraceOp> {
    (0u8..3, 0u32..100, 0u64..6).prop_map(|(kind, nonmem, addr)| match kind {
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

/// What the ROB looked like over one checked span.
#[derive(Debug, Default, Clone, Copy)]
struct Shapes {
    one_short: bool,
    partial: bool,
    waiting_head: bool,
    mid_span_retire: bool,
}

/// One case: runs both cores in lockstep for `warmup` cycles, then
/// until the last offer was refused, then carries one across `span`
/// refused cycles in bulk while stepping the other, then steps both
/// for 200 cycles. Returns the shape of the span, or `None` when no
/// offer was refused within 5,000 cycles.
fn check_case(
    cfg: CoreConfig,
    ops: &[TraceOp],
    seed: u64,
    max_latency: u64,
    warmup: u64,
    span: u64,
) -> Option<Shapes> {
    let mk = || OooCore::new(cfg, Box::new(VecTrace::new(ops.to_vec())));
    let (mut stepped, mut spanned) = (mk(), mk());
    let mut mem_a = Memory { seed, max_latency, due: Vec::new() };
    let mut mem_b = mem_a.clone();
    let mut now = 0u64;
    let lockstep =
        |now: u64, a: &mut OooCore, b: &mut OooCore, ma: &mut Memory, mb: &mut Memory| {
            let delivered = ma.deliver(now, a);
            assert_eq!(delivered, mb.deliver(now, b));
            if delivered {
                assert!(!a.rejected_offer(), "a completed tag must end the refusal");
            }
            a.cycle(now, |op, tag| ma.offer(now, op, tag));
            b.cycle(now, |op, tag| mb.offer(now, op, tag));
            assert_eq!(a.stats(), b.stats(), "cycle {now}");
        };
    while now < warmup || !stepped.rejected_offer() {
        if now >= warmup + 5_000 {
            return None;
        }
        lockstep(now, &mut stepped, &mut spanned, &mut mem_a, &mut mem_b);
        now += 1;
    }
    assert!(spanned.rejected_offer());
    let occupancy = stepped.rob_occupancy();
    assert!(occupancy < cfg.rob_size, "a refused offer had room in the ROB");
    let retired_at_start = stepped.stats().instructions_retired;
    let mut retired_after_first = retired_at_start;
    let (from, to) = (now, now + span);
    for t in from..to {
        assert!(stepped.rejected_offer(), "cycle {t}: the refusal must last the span");
        stepped.cycle(t, |_, _| SubmitResult::Rejected);
        if t == from {
            retired_after_first = stepped.stats().instructions_retired;
        }
    }
    spanned.skip_rejected(from, to);
    assert_eq!(stepped.stats(), spanned.stats(), "span {from}..{to}");
    assert_eq!(stepped.idle_until(), spanned.idle_until(), "span {from}..{to}");
    assert_eq!(stepped.rob_occupancy(), spanned.rob_occupancy());
    assert_eq!(stepped.rejected_offer(), spanned.rejected_offer());
    let retired = stepped.stats().instructions_retired - retired_at_start;
    let shapes = Shapes {
        one_short: occupancy + 1 == cfg.rob_size,
        partial: occupancy > 0 && occupancy + 1 < cfg.rob_size,
        // A ready instruction retires within `pipeline_depth` cycles of
        // its fetch, so a long span that retires nothing from a
        // non-empty ROB has a read waiting at its head.
        waiting_head: occupancy > 0 && retired == 0 && span > cfg.pipeline_depth as u64 + 1,
        mid_span_retire: stepped.stats().instructions_retired > retired_after_first,
    };
    now = to;
    for _ in 0..200 {
        lockstep(now, &mut stepped, &mut spanned, &mut mem_a, &mut mem_b);
        assert_eq!(stepped.idle_until(), spanned.idle_until(), "cycle {now}");
        now += 1;
    }
    assert_eq!(format!("{stepped:?}"), format!("{spanned:?}"));
    Some(shapes)
}

#[test]
fn refused_spans_match_per_cycle_stepping() {
    const CASES: u32 = 192;
    let mut rng = TestRng::deterministic("refused_spans_match_per_cycle_stepping");
    let mut seen = Shapes::default();
    let mut refused = 0;
    for case in 1..=CASES {
        let cfg = core_config().generate(&mut rng);
        let ops = prop::collection::vec(trace_op(), 1..12).generate(&mut rng);
        let seed = (0u64..u64::MAX).generate(&mut rng);
        let max_latency = (1u64..400).generate(&mut rng);
        let warmup = (0u64..400).generate(&mut rng);
        let span = (1u64..300).generate(&mut rng);
        let run = || check_case(cfg, &ops, seed, max_latency, warmup, span);
        match std::panic::catch_unwind(run) {
            Ok(Some(s)) => {
                refused += 1;
                seen.one_short |= s.one_short;
                seen.partial |= s.partial;
                seen.waiting_head |= s.waiting_head;
                seen.mid_span_retire |= s.mid_span_retire;
            }
            Ok(None) => {}
            Err(_) => panic!("case {case}/{CASES} failed (deterministic; re-run reproduces it)"),
        }
    }
    assert!(refused > CASES / 2, "only {refused} of {CASES} cases reached a refusal");
    assert!(
        seen.one_short && seen.partial && seen.waiting_head && seen.mid_span_retire,
        "shapes not all covered: {seen:?}"
    );
}

#[test]
fn a_completed_tag_ends_the_refusal() {
    let trace = VecTrace::new(vec![
        TraceOp::with_mem(0, MemOp::read(1)),
        TraceOp::with_mem(0, MemOp::read(2)),
    ]);
    let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
    core.cycle(0, |_, tag| SubmitResult::Accepted { tag });
    assert!(!core.rejected_offer(), "accepted offers are not refusals");
    core.cycle(1, |_, _| SubmitResult::Rejected);
    assert!(core.rejected_offer());
    core.complete_read(0);
    assert!(!core.rejected_offer(), "an undrained completion ends the refusal");
    core.cycle(2, |_, _| SubmitResult::Rejected);
    assert!(core.rejected_offer(), "drained, and refused again");
    core.clear_rejected();
    assert!(!core.rejected_offer(), "a cleared refusal must be offered again");
    core.cycle(3, |_, _| SubmitResult::Hit);
    assert!(!core.rejected_offer(), "a hit ends the refusal");
}
