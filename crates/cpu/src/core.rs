//! The out-of-order core model: ROB occupancy, fetch/retire width, posted
//! writes, reads blocking retirement.
//!
//! This is the USIMM timing model with the paper's Table-1 core
//! parameters: 64-entry ROB, 4-wide fetch/dispatch/retire, 3.2 GHz.
//! Memory reads occupy a ROB slot until their data returns from the
//! memory controller; writes retire through a posted write path and only
//! stall the core via controller back-pressure.

use crate::trace::{MemOp, TraceOp, TraceSource};
use std::collections::VecDeque;

/// Result of offering a memory operation to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// Accepted; the read will complete via [`OooCore::complete_read`]
    /// with this tag.
    Accepted { tag: u64 },
    /// Queue full: retry next cycle (core stalls).
    Rejected,
    /// Served without a memory transaction (prefetch-buffer or MSHR
    /// merge hit). Reads retire after the pipeline latency.
    Hit,
}

/// What the core can do before some external event, as classified by
/// [`OooCore::idle_until`] after a call to [`OooCore::cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdle {
    /// The next cycle performs real work (retire, fetch, or a memory
    /// submit) — it must be executed normally.
    Active,
    /// ROB full behind an outstanding read: every cycle until
    /// [`OooCore::complete_read`] is called is provably stall-only.
    BlockedOnMemory,
    /// ROB full behind a non-memory instruction: every CPU cycle strictly
    /// before this one is provably stall-only.
    WakeAt(u64),
}

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    pub rob_size: usize,
    /// Fetch/retire width per CPU cycle.
    pub width: u32,
    /// Pipeline depth: cycles from fetch to earliest retirement for
    /// non-memory instructions.
    pub pipeline_depth: u32,
}

impl CoreConfig {
    /// Table 1: 64-entry ROB, 4-wide.
    pub fn paper_default() -> Self {
        CoreConfig { rob_size: 64, width: 4, pipeline_depth: 10 }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_default()
    }
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    pub instructions_retired: u64,
    pub cpu_cycles: u64,
    pub reads_issued: u64,
    pub writes_issued: u64,
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per CPU cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions_retired as f64 / self.cpu_cycles as f64
        }
    }
}

/// A run of `count` consecutive ROB instructions with identical
/// retirement state. Same-cycle non-memory fetches share one run, so a
/// full 64-entry ROB in steady 4-wide compute is 16 runs, and a cycle
/// retires or fetches a whole run at once.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    /// CPU cycle at which the run may retire.
    retire_at: u64,
    /// For reads: the tag we are waiting on (`None` once data returned).
    /// A read is always a run of one.
    waiting_on: Option<u64>,
    count: u32,
}

/// A single out-of-order core consuming a trace.
pub struct OooCore {
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<RobEntry>,
    /// Instructions in the ROB: the sum of the runs' counts.
    rob_len: usize,
    /// Non-memory instructions still to fetch before the pending mem op.
    nonmem_left: u32,
    pending_mem: Option<MemOp>,
    completed_tags: Vec<u64>,
    next_tag: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("cfg", &self.cfg)
            .field("rob_occupancy", &self.rob_len)
            .field("stats", &self.stats)
            .finish()
    }
}

impl OooCore {
    pub fn new(cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        OooCore {
            cfg,
            trace,
            rob: VecDeque::with_capacity(cfg.rob_size),
            rob_len: 0,
            nonmem_left: 0,
            pending_mem: None,
            completed_tags: Vec::new(),
            next_tag: 0,
            stats: CoreStats::default(),
        }
    }

    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Data for the read tagged `tag` has arrived.
    pub fn complete_read(&mut self, tag: u64) {
        self.completed_tags.push(tag);
    }

    /// Classifies what the *next* cycles would do, so a simulator can
    /// skip provably stall-only spans in bulk via
    /// [`OooCore::skip_stalled`]. Sound only when queried after
    /// [`OooCore::cycle`] has run for the current cycle and no completion
    /// has been delivered since.
    ///
    /// A stall-only cycle touches exactly two stats (`cpu_cycles`,
    /// `stall_cycles`) and nothing else: that requires a full ROB (no
    /// fetch, so the trace is never consulted), no pending completions,
    /// and a head entry that cannot retire.
    pub fn idle_until(&self) -> CoreIdle {
        if !self.completed_tags.is_empty() || self.rob_len < self.cfg.rob_size {
            return CoreIdle::Active;
        }
        match self.rob.front() {
            Some(e) => match e.waiting_on {
                Some(_) => CoreIdle::BlockedOnMemory,
                None => CoreIdle::WakeAt(e.retire_at),
            },
            // Unreachable for rob_size > 0, but an empty ROB fetches.
            None => CoreIdle::Active,
        }
    }

    /// Accounts `skipped` stall-only CPU cycles in bulk, advancing the
    /// clock to `next_cpu_cycle` (the first cycle that will run normally
    /// again). Bit-identical to executing each skipped cycle, *provided*
    /// [`OooCore::idle_until`] proved the whole span stall-only.
    pub fn skip_stalled(&mut self, skipped: u64, next_cpu_cycle: u64) {
        self.stats.stall_cycles += skipped;
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(next_cpu_cycle);
    }

    /// A sound lower bound on the first CPU cycle, from `next_cpu` on,
    /// that can read the trace or offer a memory operation: every cycle
    /// fetches at most `width` of the `nonmem_left` non-memory
    /// instructions still ahead of the next memory operation or trace
    /// read. `None` when the bound would be `next_cpu` itself, or when a
    /// delivered completion has not been drained yet.
    ///
    /// Each cycle before the floor only retires, fetches non-memory
    /// instructions or stalls, so [`OooCore::advance_compute`] can run
    /// the span with no memory system attached.
    pub fn compute_floor(&self, next_cpu: u64) -> Option<u64> {
        let w = self.cfg.width;
        (w > 0 && self.completed_tags.is_empty() && self.nonmem_left >= w)
            .then(|| next_cpu + (self.nonmem_left / w) as u64)
    }

    /// Runs CPU cycles `from..to` with no memory system attached.
    /// Bit-identical to calling [`OooCore::cycle`] for each of them,
    /// provided `to <= compute_floor(from)`: every cycle of the span
    /// then finds at least `width` non-memory instructions still to
    /// fetch, so it never reads the trace or offers a memory operation.
    /// Stall-only stretches (full ROB behind a head that cannot retire
    /// yet) are charged in bulk.
    pub fn advance_compute(&mut self, from: u64, to: u64) {
        if from >= to {
            return;
        }
        let width = self.cfg.width;
        debug_assert!(
            width > 0 && to - from <= (self.nonmem_left / width) as u64,
            "compute span {from}..{to} reaches past the compute floor"
        );
        self.drain_completions(from);
        let mut now = from;
        while now < to {
            self.retire(now);
            let room = self.cfg.rob_size - self.rob_len;
            if room == 0 {
                // The head did not retire: stall until it can.
                let wake = match self.rob.front() {
                    Some(e) if e.waiting_on.is_none() => e.retire_at.clamp(now + 1, to),
                    _ => to,
                };
                self.stats.stall_cycles += wake - now;
                now = wake;
                continue;
            }
            let k = room.min(width as usize) as u32;
            self.nonmem_left -= k;
            self.push_ready(now + self.cfg.pipeline_depth as u64, k);
            now += 1;
        }
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(to);
    }

    /// Advances one CPU cycle. `submit` offers memory operations to the
    /// memory system (the system simulator routes them to the controller)
    /// and reports acceptance; tags are assigned by the core and echoed
    /// back through [`OooCore::complete_read`].
    pub fn cycle<F>(&mut self, now_cpu: u64, mut submit: F)
    where
        F: FnMut(MemOp, u64) -> SubmitResult,
    {
        self.stats.cpu_cycles = self.stats.cpu_cycles.max(now_cpu + 1);
        self.drain_completions(now_cpu);
        self.retire(now_cpu);

        // Fetch, up to `width` per cycle, while ROB space remains.
        let width = self.cfg.width;
        let ready_at = now_cpu + self.cfg.pipeline_depth as u64;
        let mut fetched = 0;
        let mut stalled = false;
        while fetched < width && self.rob_len < self.cfg.rob_size && !stalled {
            if self.nonmem_left == 0 && self.pending_mem.is_none() {
                let op: TraceOp = self.trace.next_op();
                self.nonmem_left = op.nonmem;
                self.pending_mem = op.mem;
                if op.nonmem == 0 && op.mem.is_none() {
                    // Degenerate empty op; avoid an infinite loop.
                    break;
                }
            }
            if self.nonmem_left > 0 {
                let room = (self.cfg.rob_size - self.rob_len).min(width as usize) as u32;
                let k = self.nonmem_left.min(width - fetched).min(room);
                self.nonmem_left -= k;
                self.push_ready(ready_at, k);
                fetched += k;
                continue;
            }
            if let Some(mem) = self.pending_mem {
                let tag = self.next_tag;
                match submit(mem, tag) {
                    SubmitResult::Accepted { tag: t } => {
                        debug_assert_eq!(t, tag, "memory system must echo the core's tag");
                        self.next_tag += 1;
                        if mem.is_write {
                            self.stats.writes_issued += 1;
                            self.push_ready(ready_at, 1);
                        } else {
                            self.stats.reads_issued += 1;
                            self.rob.push_back(RobEntry {
                                retire_at: now_cpu,
                                waiting_on: Some(tag),
                                count: 1,
                            });
                            self.rob_len += 1;
                        }
                        self.pending_mem = None;
                        fetched += 1;
                    }
                    SubmitResult::Hit => {
                        self.next_tag += 1;
                        self.push_ready(ready_at, 1);
                        self.pending_mem = None;
                        fetched += 1;
                    }
                    SubmitResult::Rejected => {
                        stalled = true;
                    }
                }
            }
        }
        if stalled || (self.rob_len >= self.cfg.rob_size && fetched == 0) {
            self.stats.stall_cycles += 1;
        }
    }

    /// Marks reads whose data has arrived as retirable from `now_cpu`.
    fn drain_completions(&mut self, now_cpu: u64) {
        if self.completed_tags.is_empty() {
            return;
        }
        for e in self.rob.iter_mut() {
            if let Some(t) = e.waiting_on {
                if self.completed_tags.contains(&t) {
                    e.waiting_on = None;
                    e.retire_at = e.retire_at.max(now_cpu);
                }
            }
        }
        self.completed_tags.clear();
    }

    /// Retires in order, up to `width` instructions this cycle.
    fn retire(&mut self, now_cpu: u64) {
        let width = self.cfg.width;
        let mut retired = 0;
        while retired < width {
            match self.rob.front_mut() {
                Some(e) if e.waiting_on.is_none() && e.retire_at <= now_cpu => {
                    let k = e.count.min(width - retired);
                    e.count -= k;
                    if e.count == 0 {
                        self.rob.pop_front();
                    }
                    self.rob_len -= k as usize;
                    self.stats.instructions_retired += k as u64;
                    retired += k;
                }
                _ => break,
            }
        }
    }

    /// Appends `count` instructions that retire at `retire_at`, extending
    /// the tail run when it has the same retirement state.
    fn push_ready(&mut self, retire_at: u64, count: u32) {
        self.rob_len += count as usize;
        match self.rob.back_mut() {
            Some(e) if e.waiting_on.is_none() && e.retire_at == retire_at => e.count += count,
            _ => self.rob.push_back(RobEntry { retire_at, waiting_on: None, count }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn compute_only_core() -> OooCore {
        OooCore::new(
            CoreConfig::paper_default(),
            Box::new(VecTrace::new(vec![TraceOp::compute(100)])),
        )
    }

    #[test]
    fn compute_bound_core_reaches_full_width_ipc() {
        let mut core = compute_only_core();
        for c in 0..10_000 {
            core.cycle(c, |_, _| unreachable!("no memory ops in this trace"));
        }
        let ipc = core.stats().ipc();
        assert!(ipc > 3.8, "IPC {ipc} should approach width 4");
    }

    #[test]
    fn read_blocks_retirement_until_completion() {
        let trace =
            VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(1)), TraceOp::compute(200)]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let issued = Rc::new(RefCell::new(Vec::new()));
        let issued2 = issued.clone();
        // Run 50 cycles without completing the read: the ROB fills and
        // retirement stops after the read reaches the head.
        for c in 0..50 {
            core.cycle(c, |op, tag| {
                issued2.borrow_mut().push((op, tag));
                SubmitResult::Accepted { tag }
            });
        }
        assert_eq!(issued.borrow().len(), 1);
        assert_eq!(core.stats().instructions_retired, 0);
        assert!(core.stats().stall_cycles > 0, "ROB should have filled");
        // Complete the read: retirement resumes.
        core.complete_read(0);
        for c in 50..200 {
            core.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert!(core.stats().instructions_retired > 100);
    }

    #[test]
    fn writes_are_posted_and_do_not_block() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(3, MemOp::write(1))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        for c in 0..1000 {
            core.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert!(core.stats().instructions_retired > 3000);
        assert!(core.stats().writes_issued > 700);
    }

    #[test]
    fn rejected_memory_op_stalls_fetch_and_retries() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(7))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let accept_after = 20u64;
        let mut first_accept = None;
        for c in 0..40 {
            core.cycle(c, |_, tag| {
                if c < accept_after {
                    SubmitResult::Rejected
                } else {
                    if first_accept.is_none() {
                        first_accept = Some(c);
                    }
                    SubmitResult::Accepted { tag }
                }
            });
        }
        assert_eq!(first_accept, Some(accept_after));
        assert!(core.stats().stall_cycles >= accept_after);
    }

    #[test]
    fn hit_responses_retire_like_compute() {
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(3))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        for c in 0..1000 {
            core.cycle(c, |_, _| SubmitResult::Hit);
        }
        // All reads served as hits: the core never waits on memory.
        assert!(core.stats().ipc() > 3.0, "ipc = {}", core.stats().ipc());
    }

    #[test]
    fn skip_stalled_matches_per_cycle_execution() {
        // Two identical cores blocked on the same never-completing read:
        // one steps every cycle, the other accounts the stall span in
        // bulk. Stats must match exactly.
        let mk = || {
            let trace =
                VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(5)), TraceOp::compute(500)]);
            OooCore::new(CoreConfig::paper_default(), Box::new(trace))
        };
        let (mut stepped, mut skipped) = (mk(), mk());
        let warmup = 40u64; // enough to fill the 64-entry ROB
        for c in 0..warmup {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            skipped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert_eq!(stepped.idle_until(), CoreIdle::BlockedOnMemory);
        assert_eq!(skipped.idle_until(), CoreIdle::BlockedOnMemory);
        let span = 10_000u64;
        for c in warmup..warmup + span {
            stepped.cycle(c, |_, _| unreachable!("full ROB never fetches"));
        }
        skipped.skip_stalled(span, warmup + span);
        assert_eq!(stepped.stats(), skipped.stats());
        // Both resume identically once the read completes.
        stepped.complete_read(0);
        skipped.complete_read(0);
        for c in warmup + span..warmup + span + 200 {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            skipped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert_eq!(stepped.stats(), skipped.stats());
    }

    /// Steps `stepped` one cycle at a time and advances `spanned` in one
    /// compute span over `from..to`, then checks they agree.
    fn compare_span(stepped: &mut OooCore, spanned: &mut OooCore, from: u64, to: u64) {
        assert!(spanned.compute_floor(from).is_some_and(|f| to <= f), "span past the floor");
        for c in from..to {
            stepped.cycle(c, |_, _| unreachable!("no offer before the compute floor"));
        }
        spanned.advance_compute(from, to);
        assert_eq!(stepped.stats(), spanned.stats());
        assert_eq!(stepped.idle_until(), spanned.idle_until());
    }

    #[test]
    fn compute_span_with_full_rob_and_ready_head() {
        // A pipeline as deep as the ROB is wide-cycles long: in steady
        // 4-wide compute the ROB stays full and its head is always
        // retirable, which `idle_until` reports as a wake-up that has
        // already passed.
        let mk = || {
            let cfg = CoreConfig { pipeline_depth: 16, ..CoreConfig::paper_default() };
            OooCore::new(cfg, Box::new(VecTrace::new(vec![TraceOp::compute(1000)])))
        };
        let (mut stepped, mut spanned) = (mk(), mk());
        for c in 0..40 {
            stepped.cycle(c, |_, _| unreachable!());
            spanned.cycle(c, |_, _| unreachable!());
        }
        assert!(matches!(spanned.idle_until(), CoreIdle::WakeAt(w) if w <= 40));
        assert!(spanned.rob.len() < 64, "same-cycle fetches share a run");
        let floor = spanned.compute_floor(40).expect("a long compute op has a floor");
        compare_span(&mut stepped, &mut spanned, 40, floor);
        for c in floor..floor + 500 {
            stepped.cycle(c, |_, _| unreachable!());
            spanned.cycle(c, |_, _| unreachable!());
        }
        assert_eq!(stepped.stats(), spanned.stats());
    }

    #[test]
    fn compute_span_with_full_rob_and_waiting_head() {
        // A read at the head that never completes inside the span: the
        // span fetches until the ROB is full, then charges stalls.
        let mk = || {
            let trace =
                VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(5)), TraceOp::compute(900)]);
            OooCore::new(CoreConfig { rob_size: 30, width: 3, pipeline_depth: 7 }, Box::new(trace))
        };
        let (mut stepped, mut spanned) = (mk(), mk());
        for c in 0..2 {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            spanned.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        let floor = spanned.compute_floor(2).expect("compute follows the read");
        compare_span(&mut stepped, &mut spanned, 2, floor);
        assert_eq!(spanned.idle_until(), CoreIdle::BlockedOnMemory);
        // The ROB fills in cycle 9; every later cycle of the span stalls.
        assert_eq!(spanned.stats().stall_cycles, floor - 10);
        // The read completes: both resume identically.
        stepped.complete_read(0);
        spanned.complete_read(0);
        for c in floor..floor + 100 {
            stepped.cycle(c, |_, tag| SubmitResult::Accepted { tag });
            spanned.cycle(c, |_, tag| SubmitResult::Accepted { tag });
        }
        assert_eq!(stepped.stats(), spanned.stats());
    }

    #[test]
    fn mlp_is_bounded_by_rob() {
        // All-read trace, nothing completes: the number of issued reads
        // can never exceed the ROB size.
        let trace = VecTrace::new(vec![TraceOp::with_mem(0, MemOp::read(9))]);
        let mut core = OooCore::new(CoreConfig::paper_default(), Box::new(trace));
        let mut issued = 0;
        for c in 0..500 {
            core.cycle(c, |_, tag| {
                issued += 1;
                SubmitResult::Accepted { tag }
            });
        }
        assert_eq!(issued, 64);
    }
}
