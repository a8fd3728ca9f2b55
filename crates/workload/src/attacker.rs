//! Attacker/victim traces for the security experiments.
//!
//! Figure 4 co-schedules the attacker (mcf) with "synthetic threads that
//! make no memory accesses" or "highly memory-intensive" ones; the
//! covert-channel study needs a sender that modulates its intensity with
//! a secret bit string and a receiver that probes at a fixed rate.

use fsmc_cpu::trace::{MemOp, TraceOp, TraceSource};

/// A purely compute-bound thread: zero memory accesses.
///
/// Each op is as long as an op can be. A core reads its next op in the
/// same fetch cycle that drained the last one, so op length never shows
/// in its timing; a long op only lets a simulator run the core as one
/// compute span instead of waking it to read the trace.
#[derive(Debug, Clone, Default)]
pub struct IdleTrace;

impl TraceSource for IdleTrace {
    fn next_op(&mut self) -> TraceOp {
        TraceOp::compute(u32::MAX)
    }
}

/// A maximally memory-intensive thread: back-to-back row-missing reads.
#[derive(Debug, Clone)]
pub struct FloodTrace {
    pos: u64,
    footprint: u64,
    stride_rows: u64,
}

impl Default for FloodTrace {
    fn default() -> Self {
        FloodTrace::new()
    }
}

impl FloodTrace {
    pub fn new() -> Self {
        // Stride by whole rows (128 lines) so every access is a row miss.
        FloodTrace { pos: 0, footprint: 1 << 22, stride_rows: 1 }
    }
}

impl TraceSource for FloodTrace {
    fn next_op(&mut self) -> TraceOp {
        self.pos = (self.pos + self.stride_rows * 128) % self.footprint;
        TraceOp::with_mem(0, MemOp::read(self.pos))
    }
}

/// The secret bitstring plus the per-bit instruction schedule every
/// covert-channel sender keys off — and the ground truth a synchronised
/// receiver decodes against.
///
/// One-bits and zero-bits get separate instruction budgets so both
/// phases can occupy comparable wall-clock time when their per-
/// instruction progress rates differ (memory-bound vs compute-bound).
#[derive(Debug, Clone)]
pub struct Modulator {
    bits: Vec<bool>,
    one_instrs: u64,
    zero_instrs: u64,
}

impl Modulator {
    /// # Panics
    ///
    /// Panics if `bits` is empty or either budget is zero.
    pub fn new(bits: Vec<bool>, one_instrs: u64, zero_instrs: u64) -> Self {
        assert!(!bits.is_empty(), "need at least one bit");
        assert!(one_instrs > 0 && zero_instrs > 0, "bit periods must be non-zero");
        Modulator { bits, one_instrs, zero_instrs }
    }

    /// The secret bitstring.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The index into the bit string that instruction `instrs` falls in.
    pub fn bit_index_at(&self, instrs: u64) -> usize {
        (self.slot_at(instrs) as usize) % self.bits.len()
    }

    /// The bit value at instruction `instrs`.
    pub fn bit_at(&self, instrs: u64) -> bool {
        self.bits[self.bit_index_at(instrs)]
    }

    /// A monotone "which transmission slot" counter at instruction
    /// `instrs` (unlike [`Modulator::bit_index_at`], this does not wrap,
    /// so callers can detect bit transitions).
    pub fn slot_at(&self, instrs: u64) -> u64 {
        let mut remaining = instrs;
        let mut idx = 0u64;
        loop {
            let len = if self.bits[(idx as usize) % self.bits.len()] {
                self.one_instrs
            } else {
                self.zero_instrs
            };
            if remaining < len {
                return idx;
            }
            remaining -= len;
            idx += 1;
        }
    }
}

/// A covert-channel *sender* (intensity / on-off keying): memory-
/// intensive while transmitting a 1, idle while transmitting a 0.
#[derive(Debug, Clone)]
pub struct ModulatedTrace {
    modulator: Modulator,
    instrs_done: u64,
    pos: u64,
}

impl ModulatedTrace {
    /// Equal instruction budgets for both bit values.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or `bit_instrs` is zero.
    pub fn new(bits: Vec<bool>, bit_instrs: u64) -> Self {
        ModulatedTrace::with_periods(bits, bit_instrs, bit_instrs)
    }

    /// Separate instruction budgets for one-bits and zero-bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or either budget is zero.
    pub fn with_periods(bits: Vec<bool>, one_instrs: u64, zero_instrs: u64) -> Self {
        ModulatedTrace {
            modulator: Modulator::new(bits, one_instrs, zero_instrs),
            instrs_done: 0,
            pos: 0,
        }
    }

    /// The sender's modulation schedule (receiver-side ground truth).
    pub fn modulator(&self) -> &Modulator {
        &self.modulator
    }

    /// The index into the bit string that instruction `instrs` falls in —
    /// the ground truth a synchronised receiver decodes against.
    pub fn bit_index_at(&self, instrs: u64) -> usize {
        self.modulator.bit_index_at(instrs)
    }

    /// The bit value at instruction `instrs`.
    pub fn bit_at(&self, instrs: u64) -> bool {
        self.modulator.bit_at(instrs)
    }

    /// A monotone "which transmission slot" counter at instruction
    /// `instrs` (unlike [`ModulatedTrace::bit_index_at`], this does not
    /// wrap, so callers can detect bit transitions).
    pub fn slot_at(&self, instrs: u64) -> u64 {
        self.modulator.slot_at(instrs)
    }

    fn current_bit(&self) -> bool {
        self.modulator.bit_at(self.instrs_done)
    }
}

impl TraceSource for ModulatedTrace {
    fn next_op(&mut self) -> TraceOp {
        let op = if self.current_bit() {
            self.pos = self.pos.wrapping_add(128) % (1 << 22);
            TraceOp::with_mem(1, MemOp::read(self.pos))
        } else {
            TraceOp::compute(16)
        };
        self.instrs_done += op.instructions();
        op
    }
}

/// A covert-channel *sender* (bank-conflict keying): while transmitting
/// a 1 it strides whole rows across every bank — colliding with the
/// receiver's banks at *different* rows, forcing its probes into
/// precharge/activate conflicts — and while transmitting a 0 it streams
/// inside one row of one bank (row hits, minimal occupancy). Both
/// phases issue memory operations at the same instruction rate, so the
/// symbol only modulates *where* the pressure lands, not how much work
/// the sender core retires.
#[derive(Debug, Clone)]
pub struct BankConflictTrace {
    modulator: Modulator,
    instrs_done: u64,
    pos: u64,
}

impl BankConflictTrace {
    /// # Panics
    ///
    /// Panics if `bits` is empty or `bit_instrs` is zero.
    pub fn new(bits: Vec<bool>, bit_instrs: u64) -> Self {
        BankConflictTrace {
            modulator: Modulator::new(bits, bit_instrs, bit_instrs),
            instrs_done: 0,
            pos: 0,
        }
    }

    /// The sender's modulation schedule (receiver-side ground truth).
    pub fn modulator(&self) -> &Modulator {
        &self.modulator
    }
}

impl TraceSource for BankConflictTrace {
    fn next_op(&mut self) -> TraceOp {
        let addr = if self.modulator.bit_at(self.instrs_done) {
            // Row-stride sweep: a fresh (rank, bank, row) every access.
            self.pos = (self.pos + 128) % (1 << 20);
            self.pos
        } else {
            // Confined to the 128 lines of a single row of one bank.
            self.pos = (self.pos + 1) % 128;
            self.pos
        };
        let op = TraceOp::with_mem(3, MemOp::read(addr));
        self.instrs_done += op.instructions();
        op
    }
}

/// A covert-channel *sender* (row-buffer keying): every access lands in
/// one bank; a 1 alternates between two rows (pure row-miss churn that
/// evicts whatever row the receiver had open there), a 0 streams within
/// a single row (hits). The sender's bus occupancy is nearly identical
/// in both phases — the symbol lives in the *row-buffer state* it
/// leaves behind, the subtlest of the three encodings.
#[derive(Debug, Clone)]
pub struct RowBufferTrace {
    modulator: Modulator,
    instrs_done: u64,
    ops: u64,
}

/// Lines per (rank, bank, row) tuple stride under the unpartitioned
/// mapping: 128 columns × 8 banks × 8 ranks.
const ROW_GROUP: u64 = 128 * 64;

impl RowBufferTrace {
    /// # Panics
    ///
    /// Panics if `bits` is empty or `bit_instrs` is zero.
    pub fn new(bits: Vec<bool>, bit_instrs: u64) -> Self {
        RowBufferTrace {
            modulator: Modulator::new(bits, bit_instrs, bit_instrs),
            instrs_done: 0,
            ops: 0,
        }
    }

    /// The sender's modulation schedule (receiver-side ground truth).
    pub fn modulator(&self) -> &Modulator {
        &self.modulator
    }
}

impl TraceSource for RowBufferTrace {
    fn next_op(&mut self) -> TraceOp {
        self.ops += 1;
        let col = self.ops % 128;
        let addr = if self.modulator.bit_at(self.instrs_done) {
            // Ping-pong rows 0 and 1 of bank 0: every access is a miss.
            (self.ops % 2) * ROW_GROUP + col
        } else {
            // Stream row 0 of bank 0: every access is a hit.
            col
        };
        let op = TraceOp::with_mem(3, MemOp::read(addr));
        self.instrs_done += op.instructions();
        op
    }
}

/// A covert-channel *receiver* / timing probe: a steady, fixed rate of
/// dependent reads whose completion times reveal memory contention.
#[derive(Debug, Clone)]
pub struct ProbeTrace {
    gap: u32,
    pos: u64,
    footprint: u64,
}

impl ProbeTrace {
    /// One probing read per `gap + 1` instructions.
    pub fn new(gap: u32) -> Self {
        ProbeTrace { gap, pos: 0, footprint: 1 << 20 }
    }
}

impl TraceSource for ProbeTrace {
    fn next_op(&mut self) -> TraceOp {
        self.pos = (self.pos + 128) % self.footprint;
        TraceOp::with_mem(self.gap, MemOp::read(self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_trace_never_touches_memory() {
        let mut t = IdleTrace;
        for _ in 0..100 {
            assert!(t.next_op().mem.is_none());
        }
    }

    #[test]
    fn flood_trace_is_all_row_misses() {
        let mut t = FloodTrace::new();
        let mut last_row = u64::MAX;
        for _ in 0..100 {
            let m = t.next_op().mem.unwrap();
            let row = m.addr.0 / 128;
            assert_ne!(row, last_row, "flood must not reuse a row consecutively");
            last_row = row;
        }
    }

    #[test]
    fn modulated_trace_follows_bits() {
        let mut t = ModulatedTrace::new(vec![true, false], 100);
        let mut first_phase_mem = 0;
        let mut instrs = 0;
        while instrs < 100 {
            let op = t.next_op();
            instrs += op.instructions();
            if op.mem.is_some() {
                first_phase_mem += 1;
            }
        }
        assert!(first_phase_mem > 10, "bit=1 phase should be memory-heavy");
        let mut second_phase_mem = 0;
        let start = instrs;
        while instrs < start + 100 {
            let op = t.next_op();
            instrs += op.instructions();
            if op.mem.is_some() {
                second_phase_mem += 1;
            }
        }
        assert_eq!(second_phase_mem, 0, "bit=0 phase must be silent");
    }

    #[test]
    fn probe_trace_has_fixed_rate() {
        let mut t = ProbeTrace::new(9);
        for _ in 0..50 {
            let op = t.next_op();
            assert_eq!(op.nonmem, 9);
            assert!(op.mem.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn modulated_rejects_empty_bits() {
        ModulatedTrace::new(vec![], 10);
    }

    /// Drives `t` for `instrs` instructions, returning the line
    /// addresses touched.
    fn addrs_for(t: &mut dyn TraceSource, instrs: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut done = 0;
        while done < instrs {
            let op = t.next_op();
            done += op.instructions();
            if let Some(m) = op.mem {
                out.push(m.addr.0);
            }
        }
        out
    }

    #[test]
    fn bank_conflict_trace_modulates_spread_not_rate() {
        let mut t = BankConflictTrace::new(vec![true, false], 400);
        let ones = addrs_for(&mut t, 400);
        let zeros = addrs_for(&mut t, 400);
        // Same access rate in both phases...
        assert_eq!(ones.len(), zeros.len());
        // ...but a 1 sweeps many (rank, bank) pairs while a 0 stays home.
        let banks = |a: &[u64]| {
            a.iter().map(|x| (x / 128) % 64).collect::<std::collections::HashSet<_>>().len()
        };
        assert!(banks(&ones) > 16, "one-phase hits {} banks", banks(&ones));
        assert_eq!(banks(&zeros), 1, "zero-phase must stay in one bank");
    }

    #[test]
    fn row_buffer_trace_churns_rows_only_on_ones() {
        let mut t = RowBufferTrace::new(vec![true, false], 400);
        let rows = |a: &[u64]| {
            a.iter().map(|x| x / ROW_GROUP).collect::<std::collections::HashSet<_>>().len()
        };
        let banks = |a: &[u64]| {
            a.iter().map(|x| (x / 128) % 64).collect::<std::collections::HashSet<_>>().len()
        };
        let ones = addrs_for(&mut t, 400);
        let zeros = addrs_for(&mut t, 400);
        assert_eq!(ones.len(), zeros.len());
        // Both phases live in a single bank; only the 1 alternates rows.
        assert_eq!(banks(&ones), 1);
        assert_eq!(banks(&zeros), 1);
        assert_eq!(rows(&ones), 2, "one-phase must ping-pong two rows");
        assert_eq!(rows(&zeros), 1, "zero-phase must stay in one row");
    }

    #[test]
    fn modulator_slots_are_monotone_and_consistent() {
        let m = Modulator::new(vec![true, false, true], 100, 50);
        assert_eq!(m.slot_at(0), 0);
        assert_eq!(m.slot_at(99), 0);
        assert_eq!(m.slot_at(100), 1);
        assert_eq!(m.slot_at(149), 1);
        assert_eq!(m.slot_at(150), 2);
        // Wraps the bitstring but not the slot counter.
        assert_eq!(m.bit_index_at(250), 0);
        assert_eq!(m.slot_at(250), 3);
        assert!(m.bit_at(0) && !m.bit_at(100) && m.bit_at(150));
    }
}
