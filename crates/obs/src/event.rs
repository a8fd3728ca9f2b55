//! The trace event model.
//!
//! Events are plain-integer records so producers in any workspace layer
//! can emit them without depending on simulator types. One simulated
//! DRAM cycle is the unit of time throughout.

/// DRAM cycle, mirroring `fsmc_dram::Cycle` without the dependency.
pub type Cycle = u64;

/// Command classes, mirroring the DRAM command set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdClass {
    Activate,
    Read,
    ReadAp,
    Write,
    WriteAp,
    Precharge,
    PrechargeAll,
    Refresh,
    PowerDownEnter,
    PowerDownExit,
}

impl CmdClass {
    /// Short mnemonic used in exported trace names.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmdClass::Activate => "ACT",
            CmdClass::Read => "RD",
            CmdClass::ReadAp => "RDA",
            CmdClass::Write => "WR",
            CmdClass::WriteAp => "WRA",
            CmdClass::Precharge => "PRE",
            CmdClass::PrechargeAll => "PREA",
            CmdClass::Refresh => "REF",
            CmdClass::PowerDownEnter => "PDE",
            CmdClass::PowerDownExit => "PDX",
        }
    }

    /// True for column accesses (read or write, with or without AP).
    pub fn is_cas(self) -> bool {
        matches!(self, CmdClass::Read | CmdClass::ReadAp | CmdClass::Write | CmdClass::WriteAp)
    }

    /// True if this CAS closes the row when the burst finishes.
    pub fn has_auto_precharge(self) -> bool {
        matches!(self, CmdClass::ReadAp | CmdClass::WriteAp)
    }
}

/// What an FS scheduler granted a slot to (or why it stayed empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// A queued demand transaction.
    Demand,
    /// A sandbox prefetch filling an otherwise-dead slot.
    Prefetch,
    /// A dummy access (traffic shaping).
    Dummy,
    /// A power-down pair replacing the dummy (energy optimisation 3).
    PowerDown,
    /// Nothing issued: the slot cadence left a bubble.
    Bubble,
}

impl SlotKind {
    pub fn label(self) -> &'static str {
        match self {
            SlotKind::Demand => "demand",
            SlotKind::Prefetch => "prefetch",
            SlotKind::Dummy => "dummy",
            SlotKind::PowerDown => "power-down",
            SlotKind::Bubble => "bubble",
        }
    }
}

/// One observability event. `domain` fields are security-domain indices;
/// `None` where the producer cannot attribute one (e.g. refresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A DRAM command hit the command bus (or was suppressed on it).
    Command {
        cycle: Cycle,
        class: CmdClass,
        rank: u8,
        bank: u8,
        row: u32,
        /// Energy optimisation 1: a dummy CAS whose bus toggling is
        /// suppressed. It still occupies its slot.
        suppressed: bool,
        /// For CAS commands: the cycle the data burst completes.
        data_done: Option<Cycle>,
    },
    /// A demand transaction arrived at the controller.
    TxnArrival { cycle: Cycle, domain: u8, is_write: bool, queue_depth: u32 },
    /// A demand read retired (data delivered back to the core side).
    TxnRetire { arrival: Cycle, finish: Cycle, domain: u8 },
    /// An FS slot decision: who owned the slot and what filled it.
    SlotGrant { cycle: Cycle, slot: u64, domain: u8, kind: SlotKind },
    /// A refresh command was issued to `rank`.
    Refresh { cycle: Cycle, rank: u8 },
    /// The controller degraded onto the conservative pipeline.
    Degraded { cycle: Cycle },
    /// The controller adopted a re-solved, re-certified schedule at a
    /// drained epoch boundary (persistent fault or domain churn).
    Reconfigured { cycle: Cycle, epoch: u64 },
    /// The simulation fast path skipped the cycles `from..to` without
    /// stepping the cores; `batched` when the controller ticked inside
    /// the span, rather than being proven idle throughout.
    FastPath { from: Cycle, to: Cycle, batched: bool },
}

impl TraceEvent {
    /// The cycle the event is anchored at (span events use their start).
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Command { cycle, .. }
            | TraceEvent::TxnArrival { cycle, .. }
            | TraceEvent::SlotGrant { cycle, .. }
            | TraceEvent::Refresh { cycle, .. }
            | TraceEvent::Degraded { cycle }
            | TraceEvent::Reconfigured { cycle, .. } => cycle,
            TraceEvent::TxnRetire { arrival, .. } => arrival,
            TraceEvent::FastPath { from, .. } => from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_distinct() {
        let all = [
            CmdClass::Activate,
            CmdClass::Read,
            CmdClass::ReadAp,
            CmdClass::Write,
            CmdClass::WriteAp,
            CmdClass::Precharge,
            CmdClass::PrechargeAll,
            CmdClass::Refresh,
            CmdClass::PowerDownEnter,
            CmdClass::PowerDownExit,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in all {
            assert!(seen.insert(c.mnemonic()), "duplicate mnemonic {}", c.mnemonic());
        }
        assert!(CmdClass::ReadAp.is_cas() && CmdClass::ReadAp.has_auto_precharge());
        assert!(CmdClass::Read.is_cas() && !CmdClass::Read.has_auto_precharge());
        assert!(!CmdClass::Activate.is_cas());
    }

    #[test]
    fn anchor_cycles() {
        assert_eq!(TraceEvent::Degraded { cycle: 7 }.cycle(), 7);
        assert_eq!(TraceEvent::Reconfigured { cycle: 12, epoch: 2 }.cycle(), 12);
        assert_eq!(TraceEvent::TxnRetire { arrival: 3, finish: 9, domain: 0 }.cycle(), 3);
        assert_eq!(TraceEvent::FastPath { from: 10, to: 20, batched: false }.cycle(), 10);
    }
}
