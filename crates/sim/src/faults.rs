//! Deterministic fault injection for robustness experiments.
//!
//! A [`FaultPlan`] describes *what* to break in a run — command-level
//! faults in the controller, a device slower than the certified pipeline,
//! perturbed solver inputs, or corrupted trace records. The plan is pure
//! data and fully deterministic (the `seed` picks corruption shapes, the
//! periods count events), so a faulted run reproduces exactly.
//!
//! The runner applies each kind at the right layer:
//!
//! * [`FaultKind::PerturbTiming`] edits the *configured* timing before
//!   construction (solver and device agree — exercises the construction
//!   fallback path).
//! * [`FaultKind::StretchRefresh`] slows only the *device* (schedule and
//!   refresh cadence stay nominal — exercises runtime degradation).
//! * [`FaultKind::DelayCommand`] / [`FaultKind::DropCommand`] arm the
//!   controller's command-fault injector ([`CmdFaultSpec`]).
//! * [`FaultKind::CorruptTrace`] mangles trace records, exercising the
//!   typed trace-error path.
//! * The *persistent* kinds ([`FaultKind::StuckBank`],
//!   [`FaultKind::DeadRank`], [`FaultKind::ThermalRefresh`]) and the churn
//!   events ([`FaultKind::DomainLeave`], [`FaultKind::DomainJoin`]) fire
//!   once at a scheduled cycle and trigger the epoch-based
//!   reconfiguration protocol instead of the transient injectors.
//! * [`FaultKind::SharedArbiter`] swaps the configured scheduler for the
//!   shared FR-FCFS arbiter.
//!
//! Every run that takes a plan applies it in the same two steps:
//! [`FaultPlan::configure`] before the [`System`] is built and
//! [`FaultPlan::arm`] right after.

use crate::config::SystemConfig;
use crate::system::System;
use fsmc_core::sched::{CmdFaultSpec, ReconfigEvent, SchedulerKind};
use fsmc_dram::{Cycle, TimingParams};

/// A DRAM timing parameter a fault can perturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingField {
    TRc,
    TRcd,
    TRas,
    TFaw,
    TRtrs,
    TRfc,
    TWtr,
}

impl TimingField {
    /// The name used in fault-plan spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            TimingField::TRc => "trc",
            TimingField::TRcd => "trcd",
            TimingField::TRas => "tras",
            TimingField::TFaw => "tfaw",
            TimingField::TRtrs => "trtrs",
            TimingField::TRfc => "trfc",
            TimingField::TWtr => "twtr",
        }
    }

    /// Parses a spec-string field name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "trc" => TimingField::TRc,
            "trcd" => TimingField::TRcd,
            "tras" => TimingField::TRas,
            "tfaw" => TimingField::TFaw,
            "trtrs" => TimingField::TRtrs,
            "trfc" => TimingField::TRfc,
            "twtr" => TimingField::TWtr,
            _ => return None,
        })
    }

    /// Applies `delta` to the field in `t`, saturating at zero.
    pub fn apply(&self, t: &mut TimingParams, delta: i32) {
        let f = match self {
            TimingField::TRc => &mut t.t_rc,
            TimingField::TRcd => &mut t.t_rcd,
            TimingField::TRas => &mut t.t_ras,
            TimingField::TFaw => &mut t.t_faw,
            TimingField::TRtrs => &mut t.t_rtrs,
            TimingField::TRfc => &mut t.t_rfc,
            TimingField::TWtr => &mut t.t_wtr,
        };
        *f = f.saturating_add_signed(delta);
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Every `period`-th committed transaction's ACT/CAS slip by `delay`
    /// cycles (at most `max` times; 0 = unbounded). Models late silicon.
    DelayCommand { period: u64, delay: u64, max: u64 },
    /// Every `period`-th committed transaction's commands vanish (at most
    /// `max` times; 0 = unbounded). Models lost commands; the watchdog is
    /// expected to notice the missing completions.
    DropCommand { period: u64, max: u64 },
    /// The device's refresh takes `factor` times the certified tRFC while
    /// the controller's schedule and refresh cadence stay nominal.
    StretchRefresh { factor: u32 },
    /// Perturbs a configured timing parameter *before* construction, so
    /// solver and device agree on the (possibly infeasible) value.
    PerturbTiming { field: TimingField, delta: i32 },
    /// Corrupts every `period`-th record of `core`'s input trace.
    CorruptTrace { core: usize, period: usize },
    /// At cycle `at`, bank `bank` of rank `rank` becomes permanently
    /// unusable; the controller reconfigures to mask it and remap demand.
    StuckBank { rank: u8, bank: u8, at: Cycle },
    /// At cycle `at`, rank `rank` dies entirely; its tenant is detached
    /// and the rank's slots become bubbles.
    DeadRank { rank: u8, at: Cycle },
    /// At cycle `at`, a thermal alarm multiplies the refresh rate by
    /// `factor` (tREFI divided by `factor`) for the rest of the run.
    ThermalRefresh { factor: u8, at: Cycle },
    /// At cycle `at`, domain `domain`'s tenant leaves; its slots carry
    /// dummies from the epoch boundary on.
    DomainLeave { domain: u8, at: Cycle },
    /// At cycle `at`, a tenant joins as domain `domain` (the core starts
    /// the run detached and attaches at the epoch boundary).
    DomainJoin { domain: u8, at: Cycle },
    /// A misconfiguration, not a silicon fault: the secure scheduler the
    /// config asks for is silently replaced by the shared FR-FCFS
    /// arbiter (a deployment wiring the wrong policy). The run is
    /// functionally healthy — only the leakage estimator can tell.
    SharedArbiter,
}

impl FaultKind {
    /// The reconfiguration event this fault schedules, if it is one of
    /// the persistent/churn kinds, as `(cycle, event)`.
    pub fn reconfig_event(&self) -> Option<(Cycle, ReconfigEvent)> {
        Some(match *self {
            FaultKind::StuckBank { rank, bank, at } => {
                (at, ReconfigEvent::StuckBank { rank, bank })
            }
            FaultKind::DeadRank { rank, at } => (at, ReconfigEvent::DeadRank { rank }),
            FaultKind::ThermalRefresh { factor, at } => {
                (at, ReconfigEvent::ThermalRefresh { factor })
            }
            FaultKind::DomainLeave { domain, at } => (at, ReconfigEvent::DomainLeave { domain }),
            FaultKind::DomainJoin { domain, at } => (at, ReconfigEvent::DomainJoin { domain }),
            _ => return None,
        })
    }
}

/// A deterministic, seedable set of faults for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Selects corruption shapes; two plans with the same faults and seed
    /// produce byte-identical failures.
    pub seed: u64,
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Builder-style: adds one fault.
    #[must_use]
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// Applies the plan to the configuration a system is about to be
    /// built from: [`FaultKind::SharedArbiter`] swaps in the shared
    /// FR-FCFS arbiter, whatever secure policy was asked for (nothing
    /// else about the run changes — the leak is the only symptom), and
    /// every [`FaultKind::PerturbTiming`] edits the timing both solver
    /// and device will see.
    pub fn configure(&self, cfg: &mut SystemConfig) {
        if self.has_shared_arbiter() {
            cfg.scheduler = SchedulerKind::Baseline;
        }
        self.perturb_timing(&mut cfg.timing);
    }

    /// Applies the rest of the plan to a system built from a
    /// [`FaultPlan::configure`]d configuration: schedules its
    /// reconfiguration events, arms the command-fault injector and slows
    /// the device.
    ///
    /// No fault switches off a fast-path tier. Delayed or dropped
    /// commands and stretched refresh reach the controller through
    /// [`System::arm_faults`]: the controller's `next_event` bound stays
    /// sound under them, and a health-checked run's skipped spans stop
    /// right after a tick that poisons the controller or latches a
    /// monitor breach, so errors surface at the per-cycle cycle. The
    /// shared arbiter and timing perturbations act on the configuration
    /// before the build, corrupted traces fail at construction, and
    /// reconfiguration runs at the top of a stepped cycle, with skipped
    /// spans clamped at its promotion and adoption cycles.
    pub fn arm(&self, sys: &mut System) {
        for (at, ev) in self.reconfig_events() {
            sys.schedule_reconfig(at, ev);
        }
        let device_timing = self.device_timing(&sys.config().timing);
        sys.arm_faults(self.cmd_fault_spec(), device_timing);
    }

    /// Applies every [`FaultKind::PerturbTiming`] to `t` (the configured
    /// timing both solver and device will see).
    fn perturb_timing(&self, t: &mut TimingParams) {
        for f in &self.faults {
            if let FaultKind::PerturbTiming { field, delta } = f {
                field.apply(t, *delta);
            }
        }
    }

    /// The device-only timing (slower silicon), if any fault calls for it.
    fn device_timing(&self, nominal: &TimingParams) -> Option<TimingParams> {
        let mut t = *nominal;
        let mut changed = false;
        for f in &self.faults {
            if let FaultKind::StretchRefresh { factor } = f {
                t.t_rfc = t.t_rfc.saturating_mul((*factor).max(1));
                changed = true;
            }
        }
        changed.then_some(t)
    }

    /// The combined command-fault spec for the controller's injector.
    fn cmd_fault_spec(&self) -> Option<CmdFaultSpec> {
        let mut spec = CmdFaultSpec::default();
        for f in &self.faults {
            match f {
                FaultKind::DelayCommand { period, delay, max } => {
                    spec.delay_period = *period;
                    spec.delay_cycles = *delay;
                    spec.max_faults = spec.max_faults.max(*max);
                }
                FaultKind::DropCommand { period, max } => {
                    spec.drop_period = *period;
                    spec.max_faults = spec.max_faults.max(*max);
                }
                _ => {}
            }
        }
        spec.is_enabled().then_some(spec)
    }

    /// The corruption period for `core`'s trace, if any.
    pub fn trace_corruption(&self, core: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            FaultKind::CorruptTrace { core: c, period } if *c == core => Some((*period).max(1)),
            _ => None,
        })
    }

    /// True if the plan swaps the configured scheduler for the shared
    /// FR-FCFS arbiter (the leaky-misconfiguration fault).
    pub fn has_shared_arbiter(&self) -> bool {
        self.faults.contains(&FaultKind::SharedArbiter)
    }

    /// The reconfiguration events this plan schedules, sorted by cycle
    /// (stable, so same-cycle events keep their plan order).
    pub fn reconfig_events(&self) -> Vec<(Cycle, ReconfigEvent)> {
        let mut events: Vec<_> = self.faults.iter().filter_map(FaultKind::reconfig_event).collect();
        events.sort_by_key(|(at, _)| *at);
        events
    }

    /// True if the plan consists solely of reconfiguration events (no
    /// transient command/device/trace faults).
    pub fn is_pure_reconfig(&self) -> bool {
        !self.faults.is_empty() && self.faults.iter().all(|f| f.reconfig_event().is_some())
    }

    /// Renders the fault list as a compact spec string — the repro format
    /// printed in error provenance and accepted by `fsmc chaos --faults`.
    ///
    /// Round-trips through [`FaultPlan::parse_spec`]:
    /// `delay(50,5,1)+stretch-refresh(40)` and friends; an empty plan is
    /// `none`.
    pub fn spec(&self) -> String {
        if self.faults.is_empty() {
            return "none".into();
        }
        self.faults
            .iter()
            .map(|f| match f {
                FaultKind::DelayCommand { period, delay, max } => {
                    format!("delay({period},{delay},{max})")
                }
                FaultKind::DropCommand { period, max } => format!("drop({period},{max})"),
                FaultKind::StretchRefresh { factor } => format!("stretch-refresh({factor})"),
                FaultKind::PerturbTiming { field, delta } => {
                    format!("perturb({},{delta})", field.name())
                }
                FaultKind::CorruptTrace { core, period } => {
                    format!("corrupt-trace({core},{period})")
                }
                FaultKind::StuckBank { rank, bank, at } => {
                    format!("stuck-bank({rank},{bank},{at})")
                }
                FaultKind::DeadRank { rank, at } => format!("dead-rank({rank},{at})"),
                FaultKind::ThermalRefresh { factor, at } => {
                    format!("thermal-refresh({factor},{at})")
                }
                FaultKind::DomainLeave { domain, at } => format!("leave({domain},{at})"),
                FaultKind::DomainJoin { domain, at } => format!("join({domain},{at})"),
                FaultKind::SharedArbiter => "shared-arbiter()".to_string(),
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parses a spec string produced by [`FaultPlan::spec`] back into a
    /// plan with the given seed.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed component.
    pub fn parse_spec(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        // Each argument is read into its field's own type, so a value
        // that does not fit is an error rather than a silent wrap.
        fn arg<T: TryFrom<u64>>(args: &[&str], i: usize, part: &str) -> Result<T, String> {
            let v = args
                .get(i)
                .and_then(|a| a.parse::<u64>().ok())
                .ok_or_else(|| format!("bad numeric argument {} in {part:?}", i + 1))?;
            T::try_from(v)
                .map_err(|_| format!("numeric argument {} out of range in {part:?}", i + 1))
        }
        let mut plan = FaultPlan::new(seed);
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        for part in spec.split('+') {
            let part = part.trim();
            let (name, args) = part
                .strip_suffix(')')
                .and_then(|p| p.split_once('('))
                .ok_or_else(|| format!("malformed fault component {part:?}"))?;
            let args: Vec<&str> = args.split(',').map(str::trim).collect();
            let num = |i: usize| arg::<u64>(&args, i, part);
            let fault = match (name, args.len()) {
                ("delay", 3) => {
                    FaultKind::DelayCommand { period: num(0)?, delay: num(1)?, max: num(2)? }
                }
                ("drop", 2) => FaultKind::DropCommand { period: num(0)?, max: num(1)? },
                ("stretch-refresh", 1) => {
                    FaultKind::StretchRefresh { factor: arg(&args, 0, part)? }
                }
                ("perturb", 2) => {
                    let field = TimingField::from_name(args[0])
                        .ok_or_else(|| format!("unknown timing field {:?} in {part:?}", args[0]))?;
                    let delta = args[1]
                        .parse::<i32>()
                        .map_err(|_| format!("bad delta {:?} in {part:?}", args[1]))?;
                    FaultKind::PerturbTiming { field, delta }
                }
                ("corrupt-trace", 2) => FaultKind::CorruptTrace {
                    core: arg(&args, 0, part)?,
                    period: arg(&args, 1, part)?,
                },
                ("stuck-bank", 3) => FaultKind::StuckBank {
                    rank: arg(&args, 0, part)?,
                    bank: arg(&args, 1, part)?,
                    at: num(2)?,
                },
                ("dead-rank", 2) => FaultKind::DeadRank { rank: arg(&args, 0, part)?, at: num(1)? },
                ("thermal-refresh", 2) => {
                    FaultKind::ThermalRefresh { factor: arg(&args, 0, part)?, at: num(1)? }
                }
                ("leave", 2) => {
                    FaultKind::DomainLeave { domain: arg(&args, 0, part)?, at: num(1)? }
                }
                ("join", 2) => FaultKind::DomainJoin { domain: arg(&args, 0, part)?, at: num(1)? },
                // "shared-arbiter()" splits into one empty argument.
                ("shared-arbiter", 1) if args[0].is_empty() => FaultKind::SharedArbiter,
                _ => return Err(format!("unknown fault component {part:?}")),
            };
            plan = plan.with(fault);
        }
        Ok(plan)
    }

    /// Corrupts every `period`-th record line of a text-format trace. The
    /// corruption shape is chosen by the plan's seed: a non-numeric gap, a
    /// bogus direction letter, or a non-hex address.
    pub fn corrupt_trace_text(&self, text: &str, period: usize) -> String {
        let mut out = String::with_capacity(text.len());
        let mut record = 0usize;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                out.push_str(line);
                out.push('\n');
                continue;
            }
            record += 1;
            if record.is_multiple_of(period) {
                let fields: Vec<&str> = trimmed.split_whitespace().collect();
                let corrupted = match self.seed % 3 {
                    0 => format!("x{} {} {}", fields[0], fields[1], fields[2]),
                    1 => format!("{} Q {}", fields[0], fields[2]),
                    _ => format!("{} {} zz!", fields[0], fields[1]),
                };
                out.push_str(&corrupted);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_edits_the_named_field_only() {
        let nominal = TimingParams::ddr3_1600();
        let mut t = nominal;
        let plan = FaultPlan::new(1)
            .with(FaultKind::PerturbTiming { field: TimingField::TRc, delta: 100 });
        plan.perturb_timing(&mut t);
        assert_eq!(t.t_rc, nominal.t_rc + 100);
        assert_eq!(t.t_rcd, nominal.t_rcd);
    }

    #[test]
    fn device_timing_only_set_when_a_device_fault_exists() {
        let nominal = TimingParams::ddr3_1600();
        assert!(FaultPlan::new(0).device_timing(&nominal).is_none());
        let plan = FaultPlan::new(0).with(FaultKind::StretchRefresh { factor: 2 });
        let t = plan.device_timing(&nominal).unwrap();
        assert_eq!(t.t_rfc, 2 * nominal.t_rfc);
        assert_eq!(t.t_rc, nominal.t_rc);
    }

    #[test]
    fn cmd_spec_combines_delay_and_drop() {
        let plan = FaultPlan::new(0)
            .with(FaultKind::DelayCommand { period: 7, delay: 5, max: 1 })
            .with(FaultKind::DropCommand { period: 11, max: 3 });
        let spec = plan.cmd_fault_spec().unwrap();
        assert_eq!((spec.delay_period, spec.delay_cycles), (7, 5));
        assert_eq!(spec.drop_period, 11);
        assert_eq!(spec.max_faults, 3);
        assert!(FaultPlan::new(0).cmd_fault_spec().is_none());
    }

    #[test]
    fn spec_round_trips_every_fault_kind() {
        let plan = FaultPlan::new(17)
            .with(FaultKind::DelayCommand { period: 50, delay: 5, max: 1 })
            .with(FaultKind::DropCommand { period: 400, max: 2 })
            .with(FaultKind::StretchRefresh { factor: 40 })
            .with(FaultKind::PerturbTiming { field: TimingField::TRtrs, delta: -2 })
            .with(FaultKind::CorruptTrace { core: 3, period: 7 })
            .with(FaultKind::SharedArbiter);
        let spec = plan.spec();
        assert_eq!(
            spec,
            "delay(50,5,1)+drop(400,2)+stretch-refresh(40)+perturb(trtrs,-2)+corrupt-trace(3,7)+shared-arbiter()"
        );
        assert_eq!(FaultPlan::parse_spec(17, &spec).unwrap(), plan);
        assert!(plan.has_shared_arbiter());
        assert!(!FaultPlan::new(0).has_shared_arbiter());
        // The empty plan round-trips through "none".
        assert_eq!(FaultPlan::new(9).spec(), "none");
        assert_eq!(FaultPlan::parse_spec(9, "none").unwrap(), FaultPlan::new(9));
    }

    #[test]
    fn reconfig_spec_round_trips_and_events_sort_by_cycle() {
        let plan = FaultPlan::new(3)
            .with(FaultKind::DomainJoin { domain: 5, at: 900 })
            .with(FaultKind::StuckBank { rank: 1, bank: 4, at: 2_000 })
            .with(FaultKind::DeadRank { rank: 2, at: 500 })
            .with(FaultKind::ThermalRefresh { factor: 2, at: 1_500 })
            .with(FaultKind::DomainLeave { domain: 3, at: 500 });
        let spec = plan.spec();
        assert_eq!(
            spec,
            "join(5,900)+stuck-bank(1,4,2000)+dead-rank(2,500)+thermal-refresh(2,1500)+leave(3,500)"
        );
        assert_eq!(FaultPlan::parse_spec(3, &spec).unwrap(), plan);
        assert!(plan.is_pure_reconfig());
        assert!(!plan
            .clone()
            .with(FaultKind::DropCommand { period: 9, max: 1 })
            .is_pure_reconfig());
        // Events come out cycle-sorted, same-cycle events in plan order.
        let cycles: Vec<u64> = plan.reconfig_events().iter().map(|(at, _)| *at).collect();
        assert_eq!(cycles, vec![500, 500, 900, 1_500, 2_000]);
        use fsmc_core::sched::ReconfigEvent as E;
        assert_eq!(plan.reconfig_events()[0].1, E::DeadRank { rank: 2 });
        assert_eq!(plan.reconfig_events()[1].1, E::DomainLeave { domain: 3 });
        // Legacy kinds schedule nothing.
        assert!(FaultPlan::new(0)
            .with(FaultKind::StretchRefresh { factor: 4 })
            .reconfig_events()
            .is_empty());
    }

    #[test]
    fn parse_spec_rejects_garbage_with_context() {
        for (bad, needle) in [
            ("delay(1,2)", "unknown fault component"),
            ("explode(3)", "unknown fault component"),
            ("delay(1,x,3)", "bad numeric argument"),
            ("perturb(tzz,1)", "unknown timing field"),
            ("delay(1,2,3", "malformed fault component"),
            ("stuck-bank(256,0,10)", "numeric argument 1 out of range"),
            ("stuck-bank(0,256,10)", "numeric argument 2 out of range"),
            ("dead-rank(300,5)", "numeric argument 1 out of range"),
            ("thermal-refresh(256,5)", "numeric argument 1 out of range"),
            ("leave(256,5)", "numeric argument 1 out of range"),
            ("join(1000,5)", "numeric argument 1 out of range"),
            ("stretch-refresh(4294967296)", "numeric argument 1 out of range"),
        ] {
            let err = FaultPlan::parse_spec(0, bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn corruption_is_periodic_and_seed_deterministic() {
        let text = "# h\n1 R 10\n2 W 20\n3 R 30\n4 W 40\n";
        let plan = FaultPlan::new(2); // seed 2 -> bad address
        let out = plan.corrupt_trace_text(text, 2);
        assert_eq!(out, plan.corrupt_trace_text(text, 2));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[1], "1 R 10");
        assert_eq!(lines[2], "2 W zz!");
        assert_eq!(lines[4], "4 W zz!");
    }
}
