//! An end-to-end memory covert channel (Section 2.2's threat: ~100 Kbps
//! demonstrated on real hardware by synchronised sender/receiver pairs).
//!
//! Domain 1 (the *sender*) modulates its memory behaviour with a secret
//! bit string; domain 0 (the *receiver*) issues a steady probe stream
//! and watches its own read latencies. On a contention-revealing
//! scheduler the receiver decodes the bits; under FS its latencies are
//! constant and the channel capacity collapses to zero.
//!
//! [`run_covert_protocol`] is the protocol-agnostic harness: any
//! [`TraceSource`] sender paired with its [`Modulator`] ground truth
//! (intensity keying, bank-conflict keying, row-buffer keying — see
//! `fsmc-workload::attacker` and the `fsmc-leak` crate). Its machine
//! ([`covert_system`]) and window loop ([`covert_windows`]) are shared
//! with the leak campaign. The intensity-keyed wrappers keep the
//! original entry points.

use crate::leakage::{binary_channel_capacity, try_mutual_information, LeakageError};
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::trace::TraceSource;
use fsmc_dram::DeviceGeneration;
use fsmc_sim::{FsmcError, System, SystemConfig};
use fsmc_workload::{IdleTrace, ModulatedTrace, Modulator, ProbeTrace};

/// Result of one covert-channel experiment.
#[derive(Debug, Clone)]
pub struct CovertChannelReport {
    pub scheduler: SchedulerKind,
    pub device: DeviceGeneration,
    /// Ground-truth bit per window and the receiver's mean latency there.
    pub windows: Vec<(bool, f64)>,
    /// Bit-error rate of a median-threshold decoder.
    pub ber: f64,
    /// Estimated mutual information between window latency and bit.
    pub mutual_information_bits: f64,
    /// Channel capacity estimate in bits/second (BSC capacity times the
    /// signalling rate, at this device generation's clock).
    pub capacity_bps: f64,
}

/// Experiment geometry shared by every protocol run.
#[derive(Debug, Clone, Copy)]
pub struct ChannelParams {
    pub device: DeviceGeneration,
    /// The receiver's integration window in DRAM cycles.
    pub window_cycles: u64,
    /// How many windows to observe.
    pub windows: usize,
    /// Force per-cycle stepping (the decoder must see identical
    /// latencies on both simulation paths; tests compare the two).
    pub no_fastpath: bool,
}

impl ChannelParams {
    pub fn new(device: DeviceGeneration, window_cycles: u64, windows: usize) -> Self {
        ChannelParams { device, window_cycles, windows, no_fastpath: false }
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams::new(DeviceGeneration::Ddr3_1600, 2_500, 100)
    }
}

/// Builds the covert-channel machine for `cfg`: a fixed-rate probe
/// receiver in domain 0, `sender` in domain 1 and idle cores in the
/// rest, with the receiver's read latencies observed.
///
/// # Errors
///
/// As for [`System::try_new`].
pub fn covert_system(
    cfg: &SystemConfig,
    sender: Box<dyn TraceSource>,
) -> Result<System, FsmcError> {
    let mut traces: Vec<Box<dyn TraceSource>> = vec![Box::new(ProbeTrace::new(20)), sender];
    traces.extend((2..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
    let mut sys = System::try_new(cfg, traces)?;
    sys.observe(0);
    Ok(sys)
}

/// Runs `windows` receiver windows of `window_cycles` DRAM cycles each on
/// a [`covert_system`], lazily, and yields the sender's bit and the
/// receiver's `(finish, latency)` observations for every window that
/// lies inside one symbol. The ground truth is derived from the
/// sender's retired-instruction count (what the sender *meant* to
/// signal); windows straddling a bit transition carry mixed signal and
/// are discarded, as a synchronised real-world receiver would.
pub fn covert_windows<'a>(
    sys: &'a mut System,
    modulator: &'a Modulator,
    window_cycles: u64,
    windows: usize,
) -> impl Iterator<Item = (bool, Vec<(u64, u64)>)> + 'a {
    (0..windows).filter_map(move |_| {
        sys.take_observations(); // clear
        let slot_before = modulator.slot_at(sys.core_stats(1).instructions_retired);
        sys.run_cycles(window_cycles);
        let obs = sys.take_observations();
        let instrs = sys.core_stats(1).instructions_retired;
        (modulator.slot_at(instrs) == slot_before).then(|| (modulator.bit_at(instrs), obs))
    })
}

/// Runs one covert-channel protocol under `scheduler`: `sender` occupies
/// domain 1, a fixed-rate probe receiver occupies domain 0, and
/// `modulator` supplies the ground-truth symbol timeline (from the
/// sender's retired-instruction count).
///
/// # Errors
///
/// [`LeakageError`] if the mutual-information estimate over the decoded
/// windows is ill-posed (mismatched series lengths or zero bins).
pub fn run_covert_protocol(
    scheduler: SchedulerKind,
    sender: Box<dyn TraceSource>,
    modulator: &Modulator,
    params: ChannelParams,
) -> Result<CovertChannelReport, LeakageError> {
    let cfg = SystemConfig::for_device(params.device, scheduler, 8);
    let mut sys =
        covert_system(&cfg, sender).unwrap_or_else(|e| panic!("system construction failed: {e}"));
    if params.no_fastpath {
        sys.disable_fastpath();
    }

    let window_data: Vec<(bool, f64)> =
        covert_windows(&mut sys, modulator, params.window_cycles, params.windows)
            .filter(|(_, obs)| !obs.is_empty())
            .map(|(bit, obs)| {
                let sum = obs.iter().map(|&(_, lat)| lat as f64).sum::<f64>();
                (bit, sum / obs.len() as f64)
            })
            .collect();

    // Median-threshold decoder.
    let mut lats: Vec<f64> = window_data.iter().map(|&(_, l)| l).collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = if lats.is_empty() { 0.0 } else { lats[lats.len() / 2] };
    let errors = window_data.iter().filter(|&&(bit, lat)| (lat > threshold) != bit).count();
    let ber = if window_data.is_empty() {
        0.5
    } else {
        (errors as f64 / window_data.len() as f64).min(1.0)
    };
    // A decoder may be inverted; take the better polarity.
    let ber = ber.min(1.0 - ber);

    let observations: Vec<f64> = window_data.iter().map(|&(_, l)| l).collect();
    let secrets: Vec<bool> = window_data.iter().map(|&(b, _)| b).collect();
    let mi = try_mutual_information(&observations, &secrets, 16)?;

    // Signalling rate: one window per `window_cycles` DRAM cycles at
    // this generation's clock.
    let window_seconds = params.window_cycles as f64 * params.device.seconds_per_cycle();
    let capacity_bps = binary_channel_capacity(ber) / window_seconds;

    Ok(CovertChannelReport {
        scheduler,
        device: params.device,
        windows: window_data,
        ber,
        mutual_information_bits: mi,
        capacity_bps,
    })
}

/// The intensity-keyed sender used by the original covert study, with
/// the budget ratio that makes one-bits and zero-bits occupy roughly
/// comparable wall-clock time (memory-bound one-bits progress far
/// slower per instruction than compute-bound zero-bits).
pub fn intensity_sender(bits: &[bool]) -> ModulatedTrace {
    ModulatedTrace::with_periods(bits.to_vec(), 4_000, 160_000)
}

/// Runs the intensity-keyed covert channel under `scheduler` on
/// `device`.
///
/// `bits` is the secret the sender transmits (repeated as needed);
/// `window_cycles` is the receiver's integration window in DRAM cycles;
/// `windows` is how many windows to observe.
///
/// # Errors
///
/// As for [`run_covert_protocol`].
pub fn run_covert_channel_on(
    device: DeviceGeneration,
    scheduler: SchedulerKind,
    bits: &[bool],
    window_cycles: u64,
    windows: usize,
) -> Result<CovertChannelReport, LeakageError> {
    let sender = intensity_sender(bits);
    let modulator = sender.modulator().clone();
    run_covert_protocol(
        scheduler,
        Box::new(sender),
        &modulator,
        ChannelParams::new(device, window_cycles, windows),
    )
}

/// [`run_covert_channel_on`] on the paper's DDR3-1600 system.
///
/// # Errors
///
/// As for [`run_covert_protocol`].
pub fn run_covert_channel(
    scheduler: SchedulerKind,
    bits: &[bool],
    window_cycles: u64,
    windows: usize,
) -> Result<CovertChannelReport, LeakageError> {
    run_covert_channel_on(DeviceGeneration::Ddr3_1600, scheduler, bits, window_cycles, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secret() -> Vec<bool> {
        vec![true, false, true, true, false, false, true, false]
    }

    #[test]
    fn baseline_channel_carries_information() {
        let r = run_covert_channel(SchedulerKind::Baseline, &secret(), 2500, 100).unwrap();
        assert!(r.ber < 0.25, "baseline BER {} too high to be a usable channel", r.ber);
        assert!(r.mutual_information_bits > 0.2, "MI {}", r.mutual_information_bits);
        assert!(r.capacity_bps > 1e4);
    }

    #[test]
    fn fs_channel_is_destroyed() {
        let r = run_covert_channel(SchedulerKind::FsRankPartitioned, &secret(), 2500, 100).unwrap();
        // Receiver latencies are constant under FS: MI collapses.
        assert!(
            r.mutual_information_bits < 0.05,
            "FS leaked {} bits/window",
            r.mutual_information_bits
        );
        assert!(r.ber > 0.3, "FS BER {} suspiciously decodable", r.ber);
    }

    #[test]
    fn capacity_scales_with_the_device_clock() {
        // The same BER at a faster clock is more bits per second: the
        // conversion must use the device's cycle length, not DDR3's.
        let d3 = run_covert_channel_on(
            DeviceGeneration::Ddr3_1600,
            SchedulerKind::Baseline,
            &secret(),
            2500,
            60,
        )
        .unwrap();
        let lp = run_covert_channel_on(
            DeviceGeneration::Lpddr4_3200,
            SchedulerKind::Baseline,
            &secret(),
            2500,
            60,
        )
        .unwrap();
        assert_eq!(d3.device, DeviceGeneration::Ddr3_1600);
        assert_eq!(lp.device, DeviceGeneration::Lpddr4_3200);
        // Both decode; per-window capacity converts at 2x the rate.
        let per_window_d3 = d3.capacity_bps * 2500.0 * d3.device.seconds_per_cycle();
        let per_window_lp = lp.capacity_bps * 2500.0 * lp.device.seconds_per_cycle();
        assert!(per_window_d3 > 0.0 && per_window_lp > 0.0);
        let ratio = DeviceGeneration::Lpddr4_3200.bus_mhz() as f64
            / DeviceGeneration::Ddr3_1600.bus_mhz() as f64;
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
