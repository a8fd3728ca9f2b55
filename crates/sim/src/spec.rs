//! Typed experiment-job specs for the experiment service.
//!
//! The fixed-service policies make every simulation a pure function of
//! its inputs: `(mix × scheduler × device × cycles × seed)` fully
//! determines the result, bit for bit. A [`JobSpec`] is the closed,
//! serializable form of that input tuple — the unit of work `fsmc
//! serve` accepts over its socket, hands to worker *processes*, retries
//! after crashes, and memoizes in a content-addressed cache.
//!
//! Three properties are load-bearing:
//!
//! * **Canonical encoding** — [`JobSpec::canonical_line`] renders the
//!   fields as sorted `key=value` tokens, and [`JobSpec::parse_line`]
//!   accepts them in any order, so the same experiment always encodes
//!   to the same bytes no matter who wrote the spec.
//! * **Stable content hash** — [`JobSpec::cache_key`] is the SHA-256 of
//!   a versioned header plus the canonical encoding. It depends on
//!   *nothing but the spec fields*: not field order, not the process
//!   that computes it, and not ambient environment (`FSMC_THREADS`,
//!   `FSMC_NO_FASTPATH`) — those change wall-clock time, never results,
//!   so they must never fork the cache.
//! * **Exact result transport** — [`ResultPayload`] carries the integer
//!   core counters (instructions, cycles, issue and stall counts) and
//!   bit-patterns of the float statistics, so a result decoded from the
//!   cache or the socket reproduces the direct in-process run *byte for
//!   byte* in every table and CSV derived from it.

use crate::config::SystemConfig;
use crate::engine::ExperimentJob;
use crate::error::FsmcError;
use crate::runner::RunResult;
use crate::stats::SystemStats;
use fsmc_core::error::ConfigError;
use fsmc_core::sched::SchedulerKind;
use fsmc_cpu::CoreStats;
use fsmc_dram::DeviceGeneration;
use fsmc_workload::WorkloadMix;

/// Version header mixed into every cache key, so a format change can
/// never alias an old entry.
const SPEC_MAGIC: &str = "fsmc-job-v1";
/// First line of an encoded successful result.
pub const RESULT_MAGIC: &str = "fsmc-result-v1";
/// First line of an encoded structured failure record.
pub const FAILURE_MAGIC: &str = "fsmc-failure-v1";

/// A self-contained, serializable experiment: everything a worker
/// process needs to reproduce one [`ExperimentJob`], and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload mix name (`mix1`, `mix2`, or a rate-mode profile name).
    pub mix: String,
    /// Cores = security domains.
    pub cores: u32,
    pub scheduler: SchedulerKind,
    pub device: DeviceGeneration,
    /// DRAM-cycle budget.
    pub cycles: u64,
    /// Workload seed.
    pub seed: u64,
}

/// The `--scheduler` spelling of a scheduler, parameters included, so
/// `tp-bp:60` and `tp-bp:90` are different experiments (and different
/// cache keys) and printed repro lines replay the exact scheduler.
pub fn scheduler_spec(kind: SchedulerKind) -> String {
    match kind {
        SchedulerKind::Baseline => "baseline".into(),
        SchedulerKind::BaselinePrefetch => "baseline-prefetch".into(),
        SchedulerKind::TpBankPartitioned { turn } => format!("tp-bp:{turn}"),
        SchedulerKind::TpNoPartition { turn } => format!("tp-np:{turn}"),
        SchedulerKind::TpFence { period } => format!("tp-fence:{period}"),
        SchedulerKind::FsRankPartitioned => "fs-rp".into(),
        SchedulerKind::FsRankPartitionedPrefetch => "fs-rp-prefetch".into(),
        SchedulerKind::FsBankPartitioned => "fs-bp".into(),
        SchedulerKind::FsReorderedBankPartitioned => "fs-reordered-bp".into(),
        SchedulerKind::FsNoPartitionNaive => "fs-np".into(),
        SchedulerKind::FsTripleAlternation => "fs-ta".into(),
        SchedulerKind::ChannelPartitioned => "channel-part".into(),
        SchedulerKind::FsMultiChannel { channels } => format!("fs-mc:{channels}"),
    }
}

/// Parses [`scheduler_spec`] output plus the CLI spellings: a bare
/// `tp-bp` / `tp-np` takes the CLI's default turn length.
pub fn parse_scheduler(s: &str) -> Option<SchedulerKind> {
    let (base, param) = match s.split_once(':') {
        Some((b, p)) => (b, Some(p)),
        None => (s, None),
    };
    let parsed_param = |default: u32| -> Option<u32> {
        match param {
            None => Some(default),
            Some(p) => p.parse().ok(),
        }
    };
    let kind = match base {
        "baseline" => SchedulerKind::Baseline,
        "baseline-prefetch" => SchedulerKind::BaselinePrefetch,
        "fs-rp" => SchedulerKind::FsRankPartitioned,
        "fs-rp-prefetch" => SchedulerKind::FsRankPartitionedPrefetch,
        "fs-bp" => SchedulerKind::FsBankPartitioned,
        "fs-reordered-bp" => SchedulerKind::FsReorderedBankPartitioned,
        "fs-np" => SchedulerKind::FsNoPartitionNaive,
        "fs-ta" => SchedulerKind::FsTripleAlternation,
        "channel-part" => SchedulerKind::ChannelPartitioned,
        "tp-bp" => SchedulerKind::TpBankPartitioned { turn: parsed_param(60)? },
        "tp-np" => SchedulerKind::TpNoPartition { turn: parsed_param(172)? },
        "tp-fence" => SchedulerKind::TpFence { period: parsed_param(300)? },
        "fs-mc" => SchedulerKind::FsMultiChannel { channels: parsed_param(2)?.try_into().ok()? },
        _ => return None,
    };
    // A parameter on a parameterless scheduler is a malformed spec, not
    // a silently ignored suffix.
    if param.is_some()
        && !matches!(
            kind,
            SchedulerKind::TpBankPartitioned { .. }
                | SchedulerKind::TpNoPartition { .. }
                | SchedulerKind::TpFence { .. }
                | SchedulerKind::FsMultiChannel { .. }
        )
    {
        return None;
    }
    Some(kind)
}

impl JobSpec {
    /// The spec of a plain experiment job (the shape every suite and
    /// figure cell has). Returns `None` for jobs the service cannot
    /// reproduce from a closed description: injected faults, bespoke
    /// controllers, metrics collection, or a hand-edited
    /// [`SystemConfig`] that differs from the stock profile of its
    /// device generation.
    pub fn try_from_job(job: &ExperimentJob) -> Option<JobSpec> {
        if !job.faults.faults.is_empty() || job.controller.is_some() || job.metrics {
            return None;
        }
        let cores = u32::try_from(job.mix.cores()).ok()?;
        let device = match job.config {
            None => DeviceGeneration::Ddr3_1600,
            Some(cfg) => {
                let mut probe = cfg;
                probe.scheduler = job.scheduler;
                if u32::from(probe.cores) != cores
                    || probe != SystemConfig::for_device(probe.device, job.scheduler, probe.cores)
                {
                    return None;
                }
                probe.device
            }
        };
        // The mix must be reconstructible from its name alone.
        let rebuilt = WorkloadMix::by_name(job.mix.name, cores as usize)?;
        if rebuilt != job.mix {
            return None;
        }
        Some(JobSpec {
            mix: job.mix.name.to_string(),
            cores,
            scheduler: job.scheduler,
            device,
            cycles: job.cycles,
            seed: job.seed,
        })
    }

    /// The canonical single-line encoding: `key=value` tokens, keys
    /// sorted, one space between tokens. This exact byte string (under
    /// the versioned header) is what gets hashed.
    pub fn canonical_line(&self) -> String {
        format!(
            "cores={} cycles={} device={} mix={} scheduler={} seed={}",
            self.cores,
            self.cycles,
            self.device,
            self.mix,
            scheduler_spec(self.scheduler),
            self.seed
        )
    }

    /// Parses a spec line: whitespace-separated `key=value` tokens in
    /// any order, every field required exactly once.
    pub fn parse_line(line: &str) -> Result<JobSpec, String> {
        let mut mix = None;
        let mut cores = None;
        let mut scheduler = None;
        let mut device = None;
        let mut cycles = None;
        let mut seed = None;
        for tok in line.split_whitespace() {
            let (k, v) = tok.split_once('=').ok_or_else(|| format!("not key=value: {tok:?}"))?;
            let dup = |k: &str| format!("duplicate field {k:?}");
            match k {
                "mix" => {
                    if mix.replace(v.to_string()).is_some() {
                        return Err(dup(k));
                    }
                }
                "cores" => {
                    let n: u32 = v.parse().map_err(|e| format!("cores: {e}"))?;
                    if cores.replace(n).is_some() {
                        return Err(dup(k));
                    }
                }
                "scheduler" => {
                    let s = parse_scheduler(v).ok_or_else(|| format!("unknown scheduler {v:?}"))?;
                    if scheduler.replace(s).is_some() {
                        return Err(dup(k));
                    }
                }
                "device" => {
                    let d = DeviceGeneration::parse(v)
                        .ok_or_else(|| format!("unknown device {v:?}"))?;
                    if device.replace(d).is_some() {
                        return Err(dup(k));
                    }
                }
                "cycles" => {
                    let n: u64 = v.parse().map_err(|e| format!("cycles: {e}"))?;
                    if cycles.replace(n).is_some() {
                        return Err(dup(k));
                    }
                }
                "seed" => {
                    let n: u64 = v.parse().map_err(|e| format!("seed: {e}"))?;
                    if seed.replace(n).is_some() {
                        return Err(dup(k));
                    }
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        let spec = JobSpec {
            mix: mix.ok_or("missing field mix")?,
            cores: cores.ok_or("missing field cores")?,
            scheduler: scheduler.ok_or("missing field scheduler")?,
            device: device.ok_or("missing field device")?,
            cycles: cycles.ok_or("missing field cycles")?,
            seed: seed.ok_or("missing field seed")?,
        };
        if spec.cores == 0 {
            return Err("cores must be >= 1".into());
        }
        if spec.cycles == 0 {
            return Err("cycles must be >= 1".into());
        }
        Ok(spec)
    }

    /// The content address of this experiment: SHA-256 over the
    /// versioned canonical encoding, as 64 lowercase hex characters.
    /// Stable across field ordering, processes and machines; changed by
    /// any field change; independent of ambient environment.
    pub fn cache_key(&self) -> String {
        sha256_hex(format!("{SPEC_MAGIC}\n{}\n", self.canonical_line()).as_bytes())
    }

    /// Reconstructs the runnable job this spec describes.
    ///
    /// # Errors
    ///
    /// [`FsmcError::Config`] when the mix name is unknown.
    pub fn to_job(&self) -> Result<ExperimentJob, FsmcError> {
        let mix = WorkloadMix::by_name(&self.mix, self.cores as usize)
            .ok_or_else(|| ConfigError::new(format!("unknown workload mix {:?}", self.mix)))?;
        let cores = u8::try_from(self.cores)
            .map_err(|_| ConfigError::new(format!("cores={} exceeds the device", self.cores)))?;
        let cfg = SystemConfig::for_device(self.device, self.scheduler, cores);
        Ok(ExperimentJob::new(mix, self.scheduler, self.cycles, self.seed).with_config(cfg))
    }

    /// Runs the spec to completion in this process and encodes the
    /// result — the entire job of a worker process.
    ///
    /// # Errors
    ///
    /// Any [`FsmcError`] the underlying run surfaces.
    pub fn run(&self) -> Result<String, FsmcError> {
        let result = self.to_job()?.run()?;
        Ok(ResultPayload::of(self, &result).encode())
    }
}

impl ExperimentJob {
    /// The device generation this job simulates (from its config
    /// override, else the paper default).
    pub fn device(&self) -> DeviceGeneration {
        self.config.map(|c| c.device).unwrap_or(DeviceGeneration::Ddr3_1600)
    }
}

/// The transportable form of a successful run: exact integer counters
/// plus float bit-patterns, sufficient to rebuild the [`RunResult`]
/// fields every weighted-IPC table and CSV reads, byte-identically.
///
/// Deliberately *not* carried: per-command McStats, the energy
/// breakdown, and observability metrics — consumers that need those run
/// locally instead of through the service (see
/// `fsmc_bench::weighted_ipc_suite_with` for the routing rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultPayload {
    pub mix: String,
    pub scheduler: String,
    pub cores: Vec<CoreStats>,
    pub reads_completed: u64,
    pub dram_cycles: u64,
    /// `f64::to_bits` of the bus utilization, for exact round-trip.
    pub bus_utilization_bits: u64,
    pub useful_prefetches: u64,
    pub forwarded_reads: u64,
}

impl ResultPayload {
    pub fn of(spec: &JobSpec, result: &RunResult) -> ResultPayload {
        ResultPayload {
            mix: spec.mix.clone(),
            scheduler: scheduler_spec(spec.scheduler),
            cores: result.stats.cores.clone(),
            reads_completed: result.stats.reads_completed,
            dram_cycles: result.stats.dram_cycles,
            bus_utilization_bits: result.stats.bus_utilization.to_bits(),
            useful_prefetches: result.stats.useful_prefetches,
            forwarded_reads: result.stats.forwarded_reads,
        }
    }

    /// Line-oriented encoding, magic first — the bytes that land in the
    /// result cache and on the socket.
    pub fn encode(&self) -> String {
        let mut out = format!("{RESULT_MAGIC}\nmix={}\nscheduler={}\n", self.mix, self.scheduler);
        for c in &self.cores {
            out.push_str(&format!(
                "core={},{},{},{},{}\n",
                c.instructions_retired,
                c.cpu_cycles,
                c.reads_issued,
                c.writes_issued,
                c.stall_cycles
            ));
        }
        out.push_str(&format!(
            "reads_completed={}\ndram_cycles={}\nbus_utilization_bits={:016x}\n\
             useful_prefetches={}\nforwarded_reads={}\n",
            self.reads_completed,
            self.dram_cycles,
            self.bus_utilization_bits,
            self.useful_prefetches,
            self.forwarded_reads
        ));
        out
    }

    /// Strict inverse of [`ResultPayload::encode`]; any deviation
    /// (missing magic, malformed counter, trailing garbage) is an error
    /// naming the offending line — a corrupt cache entry must never
    /// decode into plausible-looking numbers.
    pub fn decode(text: &str) -> Result<ResultPayload, String> {
        let mut lines = text.lines();
        if lines.next() != Some(RESULT_MAGIC) {
            return Err(format!("missing {RESULT_MAGIC} header"));
        }
        let mut mix = None;
        let mut scheduler = None;
        let mut cores = Vec::new();
        let mut tail: Vec<(String, u64)> = Vec::new();
        for line in lines {
            let (k, v) = line.split_once('=').ok_or_else(|| format!("malformed line {line:?}"))?;
            match k {
                "mix" => mix = Some(v.to_string()),
                "scheduler" => scheduler = Some(v.to_string()),
                "core" => {
                    let mut it = v.split(',').map(|n| n.parse::<u64>());
                    let mut next = || {
                        it.next()
                            .ok_or_else(|| format!("short core line {line:?}"))?
                            .map_err(|e| format!("core line {line:?}: {e}"))
                    };
                    let c = CoreStats {
                        instructions_retired: next()?,
                        cpu_cycles: next()?,
                        reads_issued: next()?,
                        writes_issued: next()?,
                        stall_cycles: next()?,
                    };
                    if it.next().is_some() {
                        return Err(format!("trailing fields on core line {line:?}"));
                    }
                    cores.push(c);
                }
                "bus_utilization_bits" => {
                    let bits = u64::from_str_radix(v, 16)
                        .map_err(|e| format!("bus_utilization_bits: {e}"))?;
                    tail.push((k.to_string(), bits));
                }
                "reads_completed" | "dram_cycles" | "useful_prefetches" | "forwarded_reads" => {
                    let n: u64 = v.parse().map_err(|e| format!("{k}: {e}"))?;
                    tail.push((k.to_string(), n));
                }
                other => return Err(format!("unknown result field {other:?}")),
            }
        }
        let get = |name: &str| -> Result<u64, String> {
            tail.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing field {name}"))
        };
        if cores.is_empty() {
            return Err("no core lines".into());
        }
        Ok(ResultPayload {
            mix: mix.ok_or("missing field mix")?,
            scheduler: scheduler.ok_or("missing field scheduler")?,
            cores,
            reads_completed: get("reads_completed")?,
            dram_cycles: get("dram_cycles")?,
            bus_utilization_bits: get("bus_utilization_bits")?,
            useful_prefetches: get("useful_prefetches")?,
            forwarded_reads: get("forwarded_reads")?,
        })
    }

    /// Rebuilds the [`RunResult`] for the job this payload answers. The
    /// caller supplies the job so the result carries its `'static` mix
    /// name; the payload's identity fields must agree with it.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the payload answers a
    /// different experiment than `job` describes.
    pub fn into_run_result(self, job: &ExperimentJob) -> Result<RunResult, String> {
        if self.mix != job.mix.name {
            return Err(format!("payload is for mix {:?}, job wants {:?}", self.mix, job.mix.name));
        }
        if self.scheduler != scheduler_spec(job.scheduler) {
            return Err(format!(
                "payload is for scheduler {:?}, job wants {:?}",
                self.scheduler,
                scheduler_spec(job.scheduler)
            ));
        }
        if self.cores.len() != job.mix.cores() {
            return Err(format!(
                "payload has {} cores, job mix has {}",
                self.cores.len(),
                job.mix.cores()
            ));
        }
        let stats = SystemStats {
            cores: self.cores,
            reads_completed: self.reads_completed,
            dram_cycles: self.dram_cycles,
            bus_utilization: f64::from_bits(self.bus_utilization_bits),
            useful_prefetches: self.useful_prefetches,
            forwarded_reads: self.forwarded_reads,
            ..SystemStats::default()
        };
        Ok(RunResult {
            mix_name: job.mix.name,
            scheduler: job.scheduler,
            ipcs: stats.ipcs(),
            stats,
            metrics: None,
        })
    }
}

/// A job's structured failure record: how many attempts the service
/// made, why the last one died, and the typed error text (with fault
/// provenance when the run carried one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    pub attempts: u32,
    /// `timeout`, `crash`, or `error` (a typed simulation error).
    pub reason: String,
    /// The last attempt's error detail, newline-flattened.
    pub error: String,
}

impl FailureRecord {
    pub fn encode(&self) -> String {
        format!(
            "{FAILURE_MAGIC}\nattempts={}\nreason={}\nerror={}\n",
            self.attempts,
            self.reason,
            self.error.replace('\n', "; ")
        )
    }

    pub fn decode(text: &str) -> Result<FailureRecord, String> {
        let mut lines = text.lines();
        if lines.next() != Some(FAILURE_MAGIC) {
            return Err(format!("missing {FAILURE_MAGIC} header"));
        }
        let mut attempts = None;
        let mut reason = None;
        let mut error = None;
        for line in lines {
            let (k, v) = line.split_once('=').ok_or_else(|| format!("malformed line {line:?}"))?;
            match k {
                "attempts" => attempts = Some(v.parse().map_err(|e| format!("attempts: {e}"))?),
                "reason" => reason = Some(v.to_string()),
                "error" => error = Some(v.to_string()),
                other => return Err(format!("unknown failure field {other:?}")),
            }
        }
        Ok(FailureRecord {
            attempts: attempts.ok_or("missing field attempts")?,
            reason: reason.ok_or("missing field reason")?,
            error: error.ok_or("missing field error")?,
        })
    }
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), dependency-free. The cache key must be stable
// across processes, machines and releases, which rules out `DefaultHasher`
// (explicitly unstable) and any vendored stand-in.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data`, as 64 lowercase hex characters.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data || 0x80 || zeros || 64-bit bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = String::with_capacity(64);
    for word in h {
        out.push_str(&format!("{word:08x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            mix: "mix1".into(),
            cores: 8,
            scheduler: SchedulerKind::FsRankPartitioned,
            device: DeviceGeneration::Ddr3_1600,
            cycles: 60_000,
            seed: 42,
        }
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn canonical_line_round_trips() {
        let s = spec();
        assert_eq!(JobSpec::parse_line(&s.canonical_line()).unwrap(), s);
    }

    #[test]
    fn parse_accepts_any_field_order() {
        let s = spec();
        let shuffled = "seed=42 mix=mix1 scheduler=fs-rp cycles=60000 device=ddr3-1600 cores=8";
        let parsed = JobSpec::parse_line(shuffled).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.cache_key(), s.cache_key());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "mix=mix1",
            "cores=8 cycles=1 device=ddr3-1600 mix=mix1 scheduler=fs-rp seed=1 seed=2",
            "cores=8 cycles=1 device=ddr3-1600 mix=mix1 scheduler=nope seed=1",
            "cores=8 cycles=1 device=ddr9 mix=mix1 scheduler=fs-rp seed=1",
            "cores=0 cycles=1 device=ddr3-1600 mix=mix1 scheduler=fs-rp seed=1",
            "cores=8 cycles=0 device=ddr3-1600 mix=mix1 scheduler=fs-rp seed=1",
            "cores=8 cycles=1 device=ddr3-1600 mix=mix1 scheduler=fs-rp seed=1 extra=1",
            "notkeyvalue",
        ] {
            assert!(JobSpec::parse_line(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn scheduler_specs_round_trip_with_parameters() {
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::FsRankPartitioned,
            SchedulerKind::FsReorderedBankPartitioned,
            SchedulerKind::TpBankPartitioned { turn: 60 },
            SchedulerKind::TpBankPartitioned { turn: 90 },
            SchedulerKind::TpNoPartition { turn: 172 },
            SchedulerKind::TpFence { period: 300 },
            SchedulerKind::TpFence { period: 450 },
            SchedulerKind::FsMultiChannel { channels: 4 },
        ] {
            assert_eq!(parse_scheduler(&scheduler_spec(kind)), Some(kind));
        }
        // Bare CLI names get the CLI defaults.
        assert_eq!(parse_scheduler("tp-bp"), Some(SchedulerKind::TpBankPartitioned { turn: 60 }));
        assert_eq!(parse_scheduler("tp-fence"), Some(SchedulerKind::TpFence { period: 300 }));
        assert_eq!(parse_scheduler("baseline:3"), None);
        assert_eq!(parse_scheduler("tp-bp:x"), None);
    }

    #[test]
    fn plain_jobs_convert_and_rebuild_identically() {
        let job = ExperimentJob::new(
            WorkloadMix::mix1_for(4),
            SchedulerKind::FsRankPartitioned,
            5_000,
            7,
        );
        let spec = JobSpec::try_from_job(&job).expect("plain job is spec-able");
        assert_eq!(spec.cache_key().len(), 64);
        let rebuilt = spec.to_job().unwrap();
        assert_eq!(rebuilt.mix, job.mix);
        assert_eq!(rebuilt.scheduler, job.scheduler);
        assert_eq!(rebuilt.cycles, job.cycles);
        assert_eq!(rebuilt.seed, job.seed);
        // The rebuilt config is the stock profile the direct path uses.
        let a = job.run().unwrap();
        let b = rebuilt.run().unwrap();
        assert_eq!(a.ipcs, b.ipcs);
        assert_eq!(a.stats.reads_completed, b.stats.reads_completed);
    }

    #[test]
    fn faulted_and_bespoke_jobs_are_not_specable() {
        use crate::faults::{FaultKind, FaultPlan};
        let base = ExperimentJob::new(
            WorkloadMix::mix1_for(4),
            SchedulerKind::FsRankPartitioned,
            5_000,
            7,
        );
        let faulted = base
            .clone()
            .with_faults(FaultPlan::new(1).with(FaultKind::DropCommand { period: 5, max: 1 }));
        assert!(JobSpec::try_from_job(&faulted).is_none());
        assert!(JobSpec::try_from_job(&base.clone().with_metrics()).is_none());
        let mut cfg = SystemConfig::for_device(
            DeviceGeneration::Ddr3_1600,
            SchedulerKind::FsRankPartitioned,
            4,
        );
        cfg.mshr_capacity = 4; // hand-edited: not the stock profile
        assert!(JobSpec::try_from_job(&base.clone().with_config(cfg)).is_none());
        // A stock for_device config of another generation IS spec-able.
        let ddr4 = base.with_config(SystemConfig::for_device(
            DeviceGeneration::Ddr4_2400,
            SchedulerKind::FsRankPartitioned,
            4,
        ));
        let spec = JobSpec::try_from_job(&ddr4).expect("stock device config");
        assert_eq!(spec.device, DeviceGeneration::Ddr4_2400);
    }

    #[test]
    fn result_payload_round_trips_bit_exactly() {
        let s = JobSpec { mix: "mcf".into(), cores: 2, cycles: 4_000, ..spec() };
        let payload = s.run().unwrap();
        let decoded = ResultPayload::decode(&payload).unwrap();
        assert_eq!(decoded.encode(), payload);
        let job = s.to_job().unwrap();
        let remote = decoded.into_run_result(&job).unwrap();
        let direct = job.run().unwrap();
        assert_eq!(remote.ipcs, direct.ipcs);
        assert_eq!(remote.stats.cores, direct.stats.cores);
        assert_eq!(remote.stats.bus_utilization.to_bits(), direct.stats.bus_utilization.to_bits());
    }

    #[test]
    fn result_decode_rejects_corruption() {
        let s = JobSpec { mix: "mcf".into(), cores: 2, cycles: 2_000, ..spec() };
        let payload = s.run().unwrap();
        // Truncation at every line boundary fails loudly.
        let lines: Vec<&str> = payload.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            assert!(ResultPayload::decode(&truncated).is_err(), "cut at line {cut}");
        }
        let garbled = payload.replace("reads_completed=", "reads_completed=x");
        assert!(ResultPayload::decode(&garbled).is_err());
        assert!(ResultPayload::decode("not a payload").is_err());
    }

    #[test]
    fn failure_record_round_trips_and_flattens_newlines() {
        let r = FailureRecord {
            attempts: 3,
            reason: "timeout".into(),
            error: "line one\nline two".into(),
        };
        let enc = r.encode();
        let back = FailureRecord::decode(&enc).unwrap();
        assert_eq!(back.attempts, 3);
        assert_eq!(back.reason, "timeout");
        assert_eq!(back.error, "line one; line two");
        assert!(FailureRecord::decode("garbage").is_err());
    }
}
