//! The worker-process pool: deadline watchdog, retry with capped
//! exponential backoff, poisoning, and graceful degradation.
//!
//! Each job attempt is a **child process** (not a thread): the spec line
//! goes to the worker's stdin, the result payload comes back on its
//! stdout. Running simulations out-of-process is what makes the service
//! crash-tolerant — a worker that segfaults, is OOM-killed, or wedges
//! takes down one attempt, not the daemon — and sidesteps the
//! single-process `FSMC_THREADS` ceiling, since each worker is its own
//! scheduling unit.
//!
//! The per-attempt state machine:
//!
//! ```text
//!            spawn ──► exit 0 ──────────────► success (payload)
//!              │        exit 3 ─────────────► typed error    ─┐ retry with
//!              │        other exit / signal ► crash           ├ capped
//!              └─ deadline exceeded ─ kill ─► timeout        ─┘ backoff
//!                                                              │
//!                     after `max_attempts` ◄───────────────────┘
//!                     the job is POISONED: a structured
//!                     [`FailureRecord`] with attempt count, reason,
//!                     and the last typed error (fault provenance
//!                     included in its text) is the job's result.
//! ```
//!
//! Degradation: a streak of crashed/timed-out attempts shrinks the
//! pool's concurrency limit (never below one) so a sick machine drains
//! slowly instead of thrashing; successes grow it back to full width.
//!
//! The built-in [`ChaosSpec`] harness deterministically kills or hangs
//! attempts (seeded per `(job, attempt)`), and **never faults a job's
//! final attempt** — so a chaos campaign always terminates with the
//! byte-identical results of the clean run, which is exactly the
//! robustness property the CI smoke test asserts.

use fsmc_sim::spec::{sha256_hex, FailureRecord};
use fsmc_sim::SplitMix64;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Deterministic fault injection for the pool (the service-level
/// analogue of the simulator's `FaultPlan`).
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Percent of attempts killed shortly after spawn.
    pub kill_pct: u8,
    /// Percent of attempts forced to hang until the deadline.
    pub hang_pct: u8,
    pub seed: u64,
}

/// Environment variable the chaos harness sets on a child it wants to
/// wedge; the `job-exec` worker honours it by sleeping forever.
pub const HANG_ENV: &str = "FSMC_JOB_EXEC_HANG";

#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Full-width concurrency (degradation shrinks below this).
    pub workers: usize,
    /// Worker argv: `worker_cmd[0]` is the program, the rest its
    /// arguments. The spec line is written to the worker's stdin.
    pub worker_cmd: Vec<String>,
    /// Per-attempt deadline enforced by the watchdog.
    pub timeout_ms: u64,
    /// Attempts before the job is poisoned.
    pub max_attempts: u32,
    /// First retry delay; doubles per retry up to `backoff_cap_ms`.
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    pub chaos: Option<ChaosSpec>,
}

/// How one attempt ended.
#[derive(Debug)]
enum Attempt {
    Success(String),
    /// Worker exited 3: a typed, deterministic simulation error.
    TypedError(String),
    Crash(String),
    Timeout,
}

/// Pool counters, exported through `fsmc status`.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Child processes that ran a simulation to completion.
    pub simulations: AtomicU64,
    /// Attempts re-run after a crash/timeout/typed error.
    pub retries: AtomicU64,
    /// Jobs that exhausted their attempts.
    pub poisoned: AtomicU64,
}

/// The pool itself: stateless per job, shared counters and degradation
/// state across jobs. Server worker threads call [`WorkerPool::run_job`]
/// concurrently; the pool gates admission on its (shrinkable) limit.
pub struct WorkerPool {
    opts: PoolOptions,
    /// Current concurrency limit (degradation shrinks, success grows).
    active_limit: AtomicUsize,
    /// Attempts currently inside a child process.
    running: Mutex<usize>,
    /// Signalled when a slot is released and when the limit grows.
    slot_freed: Condvar,
    /// Consecutive crashed/timed-out attempts, across jobs.
    crash_streak: AtomicUsize,
    pub counters: PoolCounters,
}

/// Crash streak length that costs the pool one slot of width.
const DEGRADE_STREAK: usize = 3;

/// A claimed pool slot, released on drop so no return path can leak it.
struct Slot<'a>(&'a WorkerPool);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A count is valid after any update, so a poisoned lock is safe
        // to use, and `Drop` must not panic.
        *self.0.running.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.slot_freed.notify_one();
    }
}

impl WorkerPool {
    pub fn new(opts: PoolOptions) -> Self {
        let workers = opts.workers.max(1);
        WorkerPool {
            opts: PoolOptions { workers, ..opts },
            active_limit: AtomicUsize::new(workers),
            running: Mutex::new(0),
            slot_freed: Condvar::new(),
            crash_streak: AtomicUsize::new(0),
            counters: PoolCounters::default(),
        }
    }

    pub fn width(&self) -> usize {
        self.opts.workers
    }

    /// The current (possibly degraded) concurrency limit.
    pub fn current_limit(&self) -> usize {
        self.active_limit.load(Ordering::Relaxed)
    }

    /// Runs one job to a final outcome: the result payload, or the
    /// structured failure record of a poisoned job. Blocks while the
    /// pool is at its concurrency limit.
    pub fn run_job(&self, key: &str, spec_line: &str) -> Result<String, FailureRecord> {
        let mut last: Option<(&'static str, String)> = None;
        for attempt in 0..self.opts.max_attempts {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(self.backoff_ms(attempt)));
            }
            let outcome = {
                let _slot = self.acquire_slot();
                self.run_attempt(key, spec_line, attempt)
            };
            match outcome {
                Attempt::Success(payload) => {
                    self.note_success();
                    self.counters.simulations.fetch_add(1, Ordering::Relaxed);
                    return Ok(payload);
                }
                Attempt::TypedError(e) => {
                    // Deterministic failures don't indicate a sick
                    // machine; they don't shrink the pool.
                    last = Some(("error", e));
                }
                Attempt::Crash(detail) => {
                    self.note_crash();
                    last = Some(("crash", detail));
                }
                Attempt::Timeout => {
                    self.note_crash();
                    last = Some((
                        "timeout",
                        format!("worker exceeded {} ms deadline", self.opts.timeout_ms),
                    ));
                }
            }
        }
        self.counters.poisoned.fetch_add(1, Ordering::Relaxed);
        let (reason, error) = last.expect("max_attempts >= 1");
        Err(FailureRecord { attempts: self.opts.max_attempts, reason: reason.into(), error })
    }

    /// Capped exponential backoff before retry number `attempt`.
    fn backoff_ms(&self, attempt: u32) -> u64 {
        let shift = (attempt - 1).min(16);
        (self.opts.backoff_base_ms << shift).min(self.opts.backoff_cap_ms)
    }

    /// Blocks until the pool is under its (possibly degraded) limit,
    /// then claims a slot.
    fn acquire_slot(&self) -> Slot<'_> {
        let running = self.running.lock().expect("no thread panics holding the slot count");
        let mut running = self
            .slot_freed
            .wait_while(running, |running| *running >= self.current_limit().max(1))
            .expect("no thread panics holding the slot count");
        *running += 1;
        Slot(self)
    }

    fn note_crash(&self) {
        let streak = self.crash_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak.is_multiple_of(DEGRADE_STREAK) {
            // Workers are dying faster than they finish: give back one
            // slot of concurrency (never below one).
            let _ = self
                .active_limit
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| (l > 1).then_some(l - 1));
        }
    }

    fn note_success(&self) {
        self.crash_streak.store(0, Ordering::Relaxed);
        let workers = self.opts.workers;
        let grew = self
            .active_limit
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| (l < workers).then_some(l + 1))
            .is_ok();
        if grew {
            // A waiter checks the limit and starts waiting under the
            // lock, so taking it here orders this notify after the check.
            drop(self.running.lock().expect("no thread panics holding the slot count"));
            self.slot_freed.notify_all();
        }
    }

    /// The chaos verdict for one `(job, attempt)`: deterministic in the
    /// chaos seed, and never fired on the final attempt (so campaigns
    /// always converge to the clean result).
    fn chaos_action(&self, key: &str, attempt: u32) -> (bool, bool) {
        let Some(chaos) = self.opts.chaos else { return (false, false) };
        if attempt + 1 >= self.opts.max_attempts {
            return (false, false);
        }
        let key_word = u64::from_str_radix(&sha256_hex(key.as_bytes())[..16], 16).unwrap_or(0);
        let mut rng = SplitMix64::new(
            chaos.seed ^ key_word ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let roll = (rng.next_u64() % 100) as u8;
        let kill = roll < chaos.kill_pct;
        let hang = !kill && roll < chaos.kill_pct.saturating_add(chaos.hang_pct);
        (kill, hang)
    }

    /// One child-process attempt under the watchdog.
    ///
    /// The worker's stdin and stdout are one end of a socket pair, the
    /// way inetd hands a connection to a service. Reading the other end
    /// to EOF drains the payload while the worker runs, so output larger
    /// than a pipe buffer cannot wedge it, and also waits for the worker
    /// to finish: EOF comes once it has closed both descriptors, which
    /// exiting does. A worker that closes stdout and keeps running still
    /// holds stdin, so it runs into the deadline like any other hang.
    fn run_attempt(&self, key: &str, spec_line: &str, attempt: u32) -> Attempt {
        let (chaos_kill, chaos_hang) = self.chaos_action(key, attempt);
        let (mut child, mut io) = match self.spawn_worker(chaos_hang) {
            Ok(spawned) => spawned,
            Err(e) => return Attempt::Crash(format!("spawn failed: {e}")),
        };
        if chaos_kill {
            // Simulated OOM-kill: withholding the spec keeps the worker
            // blocked on its read, so the SIGKILL reliably lands mid-job
            // rather than racing a fast completion.
            std::thread::sleep(Duration::from_millis(2));
            let _ = child.kill();
        } else {
            // A worker that exits before reading breaks the socket; that
            // surfaces as its exit status, not as a daemon error.
            let _ = writeln!(io, "{spec_line}");
            let _ = io.shutdown(Shutdown::Write);
        }
        let deadline = Instant::now() + Duration::from_millis(self.opts.timeout_ms);
        let stdout = match read_to_eof(&mut io, deadline) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return match e.kind() {
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => Attempt::Timeout,
                    _ => Attempt::Crash(format!("reading worker output failed: {e}")),
                };
            }
        };
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => return Attempt::Crash(format!("wait failed: {e}")),
        };
        match status.code() {
            Some(0) => Attempt::Success(stdout),
            // Exit 3 is the worker's "typed simulation error" code; its
            // stdout is the rendered FsmcError (provenance included).
            Some(3) => Attempt::TypedError(stdout.trim_end().to_string()),
            Some(code) => Attempt::Crash(format!("worker exited with status {code}")),
            None => Attempt::Crash("worker killed by signal".to_string()),
        }
    }

    /// Spawns a worker whose stdin and stdout are one end of a new
    /// socket pair; returns it with the other end.
    fn spawn_worker(&self, hang: bool) -> std::io::Result<(Child, UnixStream)> {
        let (ours, theirs) = UnixStream::pair()?;
        let mut cmd = Command::new(&self.opts.worker_cmd[0]);
        cmd.args(&self.opts.worker_cmd[1..])
            .stdin(OwnedFd::from(theirs.try_clone()?))
            .stdout(OwnedFd::from(theirs))
            .stderr(Stdio::null());
        if hang {
            cmd.env(HANG_ENV, "1");
        }
        // `cmd` holds this process's copies of the worker's end until it
        // drops on return; EOF on `ours` waits for them to close.
        Ok((cmd.spawn()?, ours))
    }
}

/// Reads `from` to EOF. Each read waits at most for what is left until
/// `deadline`, so output trickled out cannot stretch it; past it the
/// error is `WouldBlock` or `TimedOut`.
fn read_to_eof(from: &mut UnixStream, deadline: Instant) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        from.set_read_timeout(Some(left))?;
        match from.read(&mut buf) {
            Ok(0) => return Ok(out),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        vec!["/bin/sh".into(), "-c".into(), script.into()]
    }

    fn opts(worker_cmd: Vec<String>) -> PoolOptions {
        PoolOptions {
            workers: 2,
            worker_cmd,
            timeout_ms: 1_000,
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 8,
            chaos: None,
        }
    }

    #[test]
    fn healthy_worker_returns_its_stdout() {
        let pool = WorkerPool::new(opts(sh("read line; printf 'payload for %s\\n' \"$line\"")));
        let out = pool.run_job("k", "spec goes here").unwrap();
        assert_eq!(out, "payload for spec goes here\n");
        assert_eq!(pool.counters.simulations.load(Ordering::Relaxed), 1);
        assert_eq!(pool.counters.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn crashing_worker_is_retried_then_poisoned() {
        let pool = WorkerPool::new(opts(sh("read line; exit 7")));
        let record = pool.run_job("k", "spec").unwrap_err();
        assert_eq!(record.attempts, 3);
        assert_eq!(record.reason, "crash");
        assert!(record.error.contains("status 7"), "{}", record.error);
        assert_eq!(pool.counters.retries.load(Ordering::Relaxed), 2);
        assert_eq!(pool.counters.poisoned.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn typed_error_exit_code_carries_the_error_text() {
        let pool = WorkerPool::new(opts(sh("read line; echo 'watchdog: no read retired'; exit 3")));
        let record = pool.run_job("k", "spec").unwrap_err();
        assert_eq!(record.reason, "error");
        assert_eq!(record.error, "watchdog: no read retired");
    }

    #[test]
    fn deadline_exceeded_is_killed_and_reported_as_timeout() {
        let mut o = opts(sh("sleep 30"));
        o.timeout_ms = 40;
        o.max_attempts = 2;
        let pool = WorkerPool::new(o);
        let start = Instant::now();
        let record = pool.run_job("k", "spec").unwrap_err();
        assert_eq!(record.reason, "timeout");
        assert!(record.error.contains("40 ms"), "{}", record.error);
        // Two watchdog kills plus backoff, nowhere near 30 s.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn large_payload_is_not_a_timeout() {
        // Far more than a 64 KiB pipe buffer holds: a worker blocked
        // writing it waits on the daemon, it does not hang.
        let mut o = opts(sh("read line; head -c 100000 /dev/zero | tr '\\0' x"));
        o.timeout_ms = 2_000;
        o.max_attempts = 1;
        let out = WorkerPool::new(o).run_job("k", "spec").expect("a large payload is a success");
        assert_eq!(out.len(), 100_000);
        assert!(out.bytes().all(|b| b == b'x'));
    }

    #[test]
    fn worker_that_closes_stdout_and_hangs_is_killed_at_the_deadline() {
        let mut o = opts(sh("read line; exec >&-; exec sleep 30"));
        o.timeout_ms = 100;
        o.max_attempts = 1;
        let start = Instant::now();
        let record = WorkerPool::new(o).run_job("k", "spec").unwrap_err();
        assert_eq!(record.reason, "timeout");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let pool = WorkerPool::new(PoolOptions {
            backoff_base_ms: 10,
            backoff_cap_ms: 35,
            max_attempts: 6,
            ..opts(sh("true"))
        });
        let delays: Vec<u64> = (1..6).map(|a| pool.backoff_ms(a)).collect();
        assert_eq!(delays, [10, 20, 35, 35, 35]);
    }

    #[test]
    fn crash_streak_shrinks_the_pool_and_success_restores_it() {
        let pool = WorkerPool::new(PoolOptions {
            workers: 3,
            max_attempts: 4,
            ..opts(sh("read line; exit 9"))
        });
        assert_eq!(pool.current_limit(), 3);
        let _ = pool.run_job("k", "spec"); // 4 crashes -> one degradation step
        assert_eq!(pool.current_limit(), 2);
        let healthy = WorkerPool::new(opts(sh("read line; echo ok")));
        // Degrade by hand, then verify successes grow the limit back.
        healthy.active_limit.store(1, Ordering::Relaxed);
        let _ = healthy.run_job("k", "spec").unwrap();
        assert_eq!(healthy.current_limit(), 2);
    }

    #[test]
    fn degraded_pool_runs_concurrent_jobs_in_turn() {
        let pool = WorkerPool::new(opts(sh("read line; sleep 0.05; echo ok")));
        pool.active_limit.store(1, Ordering::Relaxed);
        let pool = &pool;
        std::thread::scope(|s| {
            let jobs = ["a", "b"].map(|k| s.spawn(move || pool.run_job(k, "spec")));
            for job in jobs {
                assert_eq!(job.join().expect("job thread").expect("job succeeds"), "ok\n");
            }
        });
        assert_eq!(*pool.running.lock().unwrap(), 0, "every slot was released");
    }

    #[test]
    fn chaos_is_deterministic_and_spares_the_final_attempt() {
        let chaos = ChaosSpec { kill_pct: 50, hang_pct: 25, seed: 7 };
        let pool = WorkerPool::new(PoolOptions { chaos: Some(chaos), ..opts(sh("true")) });
        for attempt in 0..3 {
            assert_eq!(
                pool.chaos_action("some-key", attempt),
                pool.chaos_action("some-key", attempt),
                "attempt {attempt} verdict is deterministic"
            );
        }
        // Final attempt (max_attempts - 1 = 2) is never faulted.
        assert_eq!(pool.chaos_action("some-key", 2), (false, false));
        // With 100% kill on a 3-attempt job, attempts 0 and 1 die and
        // the final clean attempt still succeeds.
        let always_kill = ChaosSpec { kill_pct: 100, hang_pct: 0, seed: 1 };
        let pool = WorkerPool::new(PoolOptions {
            chaos: Some(always_kill),
            ..opts(sh("read line; echo survived"))
        });
        let out = pool.run_job("key", "spec").unwrap();
        assert_eq!(out, "survived\n");
        assert_eq!(pool.counters.retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hang_chaos_sets_the_env_and_times_out() {
        let chaos = ChaosSpec { kill_pct: 0, hang_pct: 100, seed: 5 };
        let mut o = opts(sh(&format!(
            "read line; if [ -n \"${HANG_ENV}\" ]; then sleep 30; fi; echo done"
        )));
        o.timeout_ms = 40;
        o.chaos = Some(chaos);
        let pool = WorkerPool::new(o);
        let start = Instant::now();
        // Attempts 0 and 1 hang and are killed by the watchdog; the
        // final attempt runs clean.
        let out = pool.run_job("key", "spec").unwrap();
        assert_eq!(out, "done\n");
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(pool.counters.retries.load(Ordering::Relaxed), 2);
    }
}
