//! The `fsmc serve` daemon: socket front-end, job registry, and
//! dispatcher threads gluing the [`crate::queue`], [`crate::pool`] and
//! [`crate::cache`] together.
//!
//! Protocol (one request per connection, line-oriented; the client
//! half-closes after its request and reads the reply to EOF):
//!
//! ```text
//! SUBMIT <priority> <spec line> → CACHED <id> <key>     (cache hit)
//!                               | QUEUED <id> <key>
//!                               | COALESCED <id> <key>  (same key already in flight)
//!                               | BUSY <retry_after_ms> (queue full; back off)
//!                               | ERR <message>         (malformed spec)
//! WAIT <id>                     → DONE <len>␤<payload>
//!                               | FAILED <len>␤<failure record>
//! STATUS                        → human-readable daemon state
//! STATS                         → one machine-readable key=value line
//! PING                          → PONG
//! SHUTDOWN                      → BYE (drain in-flight work and exit)
//! ```
//!
//! Identical specs submitted while one is in flight are **coalesced**
//! onto the running attempt: the simulation is pure, so one execution
//! answers every waiter. A queue entry shed under sustained overload
//! resolves its waiters with a structured `shed` failure record — a
//! typed answer, never silence.

use crate::cache::{Miss, ResultCache};
use crate::pool::{ChaosSpec, PoolOptions, WorkerPool};
use crate::queue::{Admit, JobQueue};
use fsmc_sim::spec::{FailureRecord, JobSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub socket: PathBuf,
    pub cache_dir: PathBuf,
    /// Worker-process pool width.
    pub workers: usize,
    /// Per-attempt deadline (ms).
    pub timeout_ms: u64,
    /// Attempts before a job is poisoned.
    pub max_attempts: u32,
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Worker argv; the spec line is written to the worker's stdin.
    pub worker_cmd: Vec<String>,
    /// Optional deterministic fault injection (kill/hang workers).
    pub chaos: Option<ChaosSpec>,
}

impl ServeOptions {
    /// Options from the `FSMC_*` environment (socket path supplied by
    /// the caller), with the pool running `<current-exe> job-exec`.
    pub fn from_env(socket: PathBuf, worker_cmd: Vec<String>) -> Self {
        ServeOptions {
            socket,
            cache_dir: fsmc_sim::env::cache_dir(),
            workers: fsmc_sim::env::serve_workers(),
            timeout_ms: fsmc_sim::env::job_timeout_ms(),
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            queue_capacity: 256,
            worker_cmd,
            chaos: None,
        }
    }
}

/// Registry state of one submitted job id.
#[derive(Debug, Clone)]
enum JobState {
    Pending,
    Done { payload: String },
    Failed { record: String },
}

#[derive(Default)]
struct Registry {
    by_id: HashMap<u64, JobState>,
    /// Waiters per in-flight cache key (coalescing).
    active_keys: HashMap<String, Vec<u64>>,
    next_id: u64,
}

/// One queued unit of work (all ids for its key live in the registry).
struct WorkItem {
    key: String,
    spec_line: String,
}

struct Shared {
    registry: Mutex<Registry>,
    done: Condvar,
    queue: JobQueue<WorkItem>,
    pool: WorkerPool,
    cache: ResultCache,
    shutdown: AtomicBool,
    /// The daemon's own socket: `SHUTDOWN` connects to it once to wake
    /// the accept loop, which blocks until the next connection.
    socket: PathBuf,
    submitted: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
}

impl Shared {
    /// Resolves every id waiting on `key` with the final state.
    fn complete(&self, key: &str, state: JobState) {
        let mut reg = self.registry.lock().expect("registry lock");
        for id in reg.active_keys.remove(key).unwrap_or_default() {
            reg.by_id.insert(id, state.clone());
        }
        drop(reg);
        self.done.notify_all();
    }
}

/// Runs the daemon until a `SHUTDOWN` request: binds the socket, spawns
/// the dispatcher threads, and serves connections. Returns once the
/// daemon has drained and the socket file is removed.
///
/// # Errors
///
/// An [`std::io::Error`] if the socket cannot be bound.
pub fn serve(opts: ServeOptions) -> std::io::Result<()> {
    // A stale socket file from a crashed daemon would make bind fail;
    // replacing it is exactly the crash-recovery the service promises.
    let _ = std::fs::remove_file(&opts.socket);
    if let Some(dir) = opts.socket.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let listener = UnixListener::bind(&opts.socket)?;
    let shared = Arc::new(Shared {
        registry: Mutex::new(Registry::default()),
        done: Condvar::new(),
        queue: JobQueue::new(opts.queue_capacity, 3, 25),
        pool: WorkerPool::new(PoolOptions {
            workers: opts.workers,
            worker_cmd: opts.worker_cmd.clone(),
            timeout_ms: opts.timeout_ms,
            max_attempts: opts.max_attempts,
            backoff_base_ms: opts.backoff_base_ms,
            backoff_cap_ms: opts.backoff_cap_ms,
            chaos: opts.chaos,
        }),
        cache: ResultCache::new(opts.cache_dir.clone()),
        shutdown: AtomicBool::new(false),
        socket: opts.socket.clone(),
        submitted: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    });
    eprintln!(
        "fsmc serve: listening on {} ({} workers, {} ms deadline, cache {})",
        opts.socket.display(),
        opts.workers,
        opts.timeout_ms,
        opts.cache_dir.display()
    );
    let dispatchers: Vec<_> = (0..opts.workers.max(1))
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || dispatch_loop(&shared))
        })
        .collect();
    let mut connections = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            // After a `SHUTDOWN` the connection that woke this accept is
            // its wake-up, not a request: it gets no handler.
            Ok(_) if shared.shutdown.load(Ordering::SeqCst) => {}
            Ok((stream, _)) => {
                let shared = shared.clone();
                connections.push(std::thread::spawn(move || handle_connection(stream, &shared)));
            }
            Err(e) => {
                eprintln!("fsmc serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        connections.retain(|h| !h.is_finished());
    }
    // Drain: no new work, finish what's queued, answer the last waiters.
    shared.queue.close();
    for d in dispatchers {
        let _ = d.join();
    }
    for c in connections {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(&opts.socket);
    eprintln!("fsmc serve: shut down");
    Ok(())
}

/// A dispatcher thread: pull the most urgent job, run it on the worker
/// pool, persist and publish the outcome.
fn dispatch_loop(shared: &Shared) {
    while let Some(item) = shared.queue.pop() {
        let state = match shared.pool.run_job(&item.key, &item.spec_line) {
            Ok(payload) => {
                if let Err(e) = shared.cache.put(&item.key, &payload) {
                    // The result is still correct and delivered; only
                    // its durability is degraded.
                    eprintln!("fsmc serve: could not persist {}: {e}", item.key);
                }
                JobState::Done { payload }
            }
            Err(record) => JobState::Failed { record: record.encode() },
        };
        shared.complete(&item.key, state);
    }
}

fn handle_connection(stream: UnixStream, shared: &Shared) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut out = stream;
    let reply = respond(line.trim_end(), shared);
    let _ = out.write_all(reply.as_bytes());
    let _ = out.flush();
}

fn respond(request: &str, shared: &Shared) -> String {
    let (verb, rest) = match request.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (request, ""),
    };
    match verb {
        "PING" => "PONG\n".to_string(),
        "SUBMIT" => submit(rest, shared),
        "WAIT" => wait(rest, shared),
        "STATS" => stats_line(shared),
        "STATUS" => status_text(shared),
        "SHUTDOWN" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop, which blocks until a connection.
            let _ = UnixStream::connect(&shared.socket);
            "BYE\n".to_string()
        }
        other => format!("ERR unknown request {other:?}\n"),
    }
}

fn submit(rest: &str, shared: &Shared) -> String {
    let Some((prio_str, spec_line)) = rest.split_once(' ') else {
        return "ERR SUBMIT wants: SUBMIT <priority> <spec>\n".to_string();
    };
    let Ok(priority) = prio_str.parse::<u8>() else {
        return format!("ERR priority {prio_str:?} is not 0-255\n");
    };
    let spec = match JobSpec::parse_line(spec_line) {
        Ok(s) => s,
        Err(e) => return format!("ERR bad spec: {e}\n"),
    };
    let key = spec.cache_key();
    let canonical = spec.canonical_line();
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    // Warm path: serve straight from the content-addressed cache.
    match shared.cache.get(&key) {
        Ok(payload) => {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            let mut reg = shared.registry.lock().expect("registry lock");
            let id = reg.next_id;
            reg.next_id += 1;
            reg.by_id.insert(id, JobState::Done { payload });
            return format!("CACHED {id} {key}\n");
        }
        Err(Miss::Quarantined { reason, moved_to }) => {
            eprintln!(
                "fsmc serve: cache entry for {key} was corrupt ({reason}); \
                 quarantined to {} and recomputing",
                moved_to.display()
            );
        }
        Err(Miss::Absent) => {}
    }
    // The registry lock is held across queue admission: the id must be
    // registered under its key before a dispatcher can possibly pop the
    // item and try to complete it. `JobQueue::push` never blocks, and no
    // other path acquires the queue lock while holding the registry
    // lock, so the ordering is deadlock-free.
    let mut reg = shared.registry.lock().expect("registry lock");
    let id = reg.next_id;
    reg.next_id += 1;
    // Coalesce onto an identical in-flight job: purity means one
    // execution answers everyone.
    if let Some(waiters) = reg.active_keys.get_mut(&key) {
        waiters.push(id);
        reg.by_id.insert(id, JobState::Pending);
        shared.coalesced.fetch_add(1, Ordering::Relaxed);
        return format!("COALESCED {id} {key}\n");
    }
    match shared.queue.push(priority, WorkItem { key: key.clone(), spec_line: canonical }) {
        admit @ (Admit::Queued | Admit::Shed(_)) => {
            reg.by_id.insert(id, JobState::Pending);
            reg.active_keys.insert(key.clone(), vec![id]);
            if let Admit::Shed(victim) = admit {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let record = FailureRecord {
                    attempts: 0,
                    reason: "shed".to_string(),
                    error: "queue overloaded; lower-priority job shed before running".to_string(),
                };
                let state = JobState::Failed { record: record.encode() };
                for victim_id in reg.active_keys.remove(&victim.key).unwrap_or_default() {
                    reg.by_id.insert(victim_id, state.clone());
                }
                drop(reg);
                shared.done.notify_all();
            }
            format!("QUEUED {id} {key}\n")
        }
        Admit::Busy { retry_after_ms } => format!("BUSY {retry_after_ms}\n"),
    }
}

fn wait(rest: &str, shared: &Shared) -> String {
    let Ok(id) = rest.trim().parse::<u64>() else {
        return format!("ERR job id {rest:?} is not a number\n");
    };
    let mut reg = shared.registry.lock().expect("registry lock");
    loop {
        match reg.by_id.get(&id) {
            None => return format!("ERR unknown job id {id}\n"),
            Some(JobState::Done { payload }) => {
                return format!("DONE {}\n{payload}", payload.len());
            }
            Some(JobState::Failed { record }) => {
                return format!("FAILED {}\n{record}", record.len());
            }
            Some(JobState::Pending) => {
                reg = shared.done.wait(reg).expect("registry lock");
            }
        }
    }
}

fn stats_line(shared: &Shared) -> String {
    format!(
        "submitted={} cache_hits={} coalesced={} simulations={} retries={} poisoned={} shed={} \
         queue={} limit={} workers={} quarantined={}\n",
        shared.submitted.load(Ordering::Relaxed),
        shared.cache_hits.load(Ordering::Relaxed),
        shared.coalesced.load(Ordering::Relaxed),
        shared.pool.counters.simulations.load(Ordering::Relaxed),
        shared.pool.counters.retries.load(Ordering::Relaxed),
        shared.pool.counters.poisoned.load(Ordering::Relaxed),
        shared.shed.load(Ordering::Relaxed),
        shared.queue.len(),
        shared.pool.current_limit(),
        shared.pool.width(),
        shared.cache.quarantined_count(),
    )
}

fn status_text(shared: &Shared) -> String {
    let reg = shared.registry.lock().expect("registry lock");
    let pending = reg.by_id.values().filter(|s| matches!(s, JobState::Pending)).count();
    let done = reg.by_id.values().filter(|s| matches!(s, JobState::Done { .. })).count();
    let failed = reg.by_id.values().filter(|s| matches!(s, JobState::Failed { .. })).count();
    drop(reg);
    format!(
        "fsmc experiment service\n\
         jobs: {pending} pending, {done} done, {failed} failed\n\
         queue depth: {}\n\
         pool: {} of {} workers active (degradation-adjusted)\n\
         {}",
        shared.queue.len(),
        shared.pool.current_limit(),
        shared.pool.width(),
        stats_line(shared),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::Read;
    use std::time::Instant;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsmc-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fake worker that echoes a valid-looking payload for any spec.
    /// Server tests exercise the daemon plumbing, not the simulator —
    /// the real worker binary is covered by the root integration tests.
    fn echo_worker() -> Vec<String> {
        vec!["/bin/sh".into(), "-c".into(), "read line; printf 'payload\\n'".into()]
    }

    fn options(dir: &std::path::Path, worker: Vec<String>) -> ServeOptions {
        ServeOptions {
            socket: dir.join("fsmc.sock"),
            cache_dir: dir.join("cache"),
            workers: 2,
            timeout_ms: 1_000,
            max_attempts: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            queue_capacity: 16,
            worker_cmd: worker,
            chaos: None,
        }
    }

    const SPEC: &str = "cores=2 cycles=1000 device=ddr3-1600 mix=mix1 scheduler=fs-rp seed=1";

    fn start(opts: ServeOptions) -> (Client, std::thread::JoinHandle<()>) {
        let socket = opts.socket.clone();
        let h = std::thread::spawn(move || serve(opts).expect("daemon runs"));
        let client = Client::new(socket);
        for _ in 0..200 {
            if client.ping() {
                return (client, h);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never came up");
    }

    /// Whether the daemon thread exits cleanly within `limit`.
    fn joins_within(h: std::thread::JoinHandle<()>, limit: Duration) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(h.join().is_ok()));
        rx.recv_timeout(limit) == Ok(true)
    }

    #[test]
    fn submit_wait_roundtrip_then_cache_hit() {
        let dir = scratch("roundtrip");
        let (client, h) = start(options(&dir, echo_worker()));
        let spec = JobSpec::parse_line(SPEC).unwrap();
        let first = client.submit(0, &spec).unwrap();
        assert!(!first.cached);
        let payload = client.wait(first.id).unwrap().expect("job succeeds");
        assert_eq!(payload, "payload\n");
        // Second submission of the same spec is a pure cache hit.
        let second = client.submit(0, &spec).unwrap();
        assert!(second.cached);
        assert_eq!(client.wait(second.id).unwrap().expect("cached"), "payload\n");
        let stats = client.stats().unwrap();
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("simulations=1"), "{stats}");
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashing_worker_poisons_with_structured_record() {
        let dir = scratch("poison");
        let worker = vec!["/bin/sh".into(), "-c".into(), "read line; exit 9".into()];
        let (client, h) = start(options(&dir, worker));
        let spec = JobSpec::parse_line(SPEC).unwrap();
        let sub = client.submit(0, &spec).unwrap();
        let record = client.wait(sub.id).unwrap().expect_err("job poisons");
        assert_eq!(record.attempts, 2);
        assert_eq!(record.reason, "crash");
        let stats = client.stats().unwrap();
        assert!(stats.contains("poisoned=1"), "{stats}");
        assert!(stats.contains("retries=1"), "{stats}");
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_recomputed() {
        let dir = scratch("quarantine");
        let (client, h) = start(options(&dir, echo_worker()));
        let spec = JobSpec::parse_line(SPEC).unwrap();
        let sub = client.submit(0, &spec).unwrap();
        client.wait(sub.id).unwrap().expect("first run");
        // Truncate the entry on disk behind the daemon's back.
        let cache = ResultCache::new(dir.join("cache"));
        let entry = cache.entry_path(&spec.cache_key());
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        // The resubmit is NOT served from the corrupt entry.
        let again = client.submit(0, &spec).unwrap();
        assert!(!again.cached, "corrupt entry must not be a cache hit");
        assert_eq!(client.wait(again.id).unwrap().expect("recomputed"), "payload\n");
        let stats = client.stats().unwrap();
        assert!(stats.contains("quarantined=1"), "{stats}");
        assert!(stats.contains("simulations=2"), "{stats}");
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_inflight_specs_coalesce() {
        let dir = scratch("coalesce");
        // Slow worker so the second submit lands while the first runs.
        let worker = vec!["/bin/sh".into(), "-c".into(), "read line; sleep 0.3; echo slow".into()];
        let (client, h) = start(options(&dir, worker));
        let spec = JobSpec::parse_line(SPEC).unwrap();
        let a = client.submit(0, &spec).unwrap();
        let b = client.submit(0, &spec).unwrap();
        assert_eq!(client.wait(a.id).unwrap().expect("a"), "slow\n");
        assert_eq!(client.wait(b.id).unwrap().expect("b"), "slow\n");
        let stats = client.stats().unwrap();
        assert!(stats.contains("coalesced=1"), "{stats}");
        assert!(stats.contains("simulations=1"), "{stats}");
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let dir = scratch("badreq");
        let (client, h) = start(options(&dir, echo_worker()));
        assert!(client.raw_request("SUBMIT 0 not-a-spec").unwrap().starts_with("ERR bad spec"));
        assert!(client.raw_request("WAIT 9999").unwrap().starts_with("ERR unknown job id"));
        assert!(client.raw_request("FROB").unwrap().starts_with("ERR unknown request"));
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_wakes_an_idle_accept() {
        let dir = scratch("idle-shutdown");
        let (client, h) = start(options(&dir, echo_worker()));
        client.shutdown();
        assert!(joins_within(h, Duration::from_secs(2)), "daemon still blocked in accept");
        assert!(!dir.join("fsmc.sock").exists(), "socket file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_a_pending_wait() {
        let dir = scratch("drain");
        let worker = vec!["/bin/sh".into(), "-c".into(), "read line; sleep 0.3; echo slow".into()];
        let (client, h) = start(options(&dir, worker));
        let sub = client.submit(0, &JobSpec::parse_line(SPEC).unwrap()).unwrap();
        // Connected before the SHUTDOWN connection, so the accept loop
        // takes this WAIT first and hands it a handler.
        let mut waiter = UnixStream::connect(dir.join("fsmc.sock")).unwrap();
        waiter.write_all(format!("WAIT {}\n", sub.id).as_bytes()).unwrap();
        let reply = std::thread::spawn(move || {
            let mut reply = String::new();
            waiter.read_to_string(&mut reply).map(|_| reply)
        });
        client.shutdown();
        assert_eq!(reply.join().unwrap().unwrap(), "DONE 5\nslow\n");
        assert!(joins_within(h, Duration::from_secs(5)), "daemon did not drain and exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_pings_do_not_pay_a_poll() {
        let dir = scratch("pings");
        let (client, h) = start(options(&dir, echo_worker()));
        let t = Instant::now();
        for _ in 0..100 {
            assert!(client.ping());
        }
        let elapsed = t.elapsed();
        client.shutdown();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(elapsed < Duration::from_millis(500), "100 PINGs took {elapsed:?}");
    }
}
