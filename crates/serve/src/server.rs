//! The daemon: accept loop, connection handlers, and the worker pool.
//!
//! Life of a submit:
//!
//! 1. **Cache probe.** The request's [`CacheKey`] is looked up in the
//!    content-addressed store — a hit is written back immediately,
//!    byte-identical to the run that produced it. No lock beyond the
//!    store's own map, no queue, no machine: this is the path that
//!    scales to heavy repeat traffic.
//! 2. **Coalesce.** A miss whose key is already queued or running
//!    *joins* the in-flight job instead of submitting a duplicate —
//!    determinism guarantees the joiner would compute the same bytes.
//! 3. **Admit or reject.** A genuinely new job passes admission
//!    control: a full queue rejects with `retry_after_ms` (429-style)
//!    and a draining server rejects outright. Admitted jobs wait in
//!    the aged priority queue.
//! 4. **Run.** A worker pops the job and runs it under
//!    [`bgp_core::supervisor`] — wall-clock watchdog, bounded retries,
//!    crash classification — publishing the live machine through the
//!    supervisor's [`RunObserver`] hook so subscribed clients stream
//!    phase updates while the job runs.
//! 5. **Publish.** The result JSON is stored write-once in the blob
//!    store; every waiter (submitter + joiners) is notified and the
//!    key leaves the in-flight table, so later submits hit the cache.

use crate::proto::{
    CacheOutcome, ParseError, Request, SubmitReq, MAX_CONNECTIONS, MAX_REQUEST_BYTES, PROTO_VERSION,
};
use crate::queue::{JobQueue, PushError, QueueConfig, QueueItem};
use bgp_core::supervisor::{
    supervise_observed, RunObserver, SupervisorConfig, SupervisedRun,
};
use bgp_mpi::Machine;
use bgp_nas::KernelResult;
use bgp_snapshot::{BlobStore, CacheKey};
use bgp_trace::json::{Arr, Obj};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration (daemon-wide policy).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads running jobs (bounded pool).
    pub workers: usize,
    /// Admission queue policy.
    pub queue: QueueConfig,
    /// Persist cached results here (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// `sim_threads` for every job the pool runs (cosmetic to results;
    /// keep at 1 so `workers` is the real concurrency bound).
    pub job_sim_threads: usize,
    /// Trace every job (outcome-relevant: moves every cache key).
    pub trace_jobs: bool,
    /// Wall-clock watchdog per job attempt.
    pub wall_budget: Option<Duration>,
    /// Supervisor retries per job after the first attempt.
    pub max_retries: u32,
    /// Suppress per-job log lines on stderr.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: QueueConfig::default(),
            cache_dir: None,
            job_sim_threads: 1,
            trace_jobs: false,
            wall_budget: Some(Duration::from_secs(300)),
            max_retries: 1,
            quiet: false,
        }
    }
}

/// Fallback per-job wall estimate before any job has completed
/// (feeds the `retry_after_ms` hint only).
const DEFAULT_JOB_MS: u64 = 250;
/// Handler poll period while waiting on an in-flight job.
const SLOT_POLL: Duration = Duration::from_millis(50);
/// Idle read timeout so handlers notice shutdown.
const READ_POLL: Duration = Duration::from_millis(250);

/// Where one in-flight job stands.
enum SlotState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Running on this machine (live phase counter).
    Running(Arc<Machine>),
    /// Completed; canonical result bytes.
    Done(Arc<Vec<u8>>),
    /// Supervision gave up (message for the waiters).
    Failed(String),
}

/// Shared wait-point for everyone interested in one in-flight job.
struct JobSlot {
    st: Mutex<SlotState>,
    cv: Condvar,
}

impl JobSlot {
    fn new() -> JobSlot {
        JobSlot { st: Mutex::new(SlotState::Queued), cv: Condvar::new() }
    }

    fn set(&self, next: SlotState) {
        *self.st.lock().unwrap_or_else(|e| e.into_inner()) = next;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct Stats {
    submits: AtomicU64,
    batches: AtomicU64,
    subscribes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    joined: AtomicU64,
    rejected_backpressure: AtomicU64,
    rejected_draining: AtomicU64,
    bad_requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    running: AtomicU64,
    job_wall_ms: AtomicU64,
    latency: Mutex<LatencyRing>,
}

/// Completed-job wall times retained for the latency percentiles
/// (sliding window over the most recent completions).
const LATENCY_WINDOW: usize = 4096;

#[derive(Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, wall_ms: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(wall_ms);
        } else {
            self.samples[self.next] = wall_ms;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    /// `(p50, p90, p99, sample count)` over the retained window, by
    /// nearest-rank on the sorted samples (zeros when empty).
    fn percentiles(&self) -> (u64, u64, u64, u64) {
        if self.samples.is_empty() {
            return (0, 0, 0, 0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let pick = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        (pick(0.50), pick(0.90), pick(0.99), sorted.len() as u64)
    }
}

struct ServeState {
    cfg: ServerConfig,
    addr: SocketAddr,
    cache: BlobStore,
    queue: JobQueue,
    inflight: Mutex<HashMap<CacheKey, Arc<JobSlot>>>,
    stats: Stats,
    /// Connection handlers currently running.
    connections: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

impl ServeState {
    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.cfg.quiet {
            eprintln!("bgpc-serve: {msg}");
        }
    }

    /// Rough per-job wall time for the retry-after hint.
    fn mean_job_ms(&self) -> u64 {
        let done = self.stats.completed.load(Ordering::Relaxed);
        match self.stats.job_wall_ms.load(Ordering::Relaxed).checked_div(done) {
            None => DEFAULT_JOB_MS,
            Some(mean) => mean.max(1),
        }
    }

    fn retry_after_ms(&self, depth: usize) -> u64 {
        let workers = self.cfg.workers.max(1) as u64;
        ((depth as u64 + 1) * self.mean_job_ms() / workers).clamp(10, 60_000)
    }
}

/// A bound, not-yet-running server (hold it to learn the address
/// before entering the accept loop).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

/// A server running on a background thread (in-process harnesses:
/// tests, `fig_ext_service`).
pub struct ServerHandle {
    state: Arc<ServeState>,
    join: std::thread::JoinHandle<()>,
}

impl Server {
    /// Bind the listener and build the shared state.
    ///
    /// # Errors
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = match &cfg.cache_dir {
            Some(dir) => BlobStore::persistent(dir),
            None => BlobStore::in_memory(),
        };
        let queue = JobQueue::new(cfg.queue);
        let state = Arc::new(ServeState {
            addr,
            cache,
            queue,
            inflight: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            connections: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (use with `addr` port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Run to completion: workers + accept loop, returning after a
    /// `shutdown` request has drained the queue and every worker has
    /// exited. Connection handlers are detached; in-flight responses
    /// finish on their own sockets.
    pub fn run(self) {
        let Server { listener, state } = self;
        let workers: Vec<_> = (0..state.cfg.workers.max(1))
            .map(|i| {
                let st = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("bgp-worker-{i}"))
                    .spawn(move || worker_loop(&st))
                    .expect("spawn worker")
            })
            .collect();
        state.log(format_args!(
            "listening on {} ({} workers, queue cap {})",
            state.addr,
            state.cfg.workers.max(1),
            state.cfg.queue.capacity
        ));
        for conn in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            if state.connections.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                state.connections.fetch_sub(1, Ordering::SeqCst);
                // A short write on a fresh socket; the timeout keeps a
                // client that never reads from stalling the accept loop.
                let reply = reject_backpressure(&state, state.queue.len());
                let _ = stream.set_write_timeout(Some(READ_POLL));
                let _ = write_line(&mut stream, &reply);
                continue;
            }
            let st = Arc::clone(&state);
            let spawned = std::thread::Builder::new().name("bgp-conn".into()).spawn(move || {
                let _open = ConnectionSlot(&st.connections);
                let _ = handle_connection(&st, stream);
            });
            if spawned.is_err() {
                state.connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Shutdown: the queue is closed; workers drain what was
        // admitted, then exit. Every admitted job still completes.
        for w in workers {
            let _ = w.join();
        }
        state.log(format_args!(
            "shut down: {} completed, {} failed, {} hits, {} rejected",
            state.stats.completed.load(Ordering::Relaxed),
            state.stats.failed.load(Ordering::Relaxed),
            state.stats.hits.load(Ordering::Relaxed),
            state.stats.rejected_backpressure.load(Ordering::Relaxed)
        ));
    }

    /// Bind and run on a background thread.
    ///
    /// # Errors
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let state = Arc::clone(&server.state);
        let join = std::thread::Builder::new()
            .name("bgp-serve".into())
            .spawn(move || server.run())?;
        Ok(ServerHandle { state, join })
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Request a graceful shutdown (drain admitted jobs, then exit)
    /// and wait for the server thread to finish. Works directly on the
    /// shared state, so it needs no connection slot.
    pub fn shutdown(self) {
        begin_shutdown(&self.state);
        wake_accept(&self.state);
        let _ = self.join.join();
    }
}

/// Stop admitting and close the queue; workers drain what was
/// admitted, then exit.
fn begin_shutdown(state: &ServeState) {
    state.draining.store(true, Ordering::SeqCst);
    state.queue.close();
    state.shutdown.store(true, Ordering::SeqCst);
}

/// Unblock the accept loop so `run` can join the workers. The loop
/// checks the shutdown flag before the connection cap, so this connect
/// gets through with every slot held.
fn wake_accept(state: &ServeState) {
    let _ = TcpStream::connect(state.addr);
}

/// One running connection handler: releases its slot of
/// [`MAX_CONNECTIONS`] when the handler ends, by return or by panic.
struct ConnectionSlot<'a>(&'a AtomicUsize);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn handle_connection(state: &Arc<ServeState>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Past `MAX_REQUEST_BYTES` the line is answered at once and the rest
    // of it discarded up to its newline, so no line grows without bound.
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Ok(()), // client closed
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        if !oversized && line.len() + body.len() > MAX_REQUEST_BYTES {
            oversized = true;
            line.clear();
            write_line(&mut writer, &reject_too_large(state))?;
        }
        if !oversized {
            line.extend_from_slice(body);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_none() {
            continue;
        }
        if std::mem::take(&mut oversized) {
            continue;
        }
        let shutdown_after = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => false,
            Ok(text) => dispatch(state, text, &mut writer)?,
            Err(e) => {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let resp = Obj::new()
                    .field_bool("ok", false)
                    .field_str("error", "bad-request")
                    .field_str("detail", &format!("request line is not UTF-8: {e}"))
                    .finish();
                write_line(&mut writer, &resp)?;
                false
            }
        };
        line.clear();
        if shutdown_after {
            return Ok(());
        }
    }
}

fn reject_too_large(state: &ServeState) -> String {
    state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
    Obj::new()
        .field_bool("ok", false)
        .field_str("error", "request-too-large")
        .field_u64("limit", MAX_REQUEST_BYTES as u64)
        .field_str(
            "detail",
            &format!("request line exceeds {MAX_REQUEST_BYTES} bytes; discarded up to its newline"),
        )
        .finish()
}

/// Handle one request line; `Ok(true)` means the connection should
/// close (shutdown acknowledged).
fn dispatch(
    state: &Arc<ServeState>,
    line: &str,
    out: &mut TcpStream,
) -> std::io::Result<bool> {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(ParseError::UnsupportedVersion { requested, detail }) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let resp = Obj::new()
                .field_bool("ok", false)
                .field_str("error", "unsupported-version")
                .field_u64("requested", requested)
                .field_u64("supported", PROTO_VERSION)
                .field_str("detail", &detail)
                .finish();
            write_line(out, &resp)?;
            return Ok(false);
        }
        Err(ParseError::Malformed(detail)) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let resp = Obj::new()
                .field_bool("ok", false)
                .field_str("error", "bad-request")
                .field_str("detail", &detail)
                .finish();
            write_line(out, &resp)?;
            return Ok(false);
        }
    };
    match req {
        Request::Ping => {
            write_line(
                out,
                &Obj::new().field_bool("ok", true).field_bool("pong", true).finish(),
            )?;
            Ok(false)
        }
        Request::Stats => {
            write_line(out, &stats_response(state))?;
            Ok(false)
        }
        Request::Status { key } => {
            write_line(out, &status_response(state, key))?;
            Ok(false)
        }
        Request::Drain => {
            state.draining.store(true, Ordering::SeqCst);
            state.log(format_args!("draining (queued {})", state.queue.len()));
            let resp = Obj::new()
                .field_bool("ok", true)
                .field_bool("draining", true)
                .field_u64("queued", state.queue.len() as u64)
                .field_u64("running", state.stats.running.load(Ordering::Relaxed))
                .finish();
            write_line(out, &resp)?;
            Ok(false)
        }
        Request::Shutdown => {
            begin_shutdown(state);
            let resp = Obj::new()
                .field_bool("ok", true)
                .field_bool("shutdown", true)
                .field_u64("queued", state.queue.len() as u64)
                .finish();
            write_line(out, &resp)?;
            wake_accept(state);
            Ok(true)
        }
        Request::Submit(sub) => {
            handle_submit(state, sub, out)?;
            Ok(false)
        }
        Request::Batch(jobs) => {
            handle_batch(state, jobs, out)?;
            Ok(false)
        }
        Request::Subscribe { key, stream } => {
            handle_subscribe(state, key, stream, out)?;
            Ok(false)
        }
    }
}

fn stats_response(state: &ServeState) -> String {
    let s = &state.stats;
    let (p50, p90, p99, samples) =
        s.latency.lock().unwrap_or_else(|e| e.into_inner()).percentiles();
    let body = Obj::new()
        .field_u64("submits", s.submits.load(Ordering::Relaxed))
        .field_u64("batches", s.batches.load(Ordering::Relaxed))
        .field_u64("subscribes", s.subscribes.load(Ordering::Relaxed))
        .field_u64("hits", s.hits.load(Ordering::Relaxed))
        .field_u64("misses", s.misses.load(Ordering::Relaxed))
        .field_u64("joined", s.joined.load(Ordering::Relaxed))
        .field_u64("rejected_backpressure", s.rejected_backpressure.load(Ordering::Relaxed))
        .field_u64("rejected_draining", s.rejected_draining.load(Ordering::Relaxed))
        .field_u64("bad_requests", s.bad_requests.load(Ordering::Relaxed))
        .field_u64("completed", s.completed.load(Ordering::Relaxed))
        .field_u64("failed", s.failed.load(Ordering::Relaxed))
        .field_u64("running", s.running.load(Ordering::Relaxed))
        .field_u64("queued", state.queue.len() as u64)
        .field_u64("latency_p50_ms", p50)
        .field_u64("latency_p90_ms", p90)
        .field_u64("latency_p99_ms", p99)
        .field_u64("latency_samples", samples)
        .field_u64("cache_entries", state.cache.len() as u64)
        .field_u64("workers", state.cfg.workers.max(1) as u64)
        .field_bool("draining", state.draining.load(Ordering::SeqCst))
        .finish();
    Obj::new().field_bool("ok", true).field_raw("stats", &body).finish()
}

fn status_response(state: &ServeState, key: CacheKey) -> String {
    let state_token = if state.cache.get(key).is_some() {
        "done"
    } else {
        let inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match inflight.get(&key) {
            Some(slot) => match &*slot.st.lock().unwrap_or_else(|e| e.into_inner()) {
                SlotState::Queued => "queued",
                SlotState::Running(_) => "running",
                SlotState::Done(_) => "done",
                SlotState::Failed(_) => "failed",
            },
            None => "unknown",
        }
    };
    Obj::new()
        .field_bool("ok", true)
        .field_str("key", &key.hex())
        .field_str("state", state_token)
        .finish()
}

/// Terminal response for a satisfied submit. `result` is spliced
/// verbatim from the canonical cached bytes and is always the LAST
/// member (see [`crate::proto::result_payload`]).
fn submit_response(
    outcome: CacheOutcome,
    key: CacheKey,
    queue_ms: u64,
    bytes: &[u8],
) -> String {
    let result = std::str::from_utf8(bytes).expect("results are UTF-8 JSON");
    Obj::new()
        .field_bool("ok", true)
        .field_str("cache", outcome.token())
        .field_str("key", &key.hex())
        .field_u64("queue_ms", queue_ms)
        .field_raw("result", result)
        .finish()
}

fn reject_backpressure(state: &ServeState, depth: usize) -> String {
    state.stats.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
    Obj::new()
        .field_bool("ok", false)
        .field_str("error", "backpressure")
        .field_u64("retry_after_ms", state.retry_after_ms(depth))
        .field_u64("queued", depth as u64)
        .finish()
}

fn reject_draining(state: &ServeState) -> String {
    state.stats.rejected_draining.fetch_add(1, Ordering::Relaxed);
    Obj::new().field_bool("ok", false).field_str("error", "draining").finish()
}

fn job_failed_response(key: CacheKey, detail: &str) -> String {
    Obj::new()
        .field_bool("ok", false)
        .field_str("error", "job-failed")
        .field_str("key", &key.hex())
        .field_str("detail", detail)
        .finish()
}

/// What happened to one submission at admission time.
enum Admission {
    /// Served from the content-addressed store; no machine ran.
    Cached(Arc<Vec<u8>>),
    /// Admitted (miss) or coalesced (join); wait on the slot.
    Wait(Arc<JobSlot>, CacheOutcome),
    /// Refused; the pre-built terminal response line.
    Reject(String),
}

/// Steps 1–3 of a submit (cache probe, coalesce, admit) without
/// waiting — shared by lone submits and batch envelopes, which admit
/// every job *before* waiting on any so a batch runs with the pool's
/// full parallelism.
fn admit(state: &Arc<ServeState>, sub: SubmitReq) -> (CacheKey, Admission) {
    state.stats.submits.fetch_add(1, Ordering::Relaxed);
    let key = sub.cache_key(state.cfg.job_sim_threads, state.cfg.trace_jobs);

    // 1. Cache: the scalable path.
    if let Some(bytes) = state.cache.get(key) {
        state.stats.hits.fetch_add(1, Ordering::Relaxed);
        return (key, Admission::Cached(bytes));
    }

    // 2./3. Coalesce onto an in-flight job, or admit a new one.
    let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = inflight.get(&key) {
        state.stats.joined.fetch_add(1, Ordering::Relaxed);
        return (key, Admission::Wait(Arc::clone(slot), CacheOutcome::Joined));
    }
    if state.draining.load(Ordering::SeqCst) {
        return (key, Admission::Reject(reject_draining(state)));
    }
    let slot = Arc::new(JobSlot::new());
    inflight.insert(key, Arc::clone(&slot));
    match state.queue.push(key, sub) {
        Ok(_) => {
            state.stats.misses.fetch_add(1, Ordering::Relaxed);
            (key, Admission::Wait(slot, CacheOutcome::Miss))
        }
        Err(PushError::Full { depth }) => {
            inflight.remove(&key);
            (key, Admission::Reject(reject_backpressure(state, depth)))
        }
        Err(PushError::Closed) => {
            inflight.remove(&key);
            (key, Admission::Reject(reject_draining(state)))
        }
    }
}

/// Step 4: wait for the worker to resolve `slot`, streaming `update`
/// lines to `out` when `stream` is set, and return the terminal
/// response line (not yet written).
fn await_job(
    slot: &JobSlot,
    key: CacheKey,
    outcome: CacheOutcome,
    stream: bool,
    out: &mut TcpStream,
) -> std::io::Result<String> {
    let started = Instant::now();
    let mut last_update: Option<(&'static str, u64)> = None;
    loop {
        enum View {
            Waiting(&'static str, u64),
            Done(Arc<Vec<u8>>),
            Failed(String),
        }
        // Snapshot *before* waiting: a streamed submit that finds the
        // job pending emits its state right away, so every miss/join
        // with `stream` sees at least one update line.
        let view = {
            let guard = slot.st.lock().unwrap_or_else(|e| e.into_inner());
            match &*guard {
                SlotState::Queued => View::Waiting("queued", 0),
                SlotState::Running(machine) => View::Waiting("running", machine.phases()),
                SlotState::Done(bytes) => View::Done(Arc::clone(bytes)),
                SlotState::Failed(msg) => View::Failed(msg.clone()),
            }
        };
        match view {
            View::Done(bytes) => {
                let queue_ms = started.elapsed().as_millis() as u64;
                return Ok(submit_response(outcome, key, queue_ms, &bytes));
            }
            View::Failed(detail) => {
                return Ok(job_failed_response(key, &detail));
            }
            View::Waiting(token, phase) => {
                if stream && last_update != Some((token, phase)) {
                    last_update = Some((token, phase));
                    let body = Obj::new()
                        .field_str("key", &key.hex())
                        .field_str("state", token)
                        .field_u64("phase", phase)
                        .finish();
                    let update = Obj::new().field_raw("update", &body).finish();
                    write_line(out, &update)?;
                }
                let guard = slot.st.lock().unwrap_or_else(|e| e.into_inner());
                drop(
                    slot.cv
                        .wait_timeout(guard, SLOT_POLL)
                        .unwrap_or_else(|e| e.into_inner()),
                );
            }
        }
    }
}

fn handle_submit(
    state: &Arc<ServeState>,
    sub: SubmitReq,
    out: &mut TcpStream,
) -> std::io::Result<()> {
    let stream = sub.stream;
    let (key, admission) = admit(state, sub);
    let terminal = match admission {
        Admission::Cached(bytes) => submit_response(CacheOutcome::Hit, key, 0, &bytes),
        Admission::Reject(line) => line,
        Admission::Wait(slot, outcome) => await_job(&slot, key, outcome, stream, out)?,
    };
    write_line(out, &terminal)
}

/// One envelope, many jobs: admit every job first, then collect each
/// job's terminal object in submission order. Per-job failures and
/// rejects land in the `results` array; the envelope itself always
/// completes. Update streaming is suppressed (one response line per
/// envelope).
fn handle_batch(
    state: &Arc<ServeState>,
    jobs: Vec<SubmitReq>,
    out: &mut TcpStream,
) -> std::io::Result<()> {
    state.stats.batches.fetch_add(1, Ordering::Relaxed);
    let admitted: Vec<(CacheKey, Admission)> =
        jobs.into_iter().map(|sub| admit(state, sub)).collect();
    let count = admitted.len();
    let mut results = Arr::new();
    for (key, admission) in admitted {
        let terminal = match admission {
            Admission::Cached(bytes) => {
                submit_response(CacheOutcome::Hit, key, 0, &bytes)
            }
            Admission::Reject(line) => line,
            Admission::Wait(slot, outcome) => {
                await_job(&slot, key, outcome, false, out)?
            }
        };
        results = results.push_raw(&terminal);
    }
    let resp = Obj::new()
        .field_bool("ok", true)
        .field_u64("jobs", count as u64)
        .field_raw("results", &results.finish())
        .finish();
    write_line(out, &resp)
}

/// Attach to a key without submitting work: cached keys answer like a
/// hit, in-flight keys are awaited (streaming updates if asked), and
/// keys the server has never seen are refused — subscribing never
/// enqueues a job.
fn handle_subscribe(
    state: &Arc<ServeState>,
    key: CacheKey,
    stream: bool,
    out: &mut TcpStream,
) -> std::io::Result<()> {
    state.stats.subscribes.fetch_add(1, Ordering::Relaxed);
    if let Some(bytes) = state.cache.get(key) {
        state.stats.hits.fetch_add(1, Ordering::Relaxed);
        return write_line(out, &submit_response(CacheOutcome::Hit, key, 0, &bytes));
    }
    let slot = {
        let inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.get(&key).map(Arc::clone)
    };
    if let Some(slot) = slot {
        let terminal = await_job(&slot, key, CacheOutcome::Joined, stream, out)?;
        return write_line(out, &terminal);
    }
    // The job may have finished between the cache probe and the
    // in-flight lookup (workers publish to the cache first, then
    // retire the slot) — re-probe before declaring the key unknown.
    if let Some(bytes) = state.cache.get(key) {
        state.stats.hits.fetch_add(1, Ordering::Relaxed);
        return write_line(out, &submit_response(CacheOutcome::Hit, key, 0, &bytes));
    }
    let resp = Obj::new()
        .field_bool("ok", false)
        .field_str("error", "unknown-key")
        .field_str("key", &key.hex())
        .finish();
    write_line(out, &resp)
}

/// Publishes each attempt's live machine into the job slot so waiters
/// can stream its phase counter.
struct SlotObserver<'a> {
    slot: &'a JobSlot,
}

impl RunObserver for SlotObserver<'_> {
    fn attempt_started(
        &self,
        _attempt: u32,
        _resumed_from: Option<u64>,
        machine: &Arc<Machine>,
    ) {
        self.slot.set(SlotState::Running(Arc::clone(machine)));
    }
}

fn worker_loop(state: &Arc<ServeState>) {
    while let Some(item) = state.queue.pop_blocking() {
        state.stats.running.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcome = run_job(state, &item);
        let wall_ms = started.elapsed().as_millis() as u64;
        // Publish order matters: install the result (or failure),
        // *then* remove from in-flight, then notify — a submit racing
        // in either finds the in-flight slot or the cache entry, never
        // neither.
        let slot = {
            let inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
            inflight.get(&item.key).map(Arc::clone)
        };
        let next = match outcome {
            Ok(bytes) => {
                state.stats.completed.fetch_add(1, Ordering::Relaxed);
                state.stats.job_wall_ms.fetch_add(wall_ms, Ordering::Relaxed);
                state
                    .stats
                    .latency
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(wall_ms);
                state.log(format_args!(
                    "job {} completed in {wall_ms} ms ({} queued)",
                    item.key.hex(),
                    state.queue.len()
                ));
                SlotState::Done(bytes)
            }
            Err(msg) => {
                state.stats.failed.fetch_add(1, Ordering::Relaxed);
                state.log(format_args!("job {} failed: {msg}", item.key.hex()));
                SlotState::Failed(msg)
            }
        };
        {
            let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = &slot {
                slot.set(next);
            }
            inflight.remove(&item.key);
        }
        state.stats.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run one admitted job under supervision and build its canonical
/// result bytes.
fn run_job(state: &Arc<ServeState>, item: &QueueItem) -> Result<Arc<Vec<u8>>, String> {
    let spec = item.req.job_spec(state.cfg.job_sim_threads, state.cfg.trace_jobs);
    let sup = SupervisorConfig {
        wall_budget: state.cfg.wall_budget,
        max_retries: state.cfg.max_retries,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_secs(2),
        inject_kill_at_phase: None,
    };
    let slot = {
        let inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight
            .get(&item.key)
            .map(Arc::clone)
            .ok_or("in-flight entry vanished before the run")?
    };
    let observer = SlotObserver { slot: &slot };
    let (kernel, class) = (item.req.kernel, item.req.class);
    let run = supervise_observed(&spec, &sup, move |ctx| kernel.exec(class, ctx), &observer)
        .map_err(|e| e.to_string())?;
    if !run.results.iter().all(|r| r.verified) {
        return Err("kernel verification failed".into());
    }
    let json = result_json(item.key, &item.req, spec.ranks, &run);
    state
        .cache
        .put(item.key, json.into_bytes())
        .map_err(|e| format!("result store write failed: {e}"))
}

/// The canonical, cacheable result document. Everything in here is a
/// pure function of the cache key — byte-identical on every recompute —
/// so the store's write-once discipline holds by construction.
fn result_json(
    key: CacheKey,
    req: &SubmitReq,
    ranks: usize,
    run: &SupervisedRun<KernelResult>,
) -> String {
    let machine = &run.machine;
    let mut checksums = Arr::new();
    let mut dumps = Arr::new();
    for node in 0..machine.num_nodes() {
        let bytes = run
            .library
            .encoded_dump(node)
            .expect("every node finalized in a completed run");
        checksums = checksums.push_str(&format!("{:#018x}", bgp_arch::wire::checksum(&bytes)));
        dumps = dumps.push_str(&hex(&bytes));
    }
    let mut obj = Obj::new()
        .field_str("key", &key.hex())
        .field_str("spec_hash", &format!("{:#018x}", key.spec))
        .field_u64("seed", key.seed)
        .field_str("kernel", req.kernel.token())
        .field_str("class", req.class.token())
        .field_u64("ranks", ranks as u64)
        .field_str("mode", req.mode.token())
        .field_bool("verified", true)
        .field_u64("job_cycles", machine.job_cycles())
        .field_u64("phases", machine.phases())
        .field_raw("dump_checksums", &checksums.finish());
    if let Some(trace) = machine.job_trace() {
        obj = obj
            .field_u64("trace_events", trace.total_events() as u64)
            .field_str("phases_csv", &trace.phase_metrics_csv());
    }
    obj.field_raw("dumps", &dumps.finish()).finish()
}

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

/// Decode [`hex`] output.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        assert_eq!(hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert!(unhex("0").is_none());
        assert!(unhex("zz").is_none());
    }
}
