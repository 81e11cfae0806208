//! The long-running job server and its blocking client helpers.
//!
//! ## Architecture
//!
//! One listener thread accepts TCP connections and spawns a handler thread
//! per connection. Handlers run *admission* ([`JobSpec::parse`] +
//! [`prepare`]) and push accepted jobs onto a bounded queue; a single
//! **executor** thread drives every job on the shared [`Simulator`]'s pool
//! — the [`WorkerPool`](logit_core::WorkerPool) takes one dispatch at a
//! time (`install` asserts against concurrent dispatch), so one thread
//! issues them all.
//!
//! The executor interleaves its jobs one *segment* at a time
//! ([`logit_core::pipeline`]): a segment advances every live replica of one
//! job by a few milliseconds of work. It holds at most
//! `MAX_STARTED_JOBS` = 4 started jobs; later arrivals wait in the queue
//! in FIFO order. Starting a job, as the executor takes it off the queue,
//! builds its engine and run; its replicas are built only when its first
//! segment runs. Before every segment the executor takes new arrivals off
//! the queue, then runs the held job with the fewest player updates left
//! (ties to the earlier admission; a run counts its own work from the
//! start), so a short job waits out one segment rather than a whole heavy
//! job. A job passed over `AGING_PASSES` = 8 times in a row runs
//! next, so a long job cannot starve.
//!
//! The points a segment completes go to the job's handler at once, over an
//! unbounded per-job channel (a job has at most
//! [`MAX_SAMPLES`](crate::job::limits::MAX_SAMPLES) points, so it holds at
//! most that many), and the handler writes each SERIES frame as it
//! arrives, then FINAL and DONE after the last segment. A slow or vanished
//! client never blocks the executor.
//!
//! ## Reproducibility
//!
//! Each job runs on `simulator.reseeded(spec.seed, spec.replicas)` — a
//! fork sharing the pool but carrying the *job's* seed, so any stream can
//! be replayed offline by `Simulator::new(seed, replicas)` plus the same
//! description ([`run_direct`](crate::exec::run_direct)); the streamed
//! frames are bit-identical, however the job's segments were interleaved
//! with other jobs'.
//!
//! ## Cancellation
//!
//! A per-job [`CancelToken`] is created at admission. A watcher thread per
//! connection turns a [`CANCEL`] frame — or the client vanishing — into
//! `token.cancel()`. The executor sees it before the job's next segment
//! and drops the job; the handler, which also checks the token before
//! every SERIES frame, ends the stream with exactly one `CANCELLED` frame.
//! The client keeps the points already sent: a prefix of the job's
//! [`run_direct`](crate::exec::run_direct) series. Every segment runs
//! under its own `catch_unwind`, so a panic ends only its own job, with an
//! `ERROR` frame on that connection.
//!
//! ## Time account
//!
//! With the `telemetry` feature recording, each admitted job's parse and
//! `prepare` time is one sample of `server.admission_ns`, labelled
//! `artifacts="hit"` or `"miss"` by whether its game's artifacts were
//! cached. Each job's wall time from ACCEPTED to its terminal frame
//! (`server.job_wall_ns`) splits into `server.job_wait_ns` (from
//! ACCEPTED to its first segment, plus every interval it sat parked
//! between its segments), `server.job_exec_ns` (the sum of its own
//! segments) and `server.job_stream_ns` (the frames written after its
//! last segment).
//!
//! ## Memory
//!
//! Whenever the executor holds no job and finds the queue empty, it
//! returns the free pages of every malloc arena to the kernel before it
//! sleeps (`malloc_trim` on glibc), so the resident set tracks the jobs
//! the server holds rather than every job it has run.

use crate::cache::{ArtifactCache, CacheStats};
use crate::error::AdmissionError;
use crate::exec::{prepare, start, JobRun, PreparedJob};
use crate::job::JobSpec;
use crate::protocol::{
    read_frame, write_frame, SeriesPoint, StreamedResult, ACCEPTED, CANCEL, CANCELLED, DONE, ERROR,
    FINAL, REJECTED, SERIES, STATS, SUBMIT,
};
use logit_core::{CancelToken, Simulator};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Jobs the executor holds at once, each started. A started job keeps one
/// wave of replicas live (up to 2²⁰ players each, about 12 bytes per
/// player with their words), so this bounds the replica memory the
/// executor holds; four leave room for short jobs beside a few long ones
/// without letting the queue's tail build state.
const MAX_STARTED_JOBS: usize = 4;

/// Segments in a row a held job may be passed over before it runs next,
/// whatever its remaining work. At about 20 ms per segment a long job then
/// waits at most about 160 ms between its own segments, so a stream of
/// short jobs cannot starve it.
const AGING_PASSES: u32 = 8;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pending-job queue depth; a full queue rejects with `queue-full`.
    pub queue_capacity: usize,
    /// Artifact-cache capacity (topologies).
    pub cache_capacity: usize,
    /// Seed of the server's base simulator (forked per job, so this only
    /// matters for pool identity, never for results).
    pub base_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            cache_capacity: 32,
            base_seed: 0,
        }
    }
}

/// Monotonic counters of one server instance.
///
/// `completed`, `cancelled` and `internal_errors` count how each accepted
/// job's *execution* ended, once per job, in the executor: they partition
/// `accepted` (their sum equals it once the queue has drained). A job
/// whose execution completed counts as `completed` even when a cancel then
/// lands while its frames stream and the client receives `CANCELLED`.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub cancelled: AtomicU64,
    pub internal_errors: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`] plus the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub internal_errors: u64,
    pub artifact_cache: CacheStats,
}

/// The server's registered instruments, resolved once per process
/// (zero-sized no-ops without the `telemetry` feature).
struct ServerTelemetry {
    /// `server.queue_depth` — jobs admitted but not yet picked up by the
    /// executor.
    queue_depth: logit_telemetry::Gauge,
    /// `server.job_wall_ns` — ACCEPTED frame to terminal frame: queue
    /// wait + execution + streaming, as the client experiences it.
    job_wall_ns: logit_telemetry::Histogram,
    /// `server.job_wait_ns` — ACCEPTED to the job's first segment, plus
    /// every interval it sat parked between its segments.
    job_wait_ns: logit_telemetry::Histogram,
    /// `server.job_exec_ns` — the sum of the job's own segments.
    job_exec_ns: logit_telemetry::Histogram,
    /// `server.job_stream_ns` — the frames written after the job's last
    /// segment.
    job_stream_ns: logit_telemetry::Histogram,
    /// `server.admission_ns{artifacts="hit"}` — parse + `prepare` of an
    /// admitted job whose artifacts were cached.
    admission_hit_ns: logit_telemetry::Histogram,
    /// `server.admission_ns{artifacts="miss"}` — the same for a job that
    /// built them.
    admission_miss_ns: logit_telemetry::Histogram,
}

fn telemetry() -> &'static ServerTelemetry {
    use std::sync::OnceLock;
    static TELEMETRY: OnceLock<ServerTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = logit_telemetry::global();
        ServerTelemetry {
            queue_depth: registry.gauge("server.queue_depth"),
            job_wall_ns: registry.histogram("server.job_wall_ns"),
            job_wait_ns: registry.histogram("server.job_wait_ns"),
            job_exec_ns: registry.histogram("server.job_exec_ns"),
            job_stream_ns: registry.histogram("server.job_stream_ns"),
            admission_hit_ns: registry
                .histogram_labelled("server.admission_ns", ("artifacts", "hit")),
            admission_miss_ns: registry
                .histogram_labelled("server.admission_ns", ("artifacts", "miss")),
        }
    })
}

/// Bumps the ground-truth reject counter and mirrors the rejection into
/// the registry under its stable admission code
/// (`server.admission_rejects{code="..."}`).
fn count_rejected(stats: &ServerStats, code: &'static str) {
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    if logit_telemetry::enabled() {
        logit_telemetry::global()
            .counter_labelled("server.admission_rejects", ("code", code))
            .inc();
    }
}

/// Builds the counter snapshot from the live parts — shared between
/// [`RunningServer::stats`] and the in-handler STATS frame.
fn snapshot(stats: &ServerStats, cache: &ArtifactCache) -> StatsSnapshot {
    StatsSnapshot {
        accepted: stats.accepted.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        completed: stats.completed.load(Ordering::Relaxed),
        cancelled: stats.cancelled.load(Ordering::Relaxed),
        internal_errors: stats.internal_errors.load(Ordering::Relaxed),
        artifact_cache: cache.games.stats(),
    }
}

/// One queued unit of work: everything the executor needs plus the
/// channel the handler streams from.
struct ExecRequest {
    job: PreparedJob,
    cancel: CancelToken,
    events: Sender<JobEvent>,
    /// When the job was accepted: its wall and wait clocks start here.
    accepted: Instant,
}

/// What the executor reports to the waiting handler, in order: the points
/// of each segment as it completes them, then one terminal event carrying
/// the moment the job's last segment ended.
enum JobEvent {
    /// A recorded time every replica has passed.
    Point(SeriesPoint),
    /// The job ran to completion: its FINAL payload (no points).
    Finished(Box<StreamedResult>, Instant),
    /// The executor saw the cancel token before a segment.
    Cancelled(Instant),
    /// A segment panicked; the pool survived (chunk panics are contained
    /// per dispatch).
    Panicked(String, Instant),
}

/// A job the executor holds: its request, its started run, and its
/// account.
struct Held {
    request: ExecRequest,
    /// Its engine and run; the first segment builds its replicas.
    run: Box<dyn JobRun>,
    /// Admission order, for ties.
    order: u64,
    /// Segments run for other jobs since this one last ran.
    passed: u32,
    /// When the job last stopped running (or was started).
    parked: Instant,
    wait: Duration,
    exec: Duration,
}

/// How a job's execution ended, for the outcome counters.
enum Ended {
    Completed,
    Cancelled,
    Panicked,
}

/// A running server bound to a local port. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaks the listener thread; tests and the
/// binary always shut down explicitly.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    cache: Arc<ArtifactCache>,
    listener_thread: Option<thread::JoinHandle<()>>,
    executor_thread: Option<thread::JoinHandle<()>>,
    /// Kept so the executor's receiver stays open until shutdown.
    queue_tx: Option<SyncSender<ExecRequest>>,
}

impl RunningServer {
    /// Binds `127.0.0.1:port` (`port = 0` for an ephemeral port), spawns
    /// the executor and listener threads, and returns immediately.
    pub fn start(port: u16, config: ServerConfig) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        let (queue_tx, queue_rx) = sync_channel::<ExecRequest>(config.queue_capacity);

        let executor_thread = {
            let stats = Arc::clone(&stats);
            let base = Simulator::new(config.base_seed, 1);
            thread::Builder::new()
                .name("logit-serve-executor".into())
                .spawn(move || executor_loop(queue_rx, base, &stats))?
        };

        let listener_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let cache = Arc::clone(&cache);
            let queue_tx = queue_tx.clone();
            thread::Builder::new()
                .name("logit-serve-listener".into())
                .spawn(move || listener_loop(listener, stop, stats, cache, queue_tx))?
        };

        Ok(RunningServer {
            addr,
            stop,
            stats,
            cache,
            listener_thread: Some(listener_thread),
            executor_thread: Some(executor_thread),
            queue_tx: Some(queue_tx),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.stats, &self.cache)
    }

    /// Stops accepting connections, waits for in-flight handlers and the
    /// executor to drain, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        // All handler threads are joined by the listener; dropping the last
        // sender ends the executor's `recv` loop.
        self.queue_tx.take();
        if let Some(t) = self.executor_thread.take() {
            let _ = t.join();
        }
        self.stats()
    }
}

fn executor_loop(queue_rx: Receiver<ExecRequest>, base: Simulator, stats: &ServerStats) {
    let mut held: Vec<Held> = Vec::new();
    let mut admitted = 0u64;
    let mut open = true;
    loop {
        while open && held.len() < MAX_STARTED_JOBS {
            match queue_rx.try_recv() {
                Ok(request) => {
                    held.extend(hold(request, admitted, &base, stats));
                    admitted += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        // A cancelled job ends now, not when it next would run.
        while let Some(i) = held.iter().position(|h| h.request.cancel.is_cancelled()) {
            end_job(held.swap_remove(i), Ended::Cancelled, stats);
        }
        if held.is_empty() {
            if !open {
                break;
            }
            // Idle: hand back what the last jobs freed before sleeping.
            release_free_heap();
            match queue_rx.recv() {
                Ok(request) => {
                    held.extend(hold(request, admitted, &base, stats));
                    admitted += 1;
                }
                Err(_) => break,
            }
            continue;
        }
        let next = pick_next(&held);
        for (i, job) in held.iter_mut().enumerate() {
            job.passed = if i == next { 0 } else { job.passed + 1 };
        }
        if let Some(ended) = run_segment(&mut held[next]) {
            end_job(held.swap_remove(next), ended, stats);
        }
    }
}

/// Takes a job off the queue and starts it on a fork of `base` carrying
/// the job's seed (its engine and run; the first segment builds its
/// replicas), under its own `catch_unwind`: a panic ends the job here,
/// with `ERROR`.
fn hold(request: ExecRequest, order: u64, base: &Simulator, stats: &ServerStats) -> Option<Held> {
    telemetry().queue_depth.add(-1.0);
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let spec = &request.job.spec;
        start(&base.reseeded(spec.seed, spec.replicas), &request.job)
    }));
    let parked = Instant::now();
    let (wait, exec) = (started - request.accepted, parked - started);
    match run {
        Ok(run) => Some(Held {
            request,
            run,
            order,
            passed: 0,
            parked,
            wait,
            exec,
        }),
        Err(panic) => {
            let msg = panic_message(&*panic);
            let _ = request.events.send(JobEvent::Panicked(msg, parked));
            stats.internal_errors.fetch_add(1, Ordering::Relaxed);
            record_account(wait, exec);
            None
        }
    }
}

/// The held job to run next: one passed over [`AGING_PASSES`] times in a
/// row, else the one with the fewest player updates left; ties go to the
/// earlier admission.
fn pick_next(held: &[Held]) -> usize {
    let aged = held
        .iter()
        .enumerate()
        .filter(|(_, job)| job.passed >= AGING_PASSES)
        .max_by_key(|(_, job)| (job.passed, std::cmp::Reverse(job.order)));
    let (next, _) = aged
        .or_else(|| {
            held.iter()
                .enumerate()
                .min_by_key(|(_, job)| (job.run.remaining_updates(), job.order))
        })
        .expect("the executor holds a job");
    next
}

/// Runs one segment of `job` under its own `catch_unwind`, sends the
/// points it completed, and returns how the job ended if this was its last
/// segment.
fn run_segment(job: &mut Held) -> Option<Ended> {
    let started = Instant::now();
    job.wait += started - job.parked;
    let run = &mut job.run;
    let segment = catch_unwind(AssertUnwindSafe(|| (run.segment(), run.is_done())));
    let ended = Instant::now();
    job.exec += ended - started;
    job.parked = ended;
    let events = &job.request.events;
    match segment {
        Ok((points, done)) => {
            for point in points {
                // The handler may have vanished (client dropped mid-run);
                // its cancel token then ends the job before the next
                // segment.
                let _ = events.send(JobEvent::Point(point));
            }
            done.then_some(Ended::Completed)
        }
        Err(panic) => {
            let msg = panic_message(&*panic);
            let _ = events.send(JobEvent::Panicked(msg, Instant::now()));
            Some(Ended::Panicked)
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// Counts how a held job ended, records its account, and sends its
/// terminal event (a panic's went out with it).
fn end_job(job: Held, ended: Ended, stats: &ServerStats) {
    let now = Instant::now();
    let Held {
        request,
        run,
        parked,
        mut wait,
        exec,
        ..
    } = job;
    let events = &request.events;
    match ended {
        Ended::Completed => {
            stats.completed.fetch_add(1, Ordering::Relaxed);
            let (name, finals) = run.finish();
            let result = StreamedResult {
                name,
                points: Vec::new(),
                finals,
            };
            let _ = events.send(JobEvent::Finished(Box::new(result), parked));
        }
        Ended::Cancelled => {
            // It sat parked until the cancel was seen.
            wait += now - parked;
            stats.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ = events.send(JobEvent::Cancelled(now));
        }
        Ended::Panicked => {
            stats.internal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    record_account(wait, exec);
}

/// Records the wait and execution time of a job whose execution ended.
fn record_account(wait: Duration, exec: Duration) {
    telemetry().job_wait_ns.record(wait.as_nanos() as f64);
    telemetry().job_exec_ns.record(exec.as_nanos() as f64);
}

/// Returns the free pages of every malloc arena to the kernel. glibc keeps
/// what a thread frees in that thread's arena and gives little of it back
/// on its own, so without this the server's resident set would grow with
/// the jobs it has run (their artifacts, replicas and frames, each made on
/// whichever handler, worker or executor thread ran it) rather than track
/// the jobs it holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers, locks each arena while it
    // trims it, and only releases pages that hold no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own release policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn listener_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    cache: Arc<ArtifactCache>,
    queue_tx: SyncSender<ExecRequest>,
) {
    let mut handlers = Vec::new();
    let job_ids = Arc::new(AtomicU64::new(1));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let stats = Arc::clone(&stats);
        let cache = Arc::clone(&cache);
        let queue_tx = queue_tx.clone();
        let job_ids = Arc::clone(&job_ids);
        reap_finished(&mut handlers);
        if let Ok(handle) = thread::Builder::new()
            .name("logit-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &stats, &cache, &queue_tx, &job_ids);
            })
        {
            handlers.push(handle);
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Joins every handler thread that has already exited and keeps the live
/// ones. An exited thread holds its stack and guard-page mappings until it
/// is joined, so without reaping the listener's footprint would grow with
/// the lifetime connection count instead of the open one.
fn reap_finished(handlers: &mut Vec<thread::JoinHandle<()>>) {
    for handle in handlers.extract_if(.., |handle| handle.is_finished()) {
        let _ = handle.join();
    }
}

/// Serves one connection: admission, streaming, cancellation.
fn handle_connection(
    mut stream: TcpStream,
    stats: &ServerStats,
    cache: &ArtifactCache,
    queue_tx: &SyncSender<ExecRequest>,
    job_ids: &AtomicU64,
) -> io::Result<()> {
    let submit = match read_frame(&mut stream) {
        Ok(Some((SUBMIT, payload))) => payload,
        Ok(Some((STATS, _))) => {
            // A metrics probe, not a job: answer with one snapshot frame
            // and close. Probes never touch the queue or the counters.
            let payload = crate::stats::render_stats(&snapshot(stats, cache));
            write_frame(&mut stream, STATS, &payload)?;
            return stream.shutdown(Shutdown::Both);
        }
        Ok(Some((kind, _))) => {
            let err =
                AdmissionError::Protocol(format!("expected a SUBMIT frame, got kind {kind:#04x}"));
            count_rejected(stats, err.code());
            write_frame(&mut stream, REJECTED, &err.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
        Ok(None) => return Ok(()),
        Err(e) => {
            let err = AdmissionError::Protocol(e.to_string());
            count_rejected(stats, err.code());
            let _ = write_frame(&mut stream, REJECTED, &err.to_string());
            return stream.shutdown(Shutdown::Both);
        }
    };

    // Admission: parse, then build/fetch artifacts through the typed
    // `try_*` boundaries. Rejection is a frame, never a panic.
    let admitting = Instant::now();
    let job = match JobSpec::parse(&submit).and_then(|spec| prepare(spec, cache)) {
        Ok(job) => job,
        Err(e) => {
            count_rejected(stats, e.code());
            write_frame(&mut stream, REJECTED, &e.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
    };
    let admission = if job.cache_hit {
        &telemetry().admission_hit_ns
    } else {
        &telemetry().admission_miss_ns
    };
    admission.record(admitting.elapsed().as_nanos() as f64);

    // Admission metadata for the ACCEPTED frame, copied out before the
    // job moves into the queue.
    let id = job_ids.fetch_add(1, Ordering::Relaxed);
    let accepted_meta = format!(
        "job={id} key={:016x} artifacts={} colors={}",
        job.spec.topology_key(),
        if job.cache_hit { "hit" } else { "miss" },
        job.artifacts.coloring.num_classes(),
    );

    let cancel = CancelToken::new();
    let (events_tx, events) = channel::<JobEvent>();
    let accepted = Instant::now();
    let request = ExecRequest {
        job,
        cancel: cancel.clone(),
        events: events_tx,
        accepted,
    };
    // Reserve the queue slot *before* ACCEPTED goes out.
    match queue_tx.try_send(request) {
        Ok(()) => telemetry().queue_depth.add(1.0),
        Err(TrySendError::Full(req)) => {
            count_rejected(stats, AdmissionError::QueueFull.code());
            write_frame(
                &mut stream,
                REJECTED,
                &AdmissionError::QueueFull.to_string(),
            )?;
            // Drop the request (and its event channel) without running.
            drop(req);
            return stream.shutdown(Shutdown::Both);
        }
        Err(TrySendError::Disconnected(_)) => {
            let err = AdmissionError::Protocol("the server is shutting down".into());
            count_rejected(stats, err.code());
            write_frame(&mut stream, REJECTED, &err.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
    }

    stats.accepted.fetch_add(1, Ordering::Relaxed);
    write_frame(&mut stream, ACCEPTED, &accepted_meta)?;

    // Watcher: turns a CANCEL frame — or the client vanishing — into a
    // token cancel. Reads on a cloned handle so the main handler can
    // write frames concurrently.
    let watcher = {
        let mut read_half = stream.try_clone()?;
        let cancel = cancel.clone();
        thread::Builder::new()
            .name("logit-serve-watch".into())
            .spawn(move || loop {
                match read_frame(&mut read_half) {
                    Ok(Some((CANCEL, _))) => {
                        cancel.cancel();
                        break;
                    }
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => {
                        // EOF or error: the client is gone; stop wasting
                        // pool time on them.
                        cancel.cancel();
                        break;
                    }
                }
            })?
    };

    let write_result = stream_events(&mut stream, &events, &cancel);
    // Wall clock as the client experiences it: from the moment the job was
    // accepted to its terminal frame (waiting, execution and streaming).
    telemetry()
        .job_wall_ns
        .record(accepted.elapsed().as_nanos() as f64);
    // Closing both halves unblocks the watcher's read.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = watcher.join();
    write_result
}

/// Writes each SERIES frame as the executor completes its point, then the
/// terminal frames. The token is checked before every SERIES frame, so a
/// cancel that lands while points stream ends the stream with one
/// CANCELLED frame even when the executor has already run the job out.
/// The frames written after the job's last segment are its stream time.
fn stream_events(
    stream: &mut TcpStream,
    events: &Receiver<JobEvent>,
    cancel: &CancelToken,
) -> io::Result<()> {
    let terminal = |stream: &mut TcpStream, kind: u8, payload: &str, since: Instant| {
        let written = write_frame(stream, kind, payload);
        telemetry()
            .job_stream_ns
            .record(since.elapsed().as_nanos() as f64);
        written
    };
    loop {
        match events.recv() {
            Ok(JobEvent::Point(point)) => {
                if cancel.is_cancelled() {
                    return write_frame(stream, CANCELLED, "");
                }
                write_frame(stream, SERIES, &point.encode())?;
            }
            Ok(JobEvent::Finished(result, last_segment)) => {
                write_frame(stream, FINAL, &result.encode_final())?;
                return terminal(stream, DONE, "", last_segment);
            }
            Ok(JobEvent::Cancelled(seen)) => return terminal(stream, CANCELLED, "", seen),
            Ok(JobEvent::Panicked(msg, at)) => {
                return terminal(stream, ERROR, &format!("internal: {msg}"), at)
            }
            Err(_) => return write_frame(stream, ERROR, "internal: executor hung up"),
        }
    }
}

/// What a blocking client observed for one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// Admission rejected the job; payload is `<code>: <message>`.
    Rejected(String),
    /// The stream completed; the reassembled series.
    Done(StreamedResult),
    /// The stream ended with CANCELLED after `Vec` points.
    Cancelled(Vec<SeriesPoint>),
    /// The stream ended with an ERROR frame.
    Error(String),
}

/// Client-side latency measurement of one submission.
#[derive(Debug, Clone, Copy)]
pub struct ClientTiming {
    /// Submission → terminal frame, in seconds.
    pub total_secs: f64,
}

/// Submits one job and blocks until the stream terminates. When
/// `cancel_after_frames` is `Some(k)`, a CANCEL frame is sent as soon as
/// `k` series frames have arrived (0 cancels immediately after ACCEPTED).
pub fn submit_job(
    addr: SocketAddr,
    job_text: &str,
    cancel_after_frames: Option<usize>,
) -> io::Result<(ClientOutcome, ClientTiming)> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, SUBMIT, job_text)?;

    let mut points = Vec::new();
    let mut cancelled_sent = false;
    let mut maybe_cancel = |stream: &mut TcpStream, seen: usize| -> io::Result<()> {
        if !cancelled_sent {
            if let Some(k) = cancel_after_frames {
                if seen >= k {
                    match write_frame(stream, CANCEL, "") {
                        Ok(()) => {}
                        // The job may have completed and the server closed
                        // its end before our cancel landed; the remaining
                        // frames are still in the receive buffer.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                            ) => {}
                        Err(e) => return Err(e),
                    }
                    cancelled_sent = true;
                }
            }
        }
        Ok(())
    };

    loop {
        let frame = read_frame(&mut stream)?;
        let timing = ClientTiming {
            total_secs: started.elapsed().as_secs_f64(),
        };
        match frame {
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended without a terminal frame",
                ))
            }
            Some((REJECTED, payload)) => return Ok((ClientOutcome::Rejected(payload), timing)),
            Some((ACCEPTED, _)) => {
                maybe_cancel(&mut stream, 0)?;
            }
            Some((SERIES, payload)) => {
                let point = SeriesPoint::decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                points.push(point);
                maybe_cancel(&mut stream, points.len())?;
            }
            Some((FINAL, payload)) => {
                let (name, finals) = StreamedResult::decode_final(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                // DONE must follow.
                match read_frame(&mut stream)? {
                    Some((DONE, _)) => {}
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected DONE after FINAL, got {other:?}"),
                        ))
                    }
                }
                let timing = ClientTiming {
                    total_secs: started.elapsed().as_secs_f64(),
                };
                return Ok((
                    ClientOutcome::Done(StreamedResult {
                        name,
                        points,
                        finals,
                    }),
                    timing,
                ));
            }
            Some((CANCELLED, _)) => return Ok((ClientOutcome::Cancelled(points), timing)),
            Some((ERROR, payload)) => return Ok((ClientOutcome::Error(payload), timing)),
            Some((kind, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind:#04x}"),
                ))
            }
        }
    }
}

/// Requests a live metrics snapshot: sends one STATS frame and returns
/// the server's Prometheus-text payload. Works mid-chaos — probes bypass
/// the job queue entirely.
pub fn request_stats(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, STATS, "")?;
    match read_frame(&mut stream)? {
        Some((STATS, payload)) => Ok(payload),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a STATS frame, got {other:?}"),
        )),
    }
}

/// Writes raw bytes to the server — the malformed-client path of the smoke
/// tests. Returns whatever single frame the server answers with.
pub fn submit_raw(addr: SocketAddr, bytes: &[u8]) -> io::Result<Option<(u8, String)>> {
    use std::io::Write;
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    read_frame(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn wait_until_finished(handle: &thread::JoinHandle<()>) {
        while !handle.is_finished() {
            thread::yield_now();
        }
    }

    #[test]
    fn reaping_joins_finished_handlers_and_keeps_blocked_ones() {
        let (release, blocked_on) = channel::<()>();
        let blocked = thread::spawn(move || {
            let _ = blocked_on.recv();
        });
        let finished = thread::spawn(|| {});
        wait_until_finished(&finished);

        let mut handlers = vec![finished, blocked];
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "the finished handler is joined");
        assert!(
            !handlers[0].is_finished(),
            "the handler blocked on its channel is kept"
        );

        drop(release);
        wait_until_finished(&handlers[0]);
        reap_finished(&mut handlers);
        assert!(handlers.is_empty(), "it is reaped once it exits");
    }
}
