//! The persistent worker pool.
//!
//! Threads are spawned once (per pool — in practice once per
//! [`Simulator`](crate::Simulator), or once per call of the free sweep and
//! annealing functions) and wait between dispatches on the configured
//! [`WaitPolicy`]; a dispatch publishes one *job* (a chunked closure)
//! through an epoch-tagged claim counter, workers steal chunks from the
//! shared counter until none remain, and the caller blocks on a completion
//! barrier. It is the workspace's only parallel runtime: colour-class
//! sweeps, the pipelined farm, replica ensembles and parameter sweeps all
//! dispatch through it.
//!
//! # Protocol
//!
//! Shared state per pool: `epoch` (the latest dispatched job's id),
//! `claim` (a packed word: the epoch's low 32 bits in the high half, the
//! next unclaimed chunk in the low half), `completed` (chunks finished for
//! the current job), and a mutex-guarded job slot holding the type-erased
//! closure plus the participant admission count.
//!
//! Dispatch (caller): write the job descriptor under the slot lock →
//! reset `completed` → publish the tagged claim word → bump `epoch`
//! (Release) → wake parked workers. Workers: observe the epoch change,
//! admit themselves through the slot lock (at most `limit` participants
//! join a job — the admission count lives *inside* the lock so a stale
//! worker can never consume a newer job's seat), then claim chunks via a
//! CAS loop that validates the epoch tag, so a worker that slept through
//! an entire job can never execute a chunk against a dead closure: a
//! successful CAS with a matching tag implies the dispatching caller is
//! still blocked on this very job's barrier, hence every borrow in the
//! closure is still live. Each executed chunk (panicked or not) increments
//! `completed` (Release); the caller spins the barrier until `completed`
//! equals the chunk count (Acquire), which also publishes every chunk's
//! writes to the caller.
//!
//! Panics inside a chunk are caught, the first payload is stashed, the
//! remaining chunks still run (the barrier must fill), and the payload is
//! re-raised on the calling thread once the barrier completes, so the
//! caller sees the root cause. One dispatch at a time: the pool is a
//! per-`Simulator` resource, and nesting `run` inside a pool worker (or
//! racing two dispatches from two threads) is a programming error that the
//! `active` guard turns into a panic instead of silent corruption.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::registry::{pin_current_thread, ThreadRegistry, WorkerEntry};
use super::{RuntimeConfig, WaitPolicy};

/// Chunk counts are capped so the claim word can pack epoch-tag and
/// counter into one u64 (far beyond any realistic per-tick chunking).
const CHUNK_LIMIT: u64 = u32::MAX as u64;

thread_local! {
    /// The pool-worker index of the current thread, set once at spawn.
    /// `None` on every thread that is not a pool worker (callers, tests).
    static POOL_WORKER_INDEX: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// The spawn-time index of the pool worker running the current thread, or
/// `None` off the pool: the stable per-thread `worker` label of
/// `runtime.chunks_stolen`.
fn current_worker_index() -> Option<usize> {
    POOL_WORKER_INDEX.with(|cell| cell.get())
}

/// The type-erased job descriptor. `data` points at the caller's closure
/// (alive for the whole dispatch: the caller blocks on the barrier);
/// `call` reconstitutes its concrete type. `joined`/`limit` implement
/// bounded participation: a worker may only take a seat while the slot
/// lock is held, so admission is race-free even against workers waking
/// from an older epoch.
#[derive(Clone, Copy)]
struct JobSlot {
    epoch: u64,
    chunks: u64,
    limit: usize,
    joined: usize,
    data: usize,
    call: Option<unsafe fn(*const (), usize)>,
}

impl JobSlot {
    const fn empty() -> Self {
        JobSlot {
            epoch: 0,
            chunks: 0,
            limit: 0,
            joined: 0,
            data: 0,
            call: None,
        }
    }
}

/// Pool instruments, registered once at spawn so the hot paths touch
/// only the atomic cells behind these handles (zero-sized no-ops without
/// the `telemetry` feature).
struct PoolTelemetry {
    /// `runtime.dispatch_ns` — wall time of a full pooled dispatch
    /// (install → chunks → barrier → finish), caller-side.
    dispatch_ns: logit_telemetry::Histogram,
    /// `runtime.parks` — workers escalating to the condvar after their
    /// idle poll budget ran dry.
    parks: logit_telemetry::Counter,
    /// `runtime.wakes` — parked workers woken by a dispatch (shutdown
    /// wakes are not counted).
    wakes: logit_telemetry::Counter,
    /// `runtime.inline_fallbacks` — `run` calls that bypassed the pool
    /// (single participant or single chunk).
    inline_fallbacks: logit_telemetry::Counter,
}

impl PoolTelemetry {
    fn register() -> Self {
        let registry = logit_telemetry::global();
        PoolTelemetry {
            dispatch_ns: registry.histogram("runtime.dispatch_ns"),
            parks: registry.counter("runtime.parks"),
            wakes: registry.counter("runtime.wakes"),
            inline_fallbacks: registry.counter("runtime.inline_fallbacks"),
        }
    }
}

struct Shared {
    /// Latest dispatched job id; strictly increasing, 0 = "none yet".
    epoch: AtomicU64,
    /// Packed claim word: `(epoch & 0xFFFF_FFFF) << 32 | next_chunk`.
    claim: AtomicU64,
    /// Chunks completed for the current job.
    completed: AtomicU64,
    /// The current job descriptor plus participant admission.
    job: Mutex<JobSlot>,
    /// First panic payload raised inside a chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set once, at pool drop.
    shutdown: AtomicBool,
    /// Guards against nested / concurrent dispatch.
    active: AtomicBool,
    /// Total dispatches that actually reached the pool (observable: the
    /// inline fallbacks never bump this).
    dispatches: AtomicU64,
    wait_policy: WaitPolicy,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    telemetry: PoolTelemetry,
}

/// Empty polls before a Spin worker stops burning cycles and parks —
/// roughly a millisecond of sustained idleness: long enough to stay hot
/// across back-to-back tick dispatches, bounded so a pool whose work is
/// running inline on the caller (narrow classes, single-core hosts) taxes
/// the host nothing.
const SPIN_IDLE_POLLS: u32 = 1 << 17;

/// Empty yields before a Yield worker parks. Every poll releases the CPU,
/// so the pre-park window is scheduler-paced rather than cycle-paced.
const YIELD_IDLE_POLLS: u32 = 1 << 10;

impl Shared {
    /// Waits until the epoch moves past `last_epoch` or shutdown is
    /// flagged. Returns the observed epoch.
    ///
    /// The wait policy only sets how long the worker stays *hot*: Spin
    /// busy-waits (with a yield safety valve for oversubscribed hosts) and
    /// Yield polls between `yield_now`s, but both escalate to the condvar
    /// once the idle budget runs out — an idle pool must never tax the
    /// caller, whatever the policy. Park skips straight to the condvar.
    fn wait_for_dispatch(&self, last_epoch: u64) -> Option<u64> {
        let budget = match self.wait_policy {
            WaitPolicy::Spin => SPIN_IDLE_POLLS,
            WaitPolicy::Yield => YIELD_IDLE_POLLS,
            WaitPolicy::Park => 0,
        };
        let mut polls: u32 = 0;
        while polls < budget {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != last_epoch {
                return Some(epoch);
            }
            polls += 1;
            if self.wait_policy == WaitPolicy::Spin && !polls.is_multiple_of(1024) {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Sustained idleness (or Park from the start): block on the
        // condvar. Dispatch and shutdown notify under the same lock, so
        // re-checking the epoch while holding it closes the wakeup race.
        self.telemetry.parks.inc();
        let mut guard = self.park_lock.lock().expect("park lock poisoned");
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != last_epoch {
                self.telemetry.wakes.inc();
                return Some(epoch);
            }
            guard = self.park_cv.wait(guard).expect("park lock poisoned");
        }
    }

    /// Claims and executes chunks of `job` until the claim counter runs
    /// out or the claim word's epoch tag no longer matches (the job is
    /// over). Called by admitted workers and by the dispatching caller.
    fn work_chunks(&self, job: &JobSlot) {
        let call = job.call.expect("job dispatched without a kernel");
        let tag = (job.epoch & CHUNK_LIMIT) << 32;
        let mut stolen = 0u64;
        loop {
            let current = self.claim.load(Ordering::Acquire);
            if (current & !CHUNK_LIMIT) != tag {
                break;
            }
            let next = current & CHUNK_LIMIT;
            if next >= job.chunks {
                break;
            }
            if self
                .claim
                .compare_exchange_weak(current, current + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // SAFETY: the tag matched at claim time, so the dispatching
            // caller is still blocked on this job's barrier (completed
            // cannot reach `chunks` before this chunk runs) and the
            // closure behind `data` is alive; `call` was erased from the
            // same concrete type as `data`.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
                call(job.data as *const (), next as usize)
            }));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            stolen += 1;
            self.completed.fetch_add(1, Ordering::Release);
        }
        // Once per job per participant (never per chunk): attribute the
        // chunks this thread stole to its lane. The `enabled` guard keeps
        // the label formatting and registry lookup off the recording-off
        // path entirely.
        if stolen > 0 && logit_telemetry::enabled() {
            let lane;
            let worker = match current_worker_index() {
                Some(index) => {
                    lane = index.to_string();
                    lane.as_str()
                }
                None => "caller",
            };
            logit_telemetry::global()
                .counter_labelled("runtime.chunks_stolen", ("worker", worker))
                .add(stolen);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut last_epoch = 0u64;
    loop {
        if shared.wait_for_dispatch(last_epoch).is_none() {
            return;
        }
        let job = {
            let mut slot = shared.job.lock().expect("job slot poisoned");
            // The slot may already describe a job newer than `epoch`;
            // always sync to what is actually installed.
            last_epoch = slot.epoch;
            if slot.joined >= slot.limit {
                continue;
            }
            slot.joined += 1;
            *slot
        };
        shared.work_chunks(&job);
    }
}

/// A persistent pool of worker threads with chunk-stealing dispatch. See
/// the [`runtime`](crate::runtime) module docs for the design (the dispatch
/// protocol is spelled out in the private `pool` module's comments) and
/// [`RuntimeConfig`] for the knobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    registry: ThreadRegistry,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("wait_policy", &self.shared.wait_policy)
            .field("dispatches", &self.dispatches())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `config.resolved_workers()` persistent workers (pinning them
    /// round-robin across cores when `pin_cores` is set) and blocks until
    /// every worker has checked into the registry.
    pub fn new(config: &RuntimeConfig) -> Self {
        let workers = config.resolved_workers();
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            claim: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            job: Mutex::new(JobSlot::empty()),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            active: AtomicBool::new(false),
            dispatches: AtomicU64::new(0),
            wait_policy: config.wait_policy,
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            telemetry: PoolTelemetry::register(),
        });
        let registry = ThreadRegistry::new(workers);
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let pin = config.pin_cores;
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let registry = registry.clone();
                std::thread::Builder::new()
                    .name(format!("logit-pool-{index}"))
                    .spawn(move || {
                        POOL_WORKER_INDEX.with(|cell| cell.set(Some(index)));
                        let pinned_core = if pin {
                            let core = index % cores;
                            pin_current_thread(core).then_some(core)
                        } else {
                            None
                        };
                        registry.check_in(WorkerEntry { index, pinned_core });
                        worker_loop(shared);
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        registry.wait_complete();
        WorkerPool {
            shared,
            registry,
            handles,
        }
    }

    /// Number of pool worker threads (excluding callers).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool's wait policy.
    pub fn wait_policy(&self) -> WaitPolicy {
        self.shared.wait_policy
    }

    /// The worker registry (ids and pinning outcomes).
    pub fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    /// Dispatches that actually engaged pool workers. Inline fallbacks
    /// (one participant, or a single chunk) never count, which is what
    /// lets tests pin the narrow-class threshold behaviour.
    pub fn dispatches(&self) -> u64 {
        self.shared.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `f(0), f(1), …, f(chunks - 1)` (each exactly once) across the
    /// calling thread plus up to `limit - 1` pool workers; returns after
    /// all chunks complete. With one effective participant (or one chunk)
    /// the chunks run inline on the caller with zero dispatch overhead.
    ///
    /// Chunk→thread assignment is dynamic (work stealing off a shared
    /// counter), so `f` must not care which thread runs which chunk —
    /// the engines' counter-derived draw scheme guarantees exactly that.
    pub fn run<F>(&self, chunks: usize, limit: usize, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        let helpers = limit
            .saturating_sub(1)
            .min(self.workers())
            .min(chunks.saturating_sub(1));
        if helpers == 0 {
            self.shared.telemetry.inline_fallbacks.inc();
            for chunk in 0..chunks {
                f(chunk);
            }
            return;
        }
        let _dispatch_span = self.shared.telemetry.dispatch_ns.span();
        let job = self.install(chunks, helpers, f);
        self.shared.work_chunks(&job);
        self.barrier(chunks as u64);
        self.finish(None);
    }

    /// Dispatches `chunks` invocations of `f` to up to `limit` pool
    /// workers while the *caller* concurrently runs `caller_work` (the
    /// farm shape: workers step, the caller reduces). Returns
    /// `caller_work`'s result once both it and every chunk are done.
    ///
    /// Panic priority matches [`run`](Self::run): a chunk panic is re-raised first
    /// (root cause), then the caller's own panic.
    pub fn execute_with<F, C, R>(&self, chunks: usize, limit: usize, f: &F, caller_work: C) -> R
    where
        F: Fn(usize) + Sync,
        C: FnOnce() -> R,
    {
        assert!(chunks > 0, "execute_with requires at least one chunk");
        // `WorkerPool::new` spawns at least one worker, so there is always
        // a pool participant to run the chunks while the caller reduces.
        let participants = limit.max(1).min(self.workers()).min(chunks);
        let _dispatch_span = self.shared.telemetry.dispatch_ns.span();
        let job = self.install(chunks, participants, f);
        debug_assert_eq!(job.chunks, chunks as u64);
        let result = catch_unwind(AssertUnwindSafe(caller_work));
        self.barrier(chunks as u64);
        self.finish(result.as_ref().err().map(|_| ()));
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Chunked mutable iteration: splits `items` into consecutive chunks
    /// of `chunk_size` and hands each chunk (with its index) to `f`,
    /// distributed across the caller plus up to `limit - 1` pool workers.
    /// The chunks are disjoint, so concurrent mutation is safe.
    pub fn for_each_chunk<T, F>(&self, items: &mut [T], chunk_size: usize, limit: usize, f: &F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let len = items.len();
        let chunks = len.div_ceil(chunk_size);
        let base = items.as_mut_ptr() as usize;
        let task = move |chunk: usize| {
            let start = chunk * chunk_size;
            let end = (start + chunk_size).min(len);
            // SAFETY: chunk ranges [start, end) are pairwise disjoint and
            // within `items`, which is exclusively borrowed for the whole
            // call; `base` round-trips the slice's own pointer.
            let slice =
                unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), end - start) };
            f(chunk, slice);
        };
        self.run(chunks, limit, &task);
    }

    /// Publishes a job and returns the descriptor the caller itself may
    /// work from. `pool_participants` is the number of *pool* workers
    /// admitted (the caller is extra).
    fn install<F>(&self, chunks: usize, pool_participants: usize, f: &F) -> JobSlot
    where
        F: Fn(usize) + Sync,
    {
        assert!(
            (chunks as u64) <= CHUNK_LIMIT,
            "dispatch of {chunks} chunks exceeds the claim-word capacity"
        );
        assert!(
            !self.shared.active.swap(true, Ordering::AcqRel),
            "nested or concurrent WorkerPool dispatch (one job at a time; \
             never dispatch from inside a pool worker)"
        );
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let job = JobSlot {
            epoch,
            chunks: chunks as u64,
            limit: pool_participants,
            joined: 0,
            data: f as *const F as usize,
            call: Some(chunk_trampoline::<F>),
        };
        *self.shared.job.lock().expect("job slot poisoned") = job;
        self.shared.completed.store(0, Ordering::Relaxed);
        self.shared
            .claim
            .store((epoch & CHUNK_LIMIT) << 32, Ordering::Release);
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared.epoch.store(epoch, Ordering::Release);
        // Workers of every policy may have escalated to the condvar after
        // their idle budget, so every dispatch must notify. Uncontended
        // lock + notify with no waiters costs nanoseconds against a
        // dispatch that steps a whole colour class.
        {
            let _guard = self.shared.park_lock.lock().expect("park lock poisoned");
            self.shared.park_cv.notify_all();
        }
        job
    }

    /// Blocks until every chunk of the current job has completed. The
    /// Acquire load pairs with each chunk's Release increment, publishing
    /// the chunks' writes to the caller.
    fn barrier(&self, chunks: u64) {
        let mut polls: u32 = 0;
        while self.shared.completed.load(Ordering::Acquire) < chunks {
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Clears the dispatch guard and re-raises the first chunk panic, if
    /// any. `caller_panicked` suppresses nothing — chunk panics always
    /// win — it only exists to document the priority at the call site.
    fn finish(&self, caller_panicked: Option<()>) {
        self.shared.active.store(false, Ordering::Release);
        let payload = self
            .shared
            .panic
            .lock()
            .expect("panic slot poisoned")
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        let _ = caller_panicked;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.park_lock.lock().expect("park lock poisoned");
            self.shared.park_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Reconstitutes the concrete closure type erased into a [`JobSlot`].
///
/// # Safety
/// `data` must point at a live `F` — guaranteed by the dispatch protocol:
/// the caller blocks on the barrier while any worker can still hold a
/// claim on the job.
unsafe fn chunk_trampoline<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
    let f = &*(data as *const F);
    f(chunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::sync_channel;

    fn pool_with(workers: usize, wait_policy: WaitPolicy) -> WorkerPool {
        WorkerPool::new(&RuntimeConfig {
            workers,
            wait_policy,
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn run_executes_every_chunk_exactly_once_under_every_policy() {
        for policy in WaitPolicy::ALL {
            let pool = pool_with(3, policy);
            for chunks in [1usize, 2, 7, 64] {
                let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(chunks, 4, &|c| {
                    counts[c].fetch_add(1, Ordering::Relaxed);
                });
                for (c, count) in counts.iter().enumerate() {
                    assert_eq!(
                        count.load(Ordering::Relaxed),
                        1,
                        "chunk {c} of {chunks} ran a wrong number of times ({policy:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_participant_dispatches_run_inline() {
        let pool = pool_with(2, WaitPolicy::Yield);
        let hits = AtomicUsize::new(0);
        pool.run(5, 1, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert_eq!(pool.dispatches(), 0, "limit 1 must bypass the pool");
        pool.run(1, 8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
        assert_eq!(pool.dispatches(), 0, "a single chunk must bypass the pool");
        pool.run(4, 3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(pool.dispatches(), 1, "a real dispatch must be counted");
    }

    #[test]
    fn concurrency_never_exceeds_the_participant_limit() {
        let pool = pool_with(4, WaitPolicy::Yield);
        for limit in [2usize, 3] {
            let live = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            pool.run(32, limit, &|_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                live.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(
                high_water.load(Ordering::SeqCst) <= limit,
                "observed more than {limit} concurrent participants"
            );
        }
    }

    #[test]
    fn for_each_chunk_hands_out_disjoint_slices() {
        let pool = pool_with(3, WaitPolicy::Spin);
        let mut items: Vec<usize> = vec![0; 103];
        pool.for_each_chunk(&mut items, 10, 4, &|chunk, slice| {
            assert!(slice.len() <= 10);
            for (i, slot) in slice.iter_mut().enumerate() {
                *slot = chunk * 10 + i;
            }
        });
        let expected: Vec<usize> = (0..103).collect();
        assert_eq!(items, expected, "every element written by its own chunk");
    }

    #[test]
    fn chunk_panics_propagate_with_their_payload_and_the_pool_survives() {
        let pool = pool_with(2, WaitPolicy::Yield);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 3, &|c| {
                if c == 5 {
                    panic!("chunk payload");
                }
            });
        }));
        let payload = caught.expect_err("the chunk panic must propagate to the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("chunk payload")
        );

        // The pool must remain usable after a panicked dispatch.
        let hits = AtomicUsize::new(0);
        pool.run(16, 3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn execute_with_runs_the_caller_concurrently_with_the_chunks() {
        let pool = pool_with(2, WaitPolicy::Yield);
        let (tx, rx) = sync_channel::<usize>(4);
        let total: usize = pool.execute_with(
            10,
            2,
            &|chunk| {
                tx.send(chunk).expect("reducer alive");
            },
            || rx.iter().take(10).sum(),
        );
        assert_eq!(total, (0..10).sum::<usize>());
    }

    #[test]
    fn execute_with_prioritises_the_chunk_panic_over_the_callers() {
        let pool = pool_with(2, WaitPolicy::Yield);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.execute_with(
                4,
                2,
                &|c| {
                    if c == 1 {
                        panic!("worker root cause");
                    }
                },
                || panic!("caller panic"),
            )
        }));
        let payload = caught.expect_err("some panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("worker root cause"),
            "the chunk panic is the root cause and must win"
        );
    }

    #[test]
    fn pool_reuse_is_leak_free_across_many_short_dispatches() {
        for policy in WaitPolicy::ALL {
            let pool = pool_with(3, policy);
            let workers = pool.workers();
            let registry_size = pool.registry().len();
            assert_eq!(registry_size, workers);
            let hits = AtomicUsize::new(0);
            let rounds = 300u64;
            for _ in 0..rounds {
                pool.run(6, 4, &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(hits.load(Ordering::Relaxed) as u64, rounds * 6);
            assert_eq!(
                pool.registry().len(),
                registry_size,
                "registry must stay stable: no thread respawns or leaks ({policy:?})"
            );
            assert_eq!(pool.dispatches(), rounds);
        }
    }

    #[test]
    fn pool_workers_expose_a_stable_lane_index_and_callers_do_not() {
        use std::collections::BTreeSet;
        let pool = pool_with(3, WaitPolicy::Yield);
        assert_eq!(
            super::current_worker_index(),
            None,
            "the calling thread is not a pool lane"
        );
        let seen = Mutex::new(BTreeSet::new());
        pool.run(64, 4, &|_| {
            // The caller participates in `run` too, reporting `None`; every
            // pool worker reports its spawn index.
            if let Some(lane) = super::current_worker_index() {
                seen.lock().expect("lane set poisoned").insert(lane);
            }
            std::thread::yield_now();
        });
        let seen = seen.lock().expect("lane set poisoned");
        assert!(
            seen.iter().all(|&lane| lane < pool.workers()),
            "lane indices must stay within the spawned worker range"
        );
    }

    #[test]
    fn registry_reports_pinning_outcomes() {
        let pool = WorkerPool::new(&RuntimeConfig {
            workers: 2,
            pin_cores: true,
            ..RuntimeConfig::default()
        });
        let entries = pool.registry().entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].index, 0);
        assert_eq!(entries[1].index, 1);
        // Whether the pin took is host-dependent (cgroup cpusets can veto
        // it); the contract is that the outcome is recorded consistently.
        assert_eq!(
            pool.registry().pinned_count(),
            entries.iter().filter(|e| e.pinned_core.is_some()).count()
        );
    }

    #[test]
    fn nested_dispatch_is_rejected() {
        let pool = pool_with(2, WaitPolicy::Yield);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.execute_with(2, 1, &|_| {}, || {
                // Dispatching from the caller lane while a job is active
                // must trip the guard rather than corrupt the claim word.
                pool.run(4, 2, &|_| {});
            })
        }));
        assert!(caught.is_err(), "concurrent dispatch must panic");
        // Guard must be cleared so the pool stays usable.
        let hits = AtomicUsize::new(0);
        pool.run(4, 2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
