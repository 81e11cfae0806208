//! PPL-style pipelined ensemble runner: a farm of step workers feeding a
//! streamed, order-restoring reducer.
//!
//! [`Simulator::run_profiles`](crate::simulate::Simulator::run_profiles)
//! runs every replica to the end and folds statistics after an end-of-run
//! barrier. This module restructures the ensemble as a pipeline of stages,
//! the farm shape of the parallel-pipeline (PPL) libraries: the heavy,
//! stateless work stays in the replicated workers and the collector only
//! orders and folds.
//!
//! ```text
//!  emitter                 step workers                reducer
//!  (atomic replica        (one seeded ChaCha           (the calling thread)
//!   counter)               stream per replica)
//!     │   claim next   ┌──────────────────┐  bounded   ┌──────────────────┐
//!     ├───────────────▶│ advance engine in │  channel   │ fold f64 samples │
//!     │                │ fixed tick chunks,├───────────▶│ in replica order │
//!     ├───────────────▶│ read the          │  batches   │ into RunningStats│
//!     │                │ observable at     │            │                  │
//!     └───────────────▶│ sample times      │            │                  │
//!                      └──────────────────┘            └──────────────────┘
//! ```
//!
//! * **Emitter** — a shared atomic counter; workers claim replica indices as
//!   they free up (work-stealing over replicas, like the `Simulator`'s
//!   [`run_profiles`](crate::simulate::Simulator::run_profiles) fan-out but
//!   with streaming output instead of one slot per replica).
//! * **Step workers** — threads of the [`Simulator`]'s persistent
//!   [`WorkerPool`] (spawned once, reused across runs — not per-run thread
//!   spawns). Each claims a replica, seeds the *same* deterministic ChaCha
//!   stream the sequential path derives, and advances the monomorphised
//!   [`DynamicsEngine`] hot loop in fixed-size tick chunks. At sample times
//!   it reads the observable and appends the `f64` to the chunk's sample
//!   batch: from the replica's running tally when the observable carries
//!   one ([`ProfileObservable::tally`]; the potential of the graphical and
//!   Ising games, `O(1)` per sample, updated at every applied move), else
//!   by evaluating it on its own profile. At chunk boundaries the batch is
//!   pushed through a **bounded** channel (backpressure: a slow reducer
//!   throttles the workers instead of letting samples pile up unboundedly).
//! * **Reducer** — the calling thread, which drains the channel *while
//!   replicas are still running* and offers each value to an
//!   [`OrderedSeriesReducer`], which folds it into [`SeriesAccumulator`]
//!   statistics. It evaluates nothing, so it keeps pace with the workers
//!   instead of letting the bounded channel fill and throttle them. There
//!   is no end-of-run barrier.
//!
//! **Bit-identity contract.** The pipelined runner is pinned to produce
//! exactly the bytes of the sequential path: replica streams use the same
//! seed derivation and consume randomness identically (evaluation draws
//! nothing), the observable is the same deterministic function of the same
//! profile whichever thread runs it (a tally holds exact integers, so
//! reading it gives the bits of a full evaluation), and the
//! [`OrderedSeriesReducer`] restores strict replica order per recorded time
//! before touching the Welford accumulators — so chunking, channel
//! capacity, worker count and arrival order are all unobservable in the
//! result. The proptest harness asserts this for every rule × schedule
//! combination.
//!
//! The rule/schedule seam stays a monomorphised generic end-to-end: workers
//! call the same `step_scheduled` loop as the sequential path, with the
//! schedule passed explicitly (the paper's chain is
//! [`UniformSingle`](crate::schedules::UniformSingle)), no `dyn` anywhere on
//! the hot path.
//!
//! **Entry points.** [`Simulator::run_profiles_pipelined`] farms profile
//! ensembles and [`Simulator::run_tempered`] farms tempering ensembles; both
//! take a [`PipelineConfig`] and an optional [`CancelToken`], and return
//! `None` only when that token was cancelled.
//!
//! **One path.** The farm has one transport (a bounded
//! `std::sync::mpsc::sync_channel`), one chunking policy (fixed
//! [`PipelineConfig::chunk_ticks`]) and one reducer (the
//! [`OrderedSeriesReducer`]); [`PipelineConfig`] sizes the chunks and the
//! channel and nothing else. A message carries `f64` samples only, so
//! in-flight sample memory is `O(capacity · batch)` whatever the game size.

use crate::dynamics::DynamicsEngine;
use crate::observables::{ProfileObservable, SeriesAccumulator};
use crate::rules::UpdateRule;
use crate::runtime::WorkerPool;
use crate::schedules::SelectionSchedule;
use crate::simulate::{sample_times, ProfileEnsembleResult, Replica, Simulator};
use logit_games::Game;
use logit_linalg::stats::RunningStats;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

/// Tuning knobs of the pipelined runner. The defaults are safe everywhere;
/// neither affects the result (the bit-identity contract), only
/// throughput and memory.
///
/// * `chunk_ticks` — engine ticks a worker advances a replica between
///   channel flushes. Larger chunks amortise channel traffic (one send per
///   chunk that contains a sample time); smaller chunks smooth reducer
///   utilisation. Keep it well above the per-tick cost crossover: at the
///   default sampling rates a chunk carries at most a few samples.
/// * `channel_capacity` — in-flight batches before senders block. This is
///   the backpressure bound: peak in-flight sample memory is
///   `O(capacity · batch)` `f64`s, independent of the player count. At
///   most [`MAX_CHANNEL_CAPACITY`](Self::MAX_CHANNEL_CAPACITY).
///
/// The step-worker count is not a pipeline knob: it comes from the
/// [`Simulator`]'s [`RuntimeConfig`](crate::runtime::RuntimeConfig)
/// (`workers`, capped at the replica count), the same notion of "how many
/// threads" the coloured and tempered paths use. Those workers step and
/// evaluate the observable; the calling thread runs the reducer in
/// addition.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Ticks per worker chunk (≥ 1).
    pub chunk_ticks: u64,
    /// Bounded-channel capacity in batches
    /// (1 ..= [`MAX_CHANNEL_CAPACITY`](Self::MAX_CHANNEL_CAPACITY)).
    pub channel_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            chunk_ticks: 4096,
            channel_capacity: 64,
        }
    }
}

/// Why a [`PipelineConfig`] was rejected. The service layer admits jobs
/// carrying client-supplied pipeline knobs, so the validation that used to
/// live only in `assert!`s is also available as a typed error a server can
/// return instead of panicking a shared worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineConfigError {
    /// `chunk_ticks` was zero.
    ZeroChunkTicks,
    /// `channel_capacity` was zero.
    ZeroChannelCapacity,
    /// `channel_capacity` exceeded
    /// [`PipelineConfig::MAX_CHANNEL_CAPACITY`].
    ChannelCapacityTooLarge,
}

impl std::fmt::Display for PipelineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineConfigError::ZeroChunkTicks => write!(f, "chunk_ticks must be at least 1"),
            PipelineConfigError::ZeroChannelCapacity => {
                write!(f, "channel_capacity must be at least 1")
            }
            PipelineConfigError::ChannelCapacityTooLarge => write!(
                f,
                "channel_capacity must be at most {}",
                PipelineConfig::MAX_CHANNEL_CAPACITY
            ),
        }
    }
}

impl std::error::Error for PipelineConfigError {}

impl PipelineConfig {
    /// The largest accepted `channel_capacity`. The farm's bounded channel
    /// allocates and writes every slot when it is created, before any
    /// message is sent, and a failed allocation aborts the process rather
    /// than panicking; a client-supplied capacity of 10⁹ would ask for tens
    /// of gigabytes at once. The default is 64, so this leaves ample room.
    pub const MAX_CHANNEL_CAPACITY: usize = 65_536;

    /// Checks the knobs without panicking — the admission-time counterpart
    /// of the entry-path `assert!`s, for callers (like a job server) that
    /// must turn a malformed configuration into a typed rejection rather
    /// than a panic.
    pub fn try_validate(&self) -> Result<(), PipelineConfigError> {
        if self.chunk_ticks < 1 {
            return Err(PipelineConfigError::ZeroChunkTicks);
        }
        if self.channel_capacity < 1 {
            return Err(PipelineConfigError::ZeroChannelCapacity);
        }
        if self.channel_capacity > Self::MAX_CHANNEL_CAPACITY {
            return Err(PipelineConfigError::ChannelCapacityTooLarge);
        }
        Ok(())
    }

    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// A shareable cancellation flag for farm runs: clone it, hand one clone
/// to [`Simulator::run_profiles_pipelined`] or [`Simulator::run_tempered`]
/// and keep the other; [`cancel`](CancelToken::cancel) from any thread makes
/// the farm's workers stop claiming work at their next chunk (or tempering
/// round) boundary — the emitter drains the remaining replicas as no-ops —
/// and the run return `None` instead of a result.
///
/// Cancellation is cooperative and chunk-granular: a worker mid-chunk
/// finishes the chunk (or round) it is stepping first. Cancelling an
/// already-finished run is a no-op on the workers but still makes the
/// runner report `None` — "cancelled" wins over "completed" whenever both
/// raced, so callers see one consistent outcome.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// One worker→reducer message: observable samples of a single replica at
/// consecutive recorded times, evaluated during one tick chunk.
pub(crate) struct SampleBatch {
    /// The replica (or tempering-ensemble) index the samples belong to.
    pub(crate) replica: usize,
    /// Index into the recorded-times grid of `values[0]`; entry `j` is the
    /// sample at recorded time `first_sample + j`.
    pub(crate) first_sample: usize,
    /// The observable values, in sample order.
    pub(crate) values: Vec<f64>,
}

impl SampleBatch {
    /// Offers every value of the batch to `reducer`, in sample order.
    pub(crate) fn offer_to(&self, reducer: &mut OrderedSeriesReducer) {
        for (j, &value) in self.values.iter().enumerate() {
            reducer.offer(self.first_sample + j, self.replica, value);
        }
    }
}

/// One farm-channel message: either a worker payload or a job-completion
/// marker. The reducer exits after observing one [`FarmMsg::JobDone`] per
/// job, so farm termination never depends on channel disconnection (the
/// farm's sender outlives the reduction).
pub(crate) enum FarmMsg<M> {
    /// A worker-produced message.
    Payload(M),
    /// One job (panicked, skipped or completed) has finished.
    JobDone,
}

/// The sending half handed to farm workers: wraps the payload in
/// [`FarmMsg::Payload`] so workers cannot forge completion markers.
pub(crate) struct FarmSender<M: Send> {
    tx: SyncSender<FarmMsg<M>>,
    telemetry: FarmTelemetry,
}

impl<M: Send> FarmSender<M> {
    /// Sends one payload to the reducer; `Err` means the reducer hung up
    /// (the worker should stop producing).
    pub(crate) fn send(&self, message: M) -> Result<(), M> {
        let sent = self.tx.send(FarmMsg::Payload(message)).map_err(|e| {
            match e.0 {
                FarmMsg::Payload(m) => m,
                // We only ever send Payload here.
                FarmMsg::JobDone => unreachable!("payload send returned a marker"),
            }
        });
        if sent.is_ok() {
            self.telemetry.batches_sent.inc();
            self.telemetry.in_flight.add(1.0);
        }
        sent
    }
}

/// Farm-channel instruments, registered once per [`farm`] call and cloned
/// (Arc-cheap, per job — never per message) into each sender. Zero-sized
/// without the `telemetry` feature.
#[derive(Clone)]
struct FarmTelemetry {
    /// `pipeline.batches_sent` — payloads accepted by the channel
    /// (completion markers are not payloads).
    batches_sent: logit_telemetry::Counter,
    /// `pipeline.channel_in_flight` — payloads sent but not yet consumed
    /// by the reducer: the live channel occupancy.
    in_flight: logit_telemetry::Gauge,
    /// `pipeline.reducer_lag` — occupancy observed at each consume: the
    /// backlog the reducer was behind by when it picked up a payload.
    reducer_lag: logit_telemetry::Histogram,
}

impl FarmTelemetry {
    fn register() -> Self {
        let registry = logit_telemetry::global();
        FarmTelemetry {
            batches_sent: registry.counter("pipeline.batches_sent"),
            in_flight: registry.gauge("pipeline.channel_in_flight"),
            reducer_lag: registry.histogram("pipeline.reducer_lag"),
        }
    }
}

/// The receiving half handed to the reducer: iterates worker payloads and
/// ends (returns `None`) once every job has reported done.
pub(crate) struct FarmReceiver<M: Send> {
    rx: Receiver<FarmMsg<M>>,
    jobs_remaining: usize,
    telemetry: FarmTelemetry,
}

impl<M: Send> Iterator for FarmReceiver<M> {
    type Item = M;

    fn next(&mut self) -> Option<M> {
        while self.jobs_remaining > 0 {
            match self.rx.recv() {
                Ok(FarmMsg::Payload(message)) => {
                    // The occupancy *before* this consume is the backlog
                    // the reducer was behind by. Guarded so the disabled
                    // path never even loads the gauge cell.
                    if logit_telemetry::enabled() {
                        self.telemetry
                            .reducer_lag
                            .record(self.telemetry.in_flight.value());
                        self.telemetry.in_flight.add(-1.0);
                    }
                    return Some(message);
                }
                Ok(FarmMsg::JobDone) => self.jobs_remaining -= 1,
                // Defensive: the farm keeps a sender alive for the whole
                // reduction, so disconnection before the last JobDone
                // cannot happen.
                Err(_) => return None,
            }
        }
        None
    }
}

/// The farm stage driver: dispatches `jobs` jobs to up to `workers` of the
/// persistent pool's threads (claimed through the pool's chunk-stealing
/// counter — no per-run thread spawns) that push messages into a bounded
/// channel, while `reduce` drains the channel on the calling thread
/// concurrently. Returns the reducer's result once every worker has
/// finished and the channel is drained.
///
/// A worker returns `false` when the reducer hung up (its sends fail); the
/// farm then skips the remaining jobs. Every job — completed, skipped or
/// panicked — posts exactly one [`FarmMsg::JobDone`], so the reducer's exit
/// is count-based and can never deadlock on a truncated stream. Panic
/// propagation favours root causes: a panicking worker's payload is
/// re-raised on the caller ahead of the reducer's own (typically
/// consequent, e.g. "incomplete reduction") panic; a panicking reducer
/// lets workers drain out and is then re-raised itself.
pub(crate) fn farm<M, W, F, R>(
    pool: &WorkerPool,
    jobs: usize,
    workers: usize,
    capacity: usize,
    worker: W,
    reduce: F,
) -> R
where
    M: Send,
    W: Fn(usize, &FarmSender<M>) -> bool + Sync,
    F: FnOnce(FarmReceiver<M>) -> R,
{
    assert!(jobs >= 1, "farm needs at least one job");
    assert!(capacity >= 1, "channel capacity must be at least 1");
    let (tx, rx) = sync_channel::<FarmMsg<M>>(capacity);
    let telemetry = FarmTelemetry::register();
    let stop = AtomicBool::new(false);
    let worker_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let job_fn = |job: usize| {
        if !stop.load(Ordering::Relaxed) {
            let sender = FarmSender {
                tx: tx.clone(),
                telemetry: telemetry.clone(),
            };
            match catch_unwind(AssertUnwindSafe(|| worker(job, &sender))) {
                Ok(true) => {}
                // The reducer hung up: stop claiming real work, drain the
                // remaining jobs as no-ops.
                Ok(false) => stop.store(true, Ordering::Relaxed),
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    let mut slot = worker_panic.lock().expect("panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
        // Exactly one completion marker per job, whatever happened above:
        // the reducer's exit counts these. A failed send means the reducer
        // is gone, and with it the need for the marker.
        let _ = tx.send(FarmMsg::JobDone);
    };

    let reduced = pool.execute_with(jobs, workers, &job_fn, || {
        catch_unwind(AssertUnwindSafe(|| {
            reduce(FarmReceiver {
                rx,
                jobs_remaining: jobs,
                telemetry: telemetry.clone(),
            })
        }))
    });

    if let Some(payload) = worker_panic.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }
    match reduced {
        Ok(result) => result,
        Err(payload) => resume_unwind(payload),
    }
}

/// Order-restoring streaming frontier in front of a
/// [`SeriesAccumulator`]: accepts `(sample, replica, value)` triples in
/// **any** arrival order and folds them in strict replica order per recorded
/// time, buffering early arrivals in per-time pending maps.
///
/// Welford's update is not associative in floating point, so the fold order
/// *is* the bytes of the resulting moments; this frontier makes the
/// pipelined fold replay exactly the sequential replica-major fold, which is
/// what turns "statistically equivalent" into "bit-identical". Memory is
/// bounded by the out-of-order window (at most one pending value per replica
/// per time, in practice a few chunks' worth).
#[derive(Debug)]
pub struct OrderedSeriesReducer {
    acc: SeriesAccumulator,
    next_replica: Vec<usize>,
    pending: Vec<BTreeMap<usize, f64>>,
    replicas: usize,
}

impl OrderedSeriesReducer {
    /// A frontier over `num_times` recorded times and `replicas` replicas.
    pub fn new(num_times: usize, replicas: usize) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        Self {
            acc: SeriesAccumulator::new(num_times),
            next_replica: vec![0; num_times],
            pending: vec![BTreeMap::new(); num_times],
            replicas,
        }
    }

    /// Offers one sample; folds it now if `replica` is the next expected one
    /// at that time (then drains any unblocked pending successors), buffers
    /// it otherwise.
    ///
    /// # Panics
    /// Panics on out-of-range indices or a duplicate `(sample, replica)`
    /// offer.
    pub fn offer(&mut self, sample: usize, replica: usize, value: f64) {
        assert!(replica < self.replicas, "replica index out of range");
        let next = &mut self.next_replica[sample];
        assert!(
            replica >= *next,
            "replica {replica} already folded at sample {sample}"
        );
        if replica == *next {
            self.acc.record(sample, replica, value);
            *next += 1;
            while let Some(v) = self.pending[sample].remove(next) {
                self.acc.record(sample, *next, v);
                *next += 1;
            }
        } else {
            let prev = self.pending[sample].insert(replica, value);
            assert!(
                prev.is_none(),
                "duplicate offer for replica {replica} at sample {sample}"
            );
        }
    }

    /// Number of samples folded into the accumulator so far (pending buffered
    /// samples not included).
    pub fn folded(&self) -> usize {
        self.next_replica.iter().sum()
    }

    /// Finishes the reduction.
    ///
    /// # Panics
    /// Panics when any `(sample, replica)` cell was never offered — a
    /// partial stream means a worker died or a batch went missing.
    pub fn finish(self) -> SeriesAccumulator {
        assert!(
            self.next_replica.iter().all(|&n| n == self.replicas),
            "reduction is incomplete: not every replica reported every sample"
        );
        self.acc
    }
}

impl Simulator {
    /// The pipelined counterpart of
    /// [`run_profiles`](Simulator::run_profiles): same replicas, same seeds,
    /// same schedule, same result — but run as pipeline stages (see the
    /// [module docs](crate::pipeline)): the step workers read the
    /// observable where they step (from the replica's tally when it carries
    /// one) and stream `f64` samples, and the calling thread folds them in
    /// replica order as replicas finish chunks, with no end-of-run barrier. `config` sizes the chunks and the channel; it
    /// affects throughput and memory only, never the result.
    ///
    /// Bit-identical to `run_profiles` under fixed seeds: same
    /// `EmpiricalLaw` samples, same `RunningStats` bytes (asserted by the
    /// test harness for every rule × schedule combination).
    ///
    /// Returns `None` only when `cancel` was cancelled (see [`CancelToken`];
    /// a cancelled run is the *only* way a partial stream is legal), so a
    /// run without a token always returns `Some`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_profiles_pipelined<G, U, S, O>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        schedule: &S,
        start: &[usize],
        steps: u64,
        sample_every: u64,
        observable: &O,
        config: &PipelineConfig,
        cancel: Option<&CancelToken>,
    ) -> Option<ProfileEnsembleResult>
    where
        G: Game + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        crate::simulate::validate_start_profile(dynamics.game(), start);
        assert!(steps >= 1, "need at least one step");
        assert!(sample_every >= 1, "sampling period must be at least 1");
        config.validate();

        let times = sample_times(steps, sample_every);
        let replicas = self.replicas();
        let workers = self.runtime().farm_workers(replicas);
        let seed = self.master_seed();
        let times_ref = &times;

        let worker = |replica: usize, tx: &FarmSender<SampleBatch>| {
            // A cancelled job stops claiming work before seeding anything:
            // returning `false` trips the farm's stop flag, so the emitter
            // drains every remaining replica as a no-op.
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return false;
            }
            // The sequential path's replica: same stream, same stepping,
            // same sampling, so bit-identity starts at the seed.
            let mut run = Replica::new(dynamics, observable, start, seed, replica);
            let mut next_sample = 0usize;
            let mut t = 0u64;
            while t < steps {
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    // Mid-replica cancellation: abandon the stream at a
                    // chunk boundary. The reducer tolerates the partial
                    // stream because the token explains it.
                    return false;
                }
                let chunk_end = (t + config.chunk_ticks).min(steps);
                let first_sample = next_sample;
                let mut values = Vec::new();
                while next_sample < times_ref.len() && times_ref[next_sample] <= chunk_end {
                    run.advance_to(schedule, times_ref[next_sample]);
                    values.push(run.sample());
                    next_sample += 1;
                }
                run.advance_to(schedule, chunk_end);
                t = chunk_end;
                if !values.is_empty() {
                    let send = tx.send(SampleBatch {
                        replica,
                        first_sample,
                        values,
                    });
                    if send.is_err() {
                        // The reducer died; stop stepping, let its panic
                        // surface through the farm.
                        return false;
                    }
                }
            }
            true
        };

        let reduced: Option<(Vec<RunningStats>, Vec<f64>)> = farm(
            self.pool(),
            replicas,
            workers,
            config.channel_capacity,
            worker,
            |rx| {
                let mut reducer = OrderedSeriesReducer::new(times_ref.len(), replicas);
                for batch in rx {
                    batch.offer_to(&mut reducer);
                }
                // "Cancelled" wins over "completed": even a stream that
                // happens to be whole is discarded once the token is set,
                // so racing callers observe one outcome.
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    return None;
                }
                Some(reducer.finish().into_series_and_finals())
            },
        );

        let (series, final_values) = reduced?;
        Some(ProfileEnsembleResult {
            replicas,
            steps,
            sample_every,
            name: observable.name().to_string(),
            times,
            series,
            final_values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::observables::{PotentialObservable, StrategyFraction};
    use crate::rules::{MetropolisLogit, NoisyBestResponse};
    use crate::runtime::RuntimeConfig;
    use crate::schedules::{AllLogit, SystematicSweep, UniformSingle};
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, WellGame};
    use logit_graphs::GraphBuilder;

    /// A `Simulator` with an explicit worker count (the knob that used to
    /// live on `PipelineConfig`).
    fn simulator_with_workers(seed: u64, replicas: usize, workers: usize) -> Simulator {
        Simulator::with_runtime(
            seed,
            replicas,
            RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            },
        )
    }

    /// A small pool for driving `farm` directly in tests.
    fn test_pool(workers: usize) -> WorkerPool {
        WorkerPool::new(&RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        })
    }

    /// Bitwise equality of two ensemble results — the bit-identity contract.
    fn assert_results_identical(a: &ProfileEnsembleResult, b: &ProfileEnsembleResult) {
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.times, b.times);
        assert_eq!(a.final_values, b.final_values);
        assert_eq!(a.series.len(), b.series.len());
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.count(), sb.count());
            assert_eq!(sa.mean(), sb.mean());
            assert_eq!(sa.variance(), sb.variance());
            assert_eq!(sa.min(), sb.min());
            assert_eq!(sa.max(), sb.max());
        }
    }

    fn ring_dynamics(n: usize) -> LogitDynamics<GraphicalCoordinationGame> {
        LogitDynamics::new(
            GraphicalCoordinationGame::new(
                GraphBuilder::ring(n),
                CoordinationGame::from_deltas(1.0, 2.0),
            ),
            1.2,
        )
    }

    #[test]
    fn pipelined_default_path_is_bit_identical_across_configs() {
        let d = ring_dynamics(6);
        let sim = Simulator::new(42, 24);
        let obs = StrategyFraction::new(1, "adopters");
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 6], 205, 50, &obs);
        // Chunking, capacity and worker count are unobservable in the result.
        for (workers, config) in [
            (0, PipelineConfig::default()),
            (
                1,
                PipelineConfig {
                    chunk_ticks: 1,
                    channel_capacity: 1,
                },
            ),
            (
                3,
                PipelineConfig {
                    chunk_ticks: 7,
                    channel_capacity: 2,
                },
            ),
            (
                0,
                PipelineConfig {
                    chunk_ticks: 1_000_000,
                    channel_capacity: 64,
                },
            ),
            // The largest accepted capacity is a usable setting, not only a
            // bound.
            (
                2,
                PipelineConfig {
                    chunk_ticks: 16,
                    channel_capacity: PipelineConfig::MAX_CHANNEL_CAPACITY,
                },
            ),
        ] {
            let sim = simulator_with_workers(42, 24, workers);
            let pipelined = sim
                .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 205, 50, &obs, &config, None)
                .expect("uncancelled runs complete");
            assert_results_identical(&sequential, &pipelined);
        }
    }

    #[test]
    fn pipelined_scheduled_paths_are_bit_identical() {
        let d = ring_dynamics(5);
        let sim = simulator_with_workers(9, 16, 2);
        let obs = StrategyFraction::new(0, "zeros");
        let config = PipelineConfig {
            chunk_ticks: 13,
            channel_capacity: 3,
        };
        let seq_sweep = sim.run_profiles(&d, &SystematicSweep, &[1; 5], 77, 20, &obs);
        let pipe_sweep = sim
            .run_profiles_pipelined(&d, &SystematicSweep, &[1; 5], 77, 20, &obs, &config, None)
            .expect("uncancelled runs complete");
        assert_results_identical(&seq_sweep, &pipe_sweep);

        let seq_block = sim.run_profiles(&d, &AllLogit, &[1; 5], 40, 10, &obs);
        let default = PipelineConfig::default();
        let pipe_block = sim
            .run_profiles_pipelined(&d, &AllLogit, &[1; 5], 40, 10, &obs, &default, None)
            .expect("uncancelled runs complete");
        assert_results_identical(&seq_block, &pipe_block);
    }

    #[test]
    fn pipelined_runner_covers_every_rule() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let sim = simulator_with_workers(3, 12, 2);
        let obs = PotentialObservable::new(game.clone());
        let config = PipelineConfig {
            chunk_ticks: 11,
            channel_capacity: 2,
        };
        let start = [0; 5];

        let logit = DynamicsEngine::with_rule(game.clone(), crate::rules::Logit, 0.9);
        assert_results_identical(
            &sim.run_profiles(&logit, &UniformSingle, &start, 60, 25, &obs),
            &sim.run_profiles_pipelined(
                &logit,
                &UniformSingle,
                &start,
                60,
                25,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete"),
        );
        let metro = DynamicsEngine::with_rule(game.clone(), MetropolisLogit, 0.9);
        assert_results_identical(
            &sim.run_profiles(&metro, &UniformSingle, &start, 60, 25, &obs),
            &sim.run_profiles_pipelined(
                &metro,
                &UniformSingle,
                &start,
                60,
                25,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete"),
        );
        let nbr = DynamicsEngine::with_rule(game, NoisyBestResponse::new(0.2), 0.9);
        assert_results_identical(
            &sim.run_profiles(&nbr, &UniformSingle, &start, 60, 25, &obs),
            &sim.run_profiles_pipelined(&nbr, &UniformSingle, &start, 60, 25, &obs, &config, None)
                .expect("uncancelled runs complete"),
        );
    }

    #[test]
    fn pipelined_runner_streams_beyond_flat_index_capacity() {
        // 400 binary players: no flat index exists; the farm streams fine.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(400),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(17, 6);
        let obs = StrategyFraction::new(0, "zeros");
        let start = vec![1usize; 400];
        let config = PipelineConfig::default();
        let sequential = sim.run_profiles(&d, &UniformSingle, &start, 8_000, 2_000, &obs);
        let pipelined = sim
            .run_profiles_pipelined(
                &d,
                &UniformSingle,
                &start,
                8_000,
                2_000,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete");
        assert_results_identical(&sequential, &pipelined);
        assert!(pipelined.law().mean() > 0.2);
    }

    #[test]
    fn ordered_reducer_is_arrival_order_invariant() {
        // 3 times x 4 replicas, folded forwards vs in a scrambled order.
        let values = |sample: usize, replica: usize| (sample * 10 + replica) as f64 * 0.3 - 1.0;
        let mut forward = OrderedSeriesReducer::new(3, 4);
        for replica in 0..4 {
            for sample in 0..3 {
                forward.offer(sample, replica, values(sample, replica));
            }
        }
        let mut scrambled = OrderedSeriesReducer::new(3, 4);
        for (sample, replica) in [
            (2, 3),
            (0, 1),
            (1, 2),
            (0, 0),
            (2, 0),
            (1, 0),
            (0, 3),
            (0, 2),
            (2, 1),
            (1, 3),
            (1, 1),
            (2, 2),
        ] {
            scrambled.offer(sample, replica, values(sample, replica));
        }
        assert_eq!(forward.folded(), 12);
        assert_eq!(scrambled.folded(), 12);
        let fwd = forward.finish();
        let scr = scrambled.finish();
        assert_eq!(fwd.final_values(), scr.final_values());
        for (a, b) in fwd.series().iter().zip(scr.series()) {
            assert_eq!(a.count(), b.count());
            assert_eq!(a.mean(), b.mean());
            assert_eq!(a.variance(), b.variance());
        }
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn ordered_reducer_rejects_partial_streams() {
        let mut reducer = OrderedSeriesReducer::new(2, 2);
        reducer.offer(0, 0, 1.0);
        let _ = reducer.finish();
    }

    #[test]
    #[should_panic(expected = "duplicate offer")]
    fn ordered_reducer_rejects_duplicate_pending_offers() {
        let mut reducer = OrderedSeriesReducer::new(1, 3);
        reducer.offer(0, 2, 1.0);
        reducer.offer(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "already folded")]
    fn ordered_reducer_rejects_refolding_a_consumed_replica() {
        let mut reducer = OrderedSeriesReducer::new(1, 3);
        reducer.offer(0, 0, 1.0);
        reducer.offer(0, 0, 2.0);
    }

    #[test]
    #[should_panic(expected = "chunk_ticks")]
    fn zero_chunk_config_rejected() {
        let d = ring_dynamics(4);
        let sim = Simulator::new(1, 2);
        let obs = StrategyFraction::new(0, "zeros");
        let config = PipelineConfig {
            chunk_ticks: 0,
            channel_capacity: 1,
        };
        let _ = sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 10, 5, &obs, &config, None);
    }

    #[test]
    #[should_panic(expected = "channel_capacity")]
    fn zero_capacity_config_rejected_loudly() {
        // The silent `.max(1)` clamp is gone: a zero capacity fails the
        // entry-path validation instead of being quietly papered over.
        let d = ring_dynamics(4);
        let sim = Simulator::new(1, 2);
        let obs = StrategyFraction::new(0, "zeros");
        let config = PipelineConfig {
            chunk_ticks: 8,
            channel_capacity: 0,
        };
        let _ = sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 10, 5, &obs, &config, None);
    }

    #[test]
    #[should_panic(expected = "channel_capacity must be at most")]
    fn oversized_capacity_config_rejected_before_the_channel_is_built() {
        // std's bounded channel writes every slot when it is created, so
        // the entry path must refuse a capacity past the limit first.
        let d = ring_dynamics(4);
        let sim = Simulator::new(1, 2);
        let obs = StrategyFraction::new(0, "zeros");
        let config = PipelineConfig {
            chunk_ticks: 8,
            channel_capacity: PipelineConfig::MAX_CHANNEL_CAPACITY + 1,
        };
        let _ = sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 10, 5, &obs, &config, None);
    }

    #[test]
    #[should_panic(expected = "channel capacity must be at least 1")]
    fn the_farm_itself_rejects_a_zero_capacity_channel() {
        let pool = test_pool(1);
        let _ = farm(
            &pool,
            1,
            1,
            0,
            |job, tx: &FarmSender<usize>| tx.send(job).is_ok(),
            |rx| rx.sum::<usize>(),
        );
    }

    #[test]
    fn dense_sampling_preserves_bit_identity() {
        // sample_every = 1 evaluates the observable after every tick and
        // puts the most samples through the channel; the results must not
        // notice.
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(77, 12, 2);
        let obs = StrategyFraction::new(1, "adopters");
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 6], 120, 1, &obs);
        for config in [
            PipelineConfig::default(),
            PipelineConfig {
                chunk_ticks: 3,
                channel_capacity: 1,
            },
        ] {
            let pipelined = sim
                .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 120, 1, &obs, &config, None)
                .expect("uncancelled runs complete");
            assert_results_identical(&sequential, &pipelined);
        }
    }

    #[test]
    fn both_farms_evaluate_every_sample_on_the_step_workers() {
        // The stage split: step workers evaluate the observable where they
        // step, the calling thread only orders and folds. Every evaluation
        // logs the thread it ran on: there must be one per (replica,
        // recorded time) and none on the caller, whatever the worker count.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let d = LogitDynamics::new(game.clone(), 0.9);
        let ensemble = TemperingEnsemble::new(game, crate::rules::Logit, &[0.4, 1.2, 2.4]);
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let counting = crate::observables::NamedObservable::new("counting", |p: &[usize]| {
            threads
                .lock()
                .expect("thread log poisoned")
                .push(std::thread::current().id());
            p[0] as f64
        });
        let evaluations = || std::mem::take(&mut *threads.lock().expect("thread log poisoned"));
        let config = PipelineConfig {
            chunk_ticks: 5,
            channel_capacity: 2,
        };
        let replicas = 6;
        for workers in 1..=3 {
            let sim = simulator_with_workers(11, replicas, workers);
            let farmed = sim
                .run_profiles_pipelined(
                    &d,
                    &UniformSingle,
                    &[0; 4],
                    40,
                    10,
                    &counting,
                    &config,
                    None,
                )
                .expect("uncancelled runs complete");
            let ran_on = evaluations();
            assert_eq!(ran_on.len(), replicas * farmed.times.len());
            assert!(
                ran_on.iter().all(|&id| id != caller),
                "the profile farm evaluated on the calling thread ({workers} workers)"
            );

            let tempered = sim
                .run_tempered(
                    &ensemble,
                    &UniformSingle,
                    &[0; 4],
                    12,
                    4,
                    5,
                    &counting,
                    &config,
                    None,
                )
                .expect("uncancelled runs complete");
            let ran_on = evaluations();
            assert_eq!(ran_on.len(), replicas * tempered.times.len());
            assert!(
                ran_on.iter().all(|&id| id != caller),
                "the tempered farm evaluated on the calling thread ({workers} workers)"
            );
        }
    }

    #[test]
    fn an_observable_panic_surfaces_with_its_own_message_from_both_farms() {
        // A panicking observable kills a step worker mid-stream. Both farms
        // must re-raise the observable's own message, not the reducer's
        // consequent "reduction is incomplete", and leave the pool usable.
        use crate::tempering::TemperingEnsemble;
        use std::sync::atomic::AtomicUsize;
        let game = WellGame::plateau(4, 2.0);
        let d = LogitDynamics::new(game.clone(), 0.9);
        let ensemble = TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.4, 1.2, 2.4]);
        let sim = simulator_with_workers(13, 8, 2);
        let calls = AtomicUsize::new(0);
        let faulty = crate::observables::NamedObservable::new("faulty", |p: &[usize]| {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            if call == 5 {
                panic!("observable failed at evaluation {call}");
            }
            p[0] as f64
        });
        let config = PipelineConfig {
            chunk_ticks: 3,
            channel_capacity: 1,
        };
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };

        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 40, 5, &faulty, &config, None)
        }));
        let payload = caught.expect_err("the observable panic must propagate");
        assert_eq!(message(payload), "observable failed at evaluation 5");

        calls.store(0, Ordering::Relaxed);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_tempered(
                &ensemble,
                &UniformSingle,
                &[0; 4],
                12,
                4,
                1,
                &faulty,
                &config,
                None,
            )
        }));
        let payload = caught.expect_err("the observable panic must propagate");
        assert_eq!(message(payload), "observable failed at evaluation 5");

        // The same simulator still reproduces the sequential path.
        let obs = PotentialObservable::new(game);
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 4], 40, 5, &obs);
        let farmed = sim
            .run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 40, 5, &obs, &config, None)
            .expect("uncancelled runs complete");
        assert_results_identical(&sequential, &farmed);
    }

    #[test]
    fn farm_streams_every_message_and_reduces_on_the_caller() {
        let pool = test_pool(4);
        let sum = farm(
            &pool,
            100,
            4,
            8,
            |job, tx: &FarmSender<usize>| tx.send(job * job).is_ok(),
            |rx| rx.sum::<usize>(),
        );
        assert_eq!(sum, (0..100).map(|j| j * j).sum::<usize>());
    }

    #[test]
    fn farm_propagates_the_reducer_panic_after_workers_drain() {
        // A dying reducer must not deadlock blocked senders, and its panic —
        // the root cause — must reach the caller.
        let pool = test_pool(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            farm(
                &pool,
                50,
                2,
                1,
                |job, tx: &FarmSender<usize>| tx.send(job).is_ok(),
                |mut rx| {
                    let first = rx.next();
                    panic!("reducer rejected {first:?}");
                },
            )
        }));
        let payload = caught.expect_err("the reducer panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("reducer rejected"),
            "expected the reducer's own panic, got {message:?}"
        );
    }

    #[test]
    fn farm_propagates_a_worker_panic_as_the_root_cause() {
        // A dying worker truncates the stream; the reducer's incomplete-fold
        // panic must not mask the worker's payload.
        let pool = test_pool(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            farm(
                &pool,
                4,
                2,
                2,
                |job, _tx: &FarmSender<usize>| {
                    if job == 1 {
                        panic!("worker {job} exploded");
                    }
                    true
                },
                |rx| {
                    let drained: Vec<usize> = rx.collect();
                    panic!("stream truncated after {} messages", drained.len());
                },
            )
        }));
        let payload = caught.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("worker 1 exploded"),
            "expected the worker's panic as root cause, got {message:?}"
        );
    }

    #[test]
    fn farm_reuses_the_pool_across_many_runs_without_thread_churn() {
        // The whole point of the persistent pool: many short farm runs on
        // one pool, one dispatch each, no respawns.
        let pool = test_pool(3);
        for round in 0..50usize {
            let total = farm(
                &pool,
                6,
                3,
                4,
                move |job, tx: &FarmSender<usize>| tx.send(job + round).is_ok(),
                |rx| rx.sum::<usize>(),
            );
            assert_eq!(total, (0..6).map(|j| j + round).sum::<usize>());
        }
        assert_eq!(pool.dispatches(), 50);
    }

    #[test]
    fn try_validate_reports_typed_errors_and_validate_still_panics() {
        let good = PipelineConfig::default();
        assert_eq!(good.try_validate(), Ok(()));
        let zero_chunk = PipelineConfig {
            chunk_ticks: 0,
            ..PipelineConfig::default()
        };
        assert_eq!(
            zero_chunk.try_validate(),
            Err(PipelineConfigError::ZeroChunkTicks)
        );
        let zero_capacity = PipelineConfig {
            channel_capacity: 0,
            ..PipelineConfig::default()
        };
        assert_eq!(
            zero_capacity.try_validate(),
            Err(PipelineConfigError::ZeroChannelCapacity)
        );
        let largest = PipelineConfig {
            channel_capacity: PipelineConfig::MAX_CHANNEL_CAPACITY,
            ..PipelineConfig::default()
        };
        assert_eq!(largest.try_validate(), Ok(()));
        let huge_capacity = PipelineConfig {
            channel_capacity: 1_000_000_000,
            ..PipelineConfig::default()
        };
        assert_eq!(
            huge_capacity.try_validate(),
            Err(PipelineConfigError::ChannelCapacityTooLarge)
        );
        // The typed errors render the exact strings the entry-path panics
        // (and their should_panic pins) rely on.
        assert_eq!(
            PipelineConfigError::ZeroChunkTicks.to_string(),
            "chunk_ticks must be at least 1"
        );
        assert_eq!(
            PipelineConfigError::ZeroChannelCapacity.to_string(),
            "channel_capacity must be at least 1"
        );
        assert_eq!(
            PipelineConfigError::ChannelCapacityTooLarge.to_string(),
            "channel_capacity must be at most 65536"
        );
    }

    #[test]
    fn a_pre_cancelled_run_returns_none_without_stepping() {
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(42, 16, 2);
        let obs = StrategyFraction::new(1, "adopters");
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = sim.run_profiles_pipelined(
            &d,
            &UniformSingle,
            &[0; 6],
            1_000,
            100,
            &obs,
            &PipelineConfig::default(),
            Some(&cancel),
        );
        assert!(
            result.is_none(),
            "a cancelled run must not produce a result"
        );
    }

    #[test]
    fn mid_run_cancellation_ends_the_farm_cleanly() {
        // Tiny chunks so workers hit the cancellation check often; the
        // token is tripped by the reducer side-channel after the first
        // batch lands, which is guaranteed to be mid-run because replicas
        // far outnumber workers.
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(7, 64, 2);
        let cancel = CancelToken::new();
        let trip = cancel.clone();
        let obs = crate::observables::NamedObservable::new("tripwire", move |p: &[usize]| {
            trip.cancel();
            p[0] as f64
        });
        let config = PipelineConfig {
            chunk_ticks: 2,
            channel_capacity: 2,
        };
        let result = sim.run_profiles_pipelined(
            &d,
            &UniformSingle,
            &[0; 6],
            400,
            10,
            &obs,
            &config,
            Some(&cancel),
        );
        assert!(result.is_none());
        // The pool survives the cancelled farm: the next run is normal and
        // bit-identical to the sequential path.
        let obs = StrategyFraction::new(1, "adopters");
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 6], 120, 30, &obs);
        let fresh = CancelToken::new();
        let rerun = sim
            .run_profiles_pipelined(
                &d,
                &UniformSingle,
                &[0; 6],
                120,
                30,
                &obs,
                &config,
                Some(&fresh),
            )
            .expect("uncancelled rerun completes");
        assert_results_identical(&sequential, &rerun);
    }

    #[test]
    fn reseeded_simulators_share_one_pool_and_replay_bit_identically() {
        let d = ring_dynamics(6);
        // The base's pool is never touched before `reseeded`: the server's
        // executor forks every job off a fresh simulator the same way.
        let base = simulator_with_workers(1, 4, 2);
        let job = base.reseeded(99, 12);
        assert!(
            std::ptr::eq(base.pool(), job.pool()),
            "a reseeded simulator must share its base's pool, not spawn its own"
        );
        let obs = StrategyFraction::new(1, "adopters");
        let config = PipelineConfig::default();
        let served = job
            .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 150, 30, &obs, &config, None)
            .expect("uncancelled runs complete");
        // The offline replay contract: a fresh Simulator with the job's
        // seed and replica count reproduces the served bytes.
        let offline =
            Simulator::new(99, 12).run_profiles(&d, &UniformSingle, &[0; 6], 150, 30, &obs);
        assert_results_identical(&offline, &served);
    }

    #[test]
    fn pipelined_tempered_runs_match_their_sequential_contract() {
        // `run_tempered` is routed through the same farm/reducer stages; its
        // existing tests pin reproducibility, this one pins the stage plumbing
        // on a multi-rung ladder end to end.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.4, 1.2, 2.4]);
        let sim = Simulator::new(31, 10);
        let obs = PotentialObservable::new(game);
        let run = |sim: &Simulator, config: &PipelineConfig| {
            sim.run_tempered(
                &ensemble,
                &UniformSingle,
                &[0; 4],
                12,
                4,
                5,
                &obs,
                config,
                None,
            )
            .expect("uncancelled runs complete")
        };
        let a = run(&sim, &PipelineConfig::default());
        let b = run(&sim, &PipelineConfig::default());
        assert_eq!(a.final_values, b.final_values);
        assert_eq!(a.swap_stats, b.swap_stats);
        assert_eq!(a.times, vec![20, 40, 48]);
        assert!(a.series.iter().all(|s| s.count() == 10));
        // Explicit pipeline knobs — and a different worker count — cannot
        // change the tempered result either.
        let tight = PipelineConfig {
            chunk_ticks: 1,
            channel_capacity: 1,
        };
        let c = run(&simulator_with_workers(31, 10, 1), &tight);
        assert_eq!(a.final_values, c.final_values);
        assert_eq!(a.swap_stats, c.swap_stats);
        for (sa, sc) in a.series.iter().zip(&c.series) {
            assert_eq!(sa.count(), sc.count());
            assert_eq!(sa.mean(), sc.mean());
            assert_eq!(sa.variance(), sc.variance());
        }
    }

    #[test]
    fn mid_run_cancellation_ends_the_tempered_farm_cleanly() {
        // The observable trips the token on the first cold-replica sample,
        // which lands after round 1 of the first ensemble while many
        // rounds and ensembles remain: the workers must stop between
        // rounds and the run must report `None`.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.4, 1.2, 2.4]);
        let sim = simulator_with_workers(5, 16, 2);
        let cancel = CancelToken::new();
        let trip = cancel.clone();
        let tripwire =
            crate::observables::NamedObservable::new("tripwire", move |p: &[usize]| {
                trip.cancel();
                p[0] as f64
            });
        let config = PipelineConfig {
            chunk_ticks: 1,
            channel_capacity: 1,
        };
        let cancelled = sim.run_tempered(
            &ensemble,
            &UniformSingle,
            &[0; 4],
            400,
            4,
            1,
            &tripwire,
            &config,
            Some(&cancel),
        );
        assert!(cancelled.is_none());
        // The pool survives the cancelled farm: the same simulator's next
        // run equals a fresh simulator's.
        let obs = PotentialObservable::new(game);
        let run = |sim: &Simulator| {
            sim.run_tempered(
                &ensemble,
                &UniformSingle,
                &[0; 4],
                30,
                4,
                10,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete")
        };
        let rerun = run(&sim);
        let fresh = run(&simulator_with_workers(5, 16, 2));
        assert_eq!(rerun.times, fresh.times);
        assert_eq!(rerun.final_values, fresh.final_values);
        assert_eq!(rerun.swap_stats, fresh.swap_stats);
        for (sa, sb) in rerun.series.iter().zip(&fresh.series) {
            assert_eq!(sa.count(), sb.count());
            assert_eq!(sa.mean(), sb.mean());
            assert_eq!(sa.variance(), sb.variance());
        }
    }
}
