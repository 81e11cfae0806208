//! The farmed ensemble runner: resumable segments over waves of replicas.
//!
//! [`Simulator::run_profiles`] runs every replica to the end and folds the
//! samples after an end-of-run barrier. This module runs the same replicas
//! *time-major*, a few milliseconds at a time, so that a caller can stop
//! between any two steps of the run, interleave other work, and hand out
//! each sample time as soon as every replica has passed it.
//!
//! ```text
//!   wave 0: replicas 0..w          wave 1: replicas w..2w         …
//!   ┌─────────┬─────────┬─────┐    ┌─────────┬─────────┬─────┐
//!   │ segment │ segment │  …  │ ─▶ │ segment │ segment │  …  │ ─▶ …
//!   └─────────┴─────────┴─────┘    └─────────┴─────────┴─────┘
//!        │ one pool dispatch: every live replica advances the same
//!        │ whole ticks and reads the observable at the sample times
//!        ▼ inside them
//!   caller: folds the segment's samples in replica order; once the
//!   last wave passes a sample time, that time is complete
//!
//!   or, when a replica's whole run fits in a segment:
//!   ┌──────────────────────────────────────────────┐
//!   │ replicas first..first+k, each run whole,      │ one pool dispatch;
//!   │ claimed one at a time by w participants       │ its times complete
//!   └──────────────────────────────────────────────┘ with the last replica
//! ```
//!
//! * **Waves.** A run keeps at most
//!   [`RuntimeConfig::farm_workers`](crate::runtime::RuntimeConfig::farm_workers)
//!   replicas live: replicas `0..w`, then `w..2w`, and so on. A replica's
//!   state (profile, neighbour-count words, tally, scratch, ChaCha stream)
//!   is built on the pool at its wave's first segment and dropped when the
//!   wave ends, so memory stays at one wave whatever the replica count.
//! * **Segments.** A segment advances every live replica (or tempering
//!   ensemble) by the same number of whole ticks (whole rounds for
//!   tempered runs) on one pool dispatch, the caller stepping one replica
//!   itself. Its length is derived from the run: as many ticks as fit in
//!   [`SEGMENT_UPDATES`] player updates per replica
//!   ([`SelectionSchedule::updates_in`]), and at least one. A segment ends
//!   when its slowest lane does.
//! * **Whole replicas.** When a replica's whole run fits in the budget, a
//!   segment instead runs the next `w` × ⌊budget / run⌋ replicas whole on
//!   one dispatch: the pool's claim counter hands them out one at a time
//!   to at most `w` participants, so at most `w` are live, a participant
//!   runs about one budget of updates, and one that finishes a replica
//!   claims the next instead of waiting for a wave's slowest lane.
//! * **Fold.** After the dispatch the caller folds the segment's samples
//!   into a [`SeriesAccumulator`], per sample time in replica order.
//!   Replicas are folded in replica order, wave after wave or dispatch
//!   after dispatch, so every time's moments see the replica-major fold of
//!   the sequential path.
//!
//! **Bit-identity contract.** A replica (rung) draws from the stream the
//! sequential path derives for it, steps the same monomorphised
//! [`DynamicsEngine`] loop and reads the observable the same way (from its
//! tally when it keeps one, which holds exact integers), and the fold
//! order is the sequential one. So the segment length, the wave width,
//! whole-replica dispatches and the worker count are unobservable in the
//! result: the runner produces
//! exactly the bytes of [`Simulator::run_profiles`], which the tests
//! assert for every rule × schedule and every budget from one tick to the
//! whole run.
//!
//! **Entry points.** [`ProfileRun`] and [`TemperedRun`] are the resumable
//! runs: build one, call `segment` until `is_done`, then `finish`. The job
//! server's executor interleaves its jobs through them one segment at a
//! time. [`Simulator::run_profiles_pipelined`] and
//! [`Simulator::run_tempered`] loop over them to completion, checking an
//! optional [`CancelToken`] before every segment, and return `None` only
//! when it was cancelled.

use crate::dynamics::DynamicsEngine;
use crate::observables::{ProfileObservable, SeriesAccumulator};
use crate::rules::UpdateRule;
use crate::schedules::SelectionSchedule;
use crate::simulate::{
    copied, ensemble_seed, sample_times, validate_start_profile, ProfileEnsembleResult, Replica,
    ReplicaStart, Simulator, TemperedEnsembleResult,
};
use crate::spare;
use crate::tempering::{RungStart, SwapStats, TemperingEnsemble, TemperingState};
use logit_games::{Game, PotentialGame};
use logit_linalg::stats::RunningStats;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Player updates a segment may take per replica (per tempering ensemble,
/// every rung counted); a segment always takes at least one tick or round.
///
/// At about 20 ns per update this is about 20 ms of one core, which is
/// what a short job waits for at most behind a running segment. On a
/// 2-core host the job server's heavy coloured job (2²⁰ players, about
/// 175,000 revisions per tick) runs 5 ticks per segment and its heavy
/// tempered job (8 rungs × 16,384 players per round) 8 rounds, about
/// 16–18 ms each. Every replica of the offline and short served workloads
/// (at most 4·10⁵ updates each) runs whole, two or more per participant of
/// a dispatch. Against 2¹⁸ and 2¹⁹ on the heavy served
/// workload, the longer segment costs the short jobs waiting behind heavy
/// ones latency (a probe's median 5.2, 8.6 and 19.8 ms) but gives the
/// heavy jobs back throughput the more frequent short jobs take (−21%,
/// −13% to −16% and −11% against the unsegmented runner); 2¹⁹ read past
/// −15% over ten paired runs, so the segment is 2²⁰ (see `CHANGES.md`).
pub const SEGMENT_UPDATES: u64 = 1 << 20;

/// A shareable cancellation flag for farmed runs: clone it, hand one clone
/// to [`Simulator::run_profiles_pipelined`] or [`Simulator::run_tempered`]
/// and keep the other; [`cancel`](CancelToken::cancel) from any thread
/// makes the run stop before its next segment and return `None` instead
/// of a result.
///
/// Cancellation is cooperative and segment-granular: a segment in flight
/// finishes first. Cancelling an already-finished run still makes the
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

/// One live replica (or tempering ensemble) of a wave and the samples it
/// took in the current segment.
struct Lane<L> {
    /// Built at the lane's first segment, on the thread that steps it.
    state: Option<L>,
    samples: Vec<f64>,
}

/// The wave and segment bookkeeping both resumable runs share. Positions
/// are in *units*: ticks for profile runs, rounds for tempered runs.
struct Waves<L> {
    /// Shares the caller's pool; carries the master seed and replica count.
    sim: Simulator,
    /// Replicas per wave.
    width: usize,
    /// Replica buffer sets a lane holds: one per replica, or one per rung
    /// of a tempering ensemble.
    sets_per_lane: usize,
    /// The recorded-times grid, in units; its last entry ends the run.
    times: Vec<u64>,
    /// The live wave, or empty before a wave's first segment.
    lanes: Vec<Lane<L>>,
    /// The first replica of the live wave.
    first: usize,
    /// Units the live wave has advanced.
    at: u64,
    /// The next recorded time the live wave samples.
    next: usize,
    /// Recorded times every replica has passed.
    completed: usize,
    acc: SeriesAccumulator,
    /// Player updates per lane per segment.
    budget: u64,
    /// `pipeline.reducer_lag`: segments whose samples wait unfolded when
    /// the caller folds one. Always 0, since each segment is folded right
    /// after its dispatch; the name is the one the channel farm recorded
    /// its backlog under, so its readers see the lag of the runner that
    /// replaced it.
    lag: logit_telemetry::Histogram,
}

impl<L: Send> Waves<L> {
    fn new(sim: &Simulator, times: Vec<u64>, sets_per_lane: usize) -> Self {
        // Spawn the pool before cloning, so the clone shares it.
        let _ = sim.pool();
        Self {
            width: sim.runtime().farm_workers(sim.replicas()),
            sets_per_lane,
            acc: SeriesAccumulator::new(times.len()),
            sim: sim.clone(),
            times,
            lanes: Vec::new(),
            first: 0,
            at: 0,
            next: 0,
            completed: 0,
            budget: SEGMENT_UPDATES,
            lag: logit_telemetry::global().histogram("pipeline.reducer_lag"),
        }
    }

    fn end(&self) -> u64 {
        *self.times.last().expect("a run records at least its end")
    }

    fn is_done(&self) -> bool {
        self.first >= self.sim.replicas()
    }

    fn wave_len(&self) -> usize {
        self.width.min(self.sim.replicas() - self.first)
    }

    /// Player updates left to run, given a lane's updates over a range of
    /// units.
    fn remaining(&self, updates: impl Fn(Range<u64>) -> u64) -> u64 {
        if self.is_done() {
            return 0;
        }
        let live = self.wave_len() as u64;
        let later = (self.sim.replicas() - self.first) as u64 - live;
        live.saturating_mul(updates(self.at..self.end()))
            .saturating_add(later.saturating_mul(updates(0..self.end())))
    }

    /// Runs the next segment on the pool and returns the recorded times it
    /// completed; `updates` gives a lane's player updates over a range of
    /// units. Between waves, when a replica's whole run fits in the budget,
    /// the segment runs replicas whole ([`whole_replicas`]); otherwise it
    /// advances the live wave ([`advance_wave`]), starting one if none is
    /// live.
    ///
    /// A lane is built for its replica (`build`), advanced to every
    /// recorded time (`advance`) and sampled there (`sample`). A lane that
    /// reaches the end is consumed by `finish` on the thread that stepped
    /// it, and what that returns goes to `retire` on the caller, in replica
    /// order.
    ///
    /// [`whole_replicas`]: Self::whole_replicas
    /// [`advance_wave`]: Self::advance_wave
    fn segment<R: Send>(
        &mut self,
        updates: impl Fn(Range<u64>) -> u64,
        build: impl Fn(usize) -> L + Sync,
        advance: impl Fn(&mut L, u64) + Sync,
        sample: impl Fn(&L) -> f64 + Sync,
        finish: impl Fn(L) -> R + Sync,
        retire: impl FnMut(R),
    ) -> Range<usize> {
        assert!(!self.is_done(), "the run is already complete");
        self.lag.record(0.0);
        // Whole replicas or a wave, at most `width` lanes are live.
        spare::keep_live(self.width * self.sets_per_lane);
        let whole = updates(0..self.end()).max(1);
        if self.lanes.is_empty() && whole <= self.budget {
            let fit = usize::try_from(self.budget / whole).unwrap_or(usize::MAX);
            let count = fit
                .saturating_mul(self.width)
                .min(self.sim.replicas() - self.first);
            return self.whole_replicas(count, build, advance, sample, finish, retire);
        }
        let stop = self.segment_end(&updates);
        self.advance_wave(stop, build, advance, sample, finish, retire)
    }

    /// Where the next segment ends: the furthest unit whose updates from
    /// `at` fit in the budget, and at least one unit on.
    fn segment_end(&self, updates: impl Fn(Range<u64>) -> u64) -> u64 {
        let (mut fits, mut over) = (self.at + 1, self.end());
        if updates(self.at..over) <= self.budget {
            return over;
        }
        while over - fits > 1 {
            let mid = fits + (over - fits) / 2;
            if updates(self.at..mid) <= self.budget {
                fits = mid;
            } else {
                over = mid;
            }
        }
        fits
    }

    /// Runs replicas `first..first + count` from start to end on one
    /// dispatch. The pool hands them out one at a time to at most `width`
    /// participants, so at most `width` are live and a participant that
    /// finishes one claims the next, where a wave would wait for its
    /// slowest lane. `count` is `width` times the whole runs that fit in
    /// the budget, so a participant runs about one budget of updates, as a
    /// lane of a wave does. The samples wait in one buffer per replica (a
    /// unit holds at most one sample, so at most `width` budgets of values
    /// in all) and are folded in replica order after the dispatch.
    fn whole_replicas<R: Send>(
        &mut self,
        count: usize,
        build: impl Fn(usize) -> L + Sync,
        advance: impl Fn(&mut L, u64) + Sync,
        sample: impl Fn(&L) -> f64 + Sync,
        finish: impl Fn(L) -> R + Sync,
        mut retire: impl FnMut(R),
    ) -> Range<usize> {
        let (first, times) = (self.first, &self.times);
        let mut runs: Vec<Option<(Vec<f64>, R)>> = (0..count).map(|_| None).collect();
        self.sim
            .pool()
            .for_each_chunk(&mut runs, 1, self.width, &|i, run: &mut [_]| {
                let mut state = build(first + i);
                let samples = times
                    .iter()
                    .map(|&t| {
                        advance(&mut state, t);
                        sample(&state)
                    })
                    .collect();
                run[0] = Some((samples, finish(state)));
            });
        let runs: Vec<_> = runs
            .into_iter()
            .map(|r| r.expect("every claimed replica ran"))
            .collect();
        for k in 0..self.times.len() {
            for (i, (samples, _)) in runs.iter().enumerate() {
                self.acc.record(k, first + i, samples[k]);
            }
        }
        for (_, finished) in runs {
            retire(finished);
        }
        self.first += count;
        let from = self.completed;
        if self.is_done() {
            self.completed = self.times.len();
        }
        from..self.completed
    }

    /// Advances the live wave to unit `stop` on one dispatch, starting the
    /// next wave if none is live: every lane runs to each recorded time up
    /// to `stop` and samples there, then on to `stop`. The samples are
    /// folded in replica order. A wave that reaches the end retires its
    /// lanes in replica order and makes room for the next.
    fn advance_wave<R: Send>(
        &mut self,
        stop: u64,
        build: impl Fn(usize) -> L + Sync,
        advance: impl Fn(&mut L, u64) + Sync,
        sample: impl Fn(&L) -> f64 + Sync,
        finish: impl Fn(L) -> R + Sync,
        mut retire: impl FnMut(R),
    ) -> Range<usize> {
        if self.lanes.is_empty() {
            self.lanes = (0..self.wave_len())
                .map(|_| Lane {
                    state: None,
                    samples: Vec::new(),
                })
                .collect();
        }
        let first = self.first;
        let pending = &self.times[self.next..];
        let sampled = pending.partition_point(|&t| t <= stop);
        let sample_at = &pending[..sampled];
        self.sim
            .pool()
            .for_each_chunk(
                &mut self.lanes,
                1,
                self.width,
                &|i, lane: &mut [Lane<L>]| {
                    let lane = &mut lane[0];
                    let state = lane.state.get_or_insert_with(|| build(first + i));
                    for &t in sample_at {
                        advance(state, t);
                        lane.samples.push(sample(state));
                    }
                    advance(state, stop);
                },
            );
        for k in 0..sampled {
            for (i, lane) in self.lanes.iter().enumerate() {
                self.acc.record(self.next + k, first + i, lane.samples[k]);
            }
        }
        for lane in &mut self.lanes {
            lane.samples.clear();
        }
        self.next += sampled;
        self.at = stop;
        let from = self.completed;
        if first + self.lanes.len() == self.sim.replicas() {
            self.completed = self.next;
        }
        if stop == self.end() {
            for lane in self.lanes.drain(..) {
                retire(finish(
                    lane.state.expect("every lane of a finished wave ran"),
                ));
            }
            self.first += self.width;
            self.at = 0;
            self.next = 0;
        }
        from..self.completed
    }
}

/// A resumable profile-ensemble run: the segments of
/// [`Simulator::run_profiles_pipelined`], one call at a time.
///
/// The run borrows nothing between calls. Every call takes the dynamics,
/// schedule and observable, which must be the same on every call (their
/// state and the run's belong together, as for a resumed computation).
/// Its result is bit-identical to [`Simulator::run_profiles`] on the
/// simulator it was built from, however the calls are spaced.
pub struct ProfileRun {
    waves: Waves<Replica>,
    /// The start profile, until the first segment counts its words.
    start: Vec<usize>,
    /// The start profile, words and tally every replica copies.
    counted: Option<ReplicaStart<'static>>,
    steps: u64,
    sample_every: u64,
    name: String,
}

impl ProfileRun {
    /// A run of `sim`'s replicas (its seed, replica count and pool) from
    /// `start`, which the run keeps, for `steps` ticks, sampling
    /// `observable` every `sample_every` ticks and at the last. Builds no
    /// replica: the first [`segment`](Self::segment) does.
    ///
    /// # Panics
    /// On a start profile the game cannot hold, zero steps or a zero
    /// sampling period.
    pub fn new<G: Game, U: UpdateRule, O: ProfileObservable>(
        sim: &Simulator,
        dynamics: &DynamicsEngine<G, U>,
        start: Vec<usize>,
        steps: u64,
        sample_every: u64,
        observable: &O,
    ) -> Self {
        validate_start_profile(dynamics.game(), &start);
        assert!(steps >= 1, "need at least one step");
        assert!(sample_every >= 1, "sampling period must be at least 1");
        Self {
            waves: Waves::new(sim, sample_times(steps, sample_every), 1),
            start,
            counted: None,
            steps,
            sample_every,
            name: observable.name().to_string(),
        }
    }

    /// Caps a segment at `updates` player updates per replica instead of
    /// [`SEGMENT_UPDATES`], so tests can cut a run anywhere.
    #[cfg(test)]
    pub(crate) fn with_segment_updates(mut self, updates: u64) -> Self {
        self.waves.budget = updates;
        self
    }

    /// Runs one segment and returns the indices of the recorded times it
    /// completed: [`times`](Self::times) and [`series`](Self::series) hold
    /// their final values from now on.
    ///
    /// # Panics
    /// When the run [is done](Self::is_done). A panic of the dynamics or
    /// the observable on any replica is re-raised here, and leaves the run
    /// unusable.
    pub fn segment<G, U, S, O>(
        &mut self,
        dynamics: &DynamicsEngine<G, U>,
        schedule: &S,
        observable: &O,
    ) -> Range<usize>
    where
        G: Game + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        let n = dynamics.game().num_players();
        let start = &*self.counted.get_or_insert_with(|| {
            ReplicaStart::new(dynamics, observable, std::mem::take(&mut self.start))
        });
        let seed = self.waves.sim.master_seed();
        self.waves.segment(
            |ticks| schedule.updates_in(ticks, n),
            |replica| Replica::new(dynamics, start, seed, replica),
            |replica, t| replica.advance_to(dynamics, schedule, observable, t),
            |replica| replica.sample(observable),
            drop,
            |()| (),
        )
    }

    /// Whether every replica has run to the end.
    pub fn is_done(&self) -> bool {
        self.waves.is_done()
    }

    /// Player updates left to run under `schedule` on `num_players`
    /// players, over every replica.
    pub fn remaining_updates<S: SelectionSchedule>(&self, schedule: &S, num_players: usize) -> u64 {
        self.waves
            .remaining(|ticks| schedule.updates_in(ticks, num_players))
    }

    /// The recorded times, in ticks.
    pub fn times(&self) -> &[u64] {
        &self.waves.times
    }

    /// Statistics across replicas at each recorded time; final for the
    /// times the segments so far completed.
    pub fn series(&self) -> &[RunningStats] {
        self.waves.acc.series()
    }

    /// The result of a finished run.
    ///
    /// # Panics
    /// When the run is not [done](Self::is_done).
    pub fn finish(self) -> ProfileEnsembleResult {
        assert!(self.is_done(), "the run has segments left");
        let replicas = self.waves.sim.replicas();
        let (series, final_values) = self.waves.acc.into_series_and_finals();
        ProfileEnsembleResult {
            replicas,
            steps: self.steps,
            sample_every: self.sample_every,
            name: self.name,
            times: self.waves.times,
            series,
            final_values,
        }
    }
}

/// A resumable tempered run: the segments of [`Simulator::run_tempered`],
/// one call at a time, on the terms of [`ProfileRun`]. Each of the
/// simulator's replicas is one tempering ensemble, and a segment advances
/// every live ensemble by the same whole rounds.
pub struct TemperedRun {
    waves: Waves<TemperingState>,
    /// The start profile, until the first segment counts its words.
    start: Vec<usize>,
    /// What every rung of every ensemble copies.
    counted: Option<RungStart<'static>>,
    rounds: u64,
    sweep_ticks: u64,
    /// The recorded times in engine ticks (round boundaries).
    ticks: Vec<u64>,
    swap_stats: SwapStats,
    rungs: usize,
    name: String,
}

impl TemperedRun {
    /// A run of `sim`'s replicas as tempering ensembles from `start`,
    /// which the run keeps, for `rounds` rounds of `sweep_ticks` ticks,
    /// sampling `observable` on the cold rung every `sample_every` rounds
    /// and at the last. Builds no ensemble: the first
    /// [`segment`](Self::segment) does.
    ///
    /// # Panics
    /// On a start profile the game cannot hold, zero rounds, zero ticks per
    /// round or a zero sampling period.
    pub fn new<G: PotentialGame, U: UpdateRule, O: ProfileObservable>(
        sim: &Simulator,
        ensemble: &TemperingEnsemble<G, U>,
        start: Vec<usize>,
        rounds: u64,
        sweep_ticks: u64,
        sample_every: u64,
        observable: &O,
    ) -> Self {
        validate_start_profile(ensemble.game(), &start);
        assert!(rounds >= 1, "need at least one round");
        assert!(sweep_ticks >= 1, "need at least one tick per round");
        assert!(
            sample_every >= 1,
            "sampling period must be at least 1 round"
        );
        let rounds_grid = sample_times(rounds, sample_every);
        let rungs = ensemble.num_replicas();
        Self {
            ticks: rounds_grid.iter().map(|&r| r * sweep_ticks).collect(),
            waves: Waves::new(sim, rounds_grid, rungs),
            start,
            counted: None,
            rounds,
            sweep_ticks,
            swap_stats: SwapStats::new(rungs.saturating_sub(1)),
            rungs,
            name: observable.name().to_string(),
        }
    }

    /// Player updates of one ensemble over a range of rounds: every rung
    /// runs every tick.
    fn ensemble_updates<'s, S: SelectionSchedule>(
        &self,
        schedule: &'s S,
        num_players: usize,
    ) -> impl Fn(Range<u64>) -> u64 + 's {
        let (rungs, sweep_ticks) = (self.rungs as u64, self.sweep_ticks);
        move |rounds| {
            let ticks = rounds.start * sweep_ticks..rounds.end * sweep_ticks;
            rungs.saturating_mul(schedule.updates_in(ticks, num_players))
        }
    }

    /// Caps a segment at `updates` player updates per ensemble instead of
    /// [`SEGMENT_UPDATES`], so tests can cut a run anywhere.
    #[cfg(test)]
    pub(crate) fn with_segment_updates(mut self, updates: u64) -> Self {
        self.waves.budget = updates;
        self
    }

    /// Runs one segment and returns the indices of the recorded times it
    /// completed, as [`ProfileRun::segment`] does.
    ///
    /// # Panics
    /// When the run [is done](Self::is_done).
    pub fn segment<G, U, S, O>(
        &mut self,
        ensemble: &TemperingEnsemble<G, U>,
        schedule: &S,
        observable: &O,
    ) -> Range<usize>
    where
        G: PotentialGame + Send + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        let updates = self.ensemble_updates(schedule, ensemble.game().num_players());
        let start = &*self.counted.get_or_insert_with(|| {
            ensemble.rung_start(std::mem::take(&mut self.start), observable)
        });
        let (seed, sweep_ticks) = (self.waves.sim.master_seed(), self.sweep_ticks);
        let swap_stats = &mut self.swap_stats;
        self.waves.segment(
            updates,
            |e| ensemble.init_from(start, ensemble_seed(seed, e)),
            |state, round| {
                while state.tick() < round * sweep_ticks {
                    ensemble.observed_round(schedule, state, sweep_ticks, observable);
                }
            },
            |state| state.cold_sample(observable),
            |state| state.swap_stats().clone(),
            |stats| swap_stats.merge(&stats),
        )
    }

    /// Whether every ensemble has run to the end.
    pub fn is_done(&self) -> bool {
        self.waves.is_done()
    }

    /// Player updates left to run under `schedule` on `num_players`
    /// players, over every rung of every ensemble.
    pub fn remaining_updates<S: SelectionSchedule>(&self, schedule: &S, num_players: usize) -> u64 {
        self.waves
            .remaining(self.ensemble_updates(schedule, num_players))
    }

    /// The recorded times, in engine ticks per rung.
    pub fn times(&self) -> &[u64] {
        &self.ticks
    }

    /// Statistics of the cold-rung observable across ensembles at each
    /// recorded time; final for the times the segments so far completed.
    pub fn series(&self) -> &[RunningStats] {
        self.waves.acc.series()
    }

    /// The result of a finished run.
    ///
    /// # Panics
    /// When the run is not [done](Self::is_done).
    pub fn finish(self) -> TemperedEnsembleResult {
        assert!(self.is_done(), "the run has segments left");
        let ensembles = self.waves.sim.replicas();
        let (series, final_values) = self.waves.acc.into_series_and_finals();
        TemperedEnsembleResult {
            ensembles,
            replicas_per_ensemble: self.rungs,
            rounds: self.rounds,
            sweep_ticks: self.sweep_ticks,
            name: self.name,
            times: self.ticks,
            series,
            final_values,
            swap_stats: self.swap_stats,
        }
    }
}

impl Simulator {
    /// The farmed counterpart of
    /// [`run_profiles`](Simulator::run_profiles): same replicas, same
    /// seeds, same schedule, same result, run in resumable segments over
    /// waves of replicas (see the [module docs](crate::pipeline)): a
    /// [`ProfileRun`] looped to completion.
    ///
    /// Bit-identical to `run_profiles` under fixed seeds: same
    /// `EmpiricalLaw` samples, same `RunningStats` bytes (asserted by the
    /// test harness for every rule × schedule combination).
    ///
    /// `cancel` is checked before every segment. Returns `None` only when
    /// it was cancelled, so a run without a token always returns `Some`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_profiles_pipelined<G, U, S, O>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        schedule: &S,
        start: &[usize],
        steps: u64,
        sample_every: u64,
        observable: &O,
        cancel: Option<&CancelToken>,
    ) -> Option<ProfileEnsembleResult>
    where
        G: Game + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let mut run = ProfileRun::new(
            self,
            dynamics,
            copied(spare::profile_buffer(start.len()), start),
            steps,
            sample_every,
            observable,
        );
        while !run.is_done() {
            if cancelled() {
                return None;
            }
            run.segment(dynamics, schedule, observable);
        }
        (!cancelled()).then(|| run.finish())
    }

    /// Runs independent replica-exchange ensembles on the farm — the
    /// tempering analogue of
    /// [`run_profiles_pipelined`](Self::run_profiles_pipelined): a
    /// [`TemperedRun`] looped to completion.
    ///
    /// Each of the simulator's `replicas` entries becomes one *tempering
    /// ensemble* (a full β-ladder of `ensemble.num_replicas()` chains) with
    /// its own deterministic stream family derived from the master seed. Every
    /// ensemble starts all rungs from a copy of `start`, runs `rounds`
    /// tempering rounds of `sweep_ticks` ticks each under `schedule`, and
    /// `observable` is read on the **cold** rung every `sample_every`
    /// rounds (plus at the final round): from the rung's tally when the
    /// observable counts the dynamics' rows (every rung keeps one, swapped
    /// with its profile), else by evaluating the cold profile. Swap
    /// diagnostics are pooled across ensembles.
    ///
    /// A segment advances every live ensemble by the same whole rounds;
    /// `cancel` is checked before every segment, as on the profile runner:
    /// `None` means cancelled, so a run without a token always returns
    /// `Some`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_tempered<G, U, S, O>(
        &self,
        ensemble: &TemperingEnsemble<G, U>,
        schedule: &S,
        start: &[usize],
        rounds: u64,
        sweep_ticks: u64,
        sample_every: u64,
        observable: &O,
        cancel: Option<&CancelToken>,
    ) -> Option<TemperedEnsembleResult>
    where
        G: PotentialGame + Send + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let mut run = TemperedRun::new(
            self,
            ensemble,
            copied(spare::profile_buffer(start.len()), start),
            rounds,
            sweep_ticks,
            sample_every,
            observable,
        );
        while !run.is_done() {
            if cancelled() {
                return None;
            }
            run.segment(ensemble, schedule, observable);
        }
        (!cancelled()).then(|| run.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::observables::{NamedObservable, PotentialObservable, StrategyFraction};
    use crate::parallel::{ColouredBlocks, RandomBlock};
    use crate::rules::{Logit, MetropolisLogit, NoisyBestResponse};
    use crate::runtime::RuntimeConfig;
    use crate::schedules::{AllLogit, SystematicSweep, UniformSingle};
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, TablePotentialGame, WellGame};
    use logit_graphs::GraphBuilder;
    use rand::SeedableRng;
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;

    /// A `Simulator` with an explicit worker count.
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

    /// A profile run driven to the end under a segment budget of `budget`
    /// player updates per replica.
    #[allow(clippy::too_many_arguments)]
    fn segmented<G, U, S, O>(
        sim: &Simulator,
        d: &DynamicsEngine<G, U>,
        schedule: &S,
        start: &[usize],
        steps: u64,
        sample_every: u64,
        obs: &O,
        budget: u64,
    ) -> ProfileEnsembleResult
    where
        G: Game + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        let mut run = ProfileRun::new(sim, d, start.to_vec(), steps, sample_every, obs)
            .with_segment_updates(budget);
        while !run.is_done() {
            run.segment(d, schedule, obs);
        }
        run.finish()
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
        let obs = StrategyFraction::new(1, "adopters");
        let sequential =
            Simulator::new(42, 24).run_profiles(&d, &UniformSingle, &[0; 6], 205, 50, &obs);
        // Worker count (hence wave width) and segment budget are
        // unobservable in the result, from one tick per segment to the
        // whole run in one.
        for (workers, budget) in [
            (0, SEGMENT_UPDATES),
            (1, 1),
            (3, 7),
            (0, 1_000_000),
            (2, 16),
        ] {
            let sim = simulator_with_workers(42, 24, workers);
            let pipelined = segmented(&sim, &d, &UniformSingle, &[0; 6], 205, 50, &obs, budget);
            assert_results_identical(&sequential, &pipelined);
            let looped = sim
                .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 205, 50, &obs, None)
                .expect("uncancelled runs complete");
            assert_results_identical(&sequential, &looped);
        }
    }

    #[test]
    fn pipelined_scheduled_paths_are_bit_identical() {
        let d = ring_dynamics(5);
        let sim = simulator_with_workers(9, 16, 2);
        let obs = StrategyFraction::new(0, "zeros");
        let seq_sweep = sim.run_profiles(&d, &SystematicSweep, &[1; 5], 77, 20, &obs);
        let pipe_sweep = segmented(&sim, &d, &SystematicSweep, &[1; 5], 77, 20, &obs, 13);
        assert_results_identical(&seq_sweep, &pipe_sweep);

        // All-logit ticks revise 5 players: a budget of 12 updates is two
        // ticks per segment, and one of 3 still takes a whole tick.
        let seq_block = sim.run_profiles(&d, &AllLogit, &[1; 5], 40, 10, &obs);
        for budget in [3, 12, SEGMENT_UPDATES] {
            let pipe_block = segmented(&sim, &d, &AllLogit, &[1; 5], 40, 10, &obs, budget);
            assert_results_identical(&seq_block, &pipe_block);
        }
    }

    #[test]
    fn pipelined_runner_covers_every_rule() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let sim = simulator_with_workers(3, 12, 2);
        let obs = PotentialObservable::new(game.clone());
        let start = [0; 5];

        let logit = DynamicsEngine::with_rule(game.clone(), Logit, 0.9);
        assert_results_identical(
            &sim.run_profiles(&logit, &UniformSingle, &start, 60, 25, &obs),
            &segmented(&sim, &logit, &UniformSingle, &start, 60, 25, &obs, 11),
        );
        let metro = DynamicsEngine::with_rule(game.clone(), MetropolisLogit, 0.9);
        assert_results_identical(
            &sim.run_profiles(&metro, &UniformSingle, &start, 60, 25, &obs),
            &segmented(&sim, &metro, &UniformSingle, &start, 60, 25, &obs, 11),
        );
        let nbr = DynamicsEngine::with_rule(game, NoisyBestResponse::new(0.2), 0.9);
        assert_results_identical(
            &sim.run_profiles(&nbr, &UniformSingle, &start, 60, 25, &obs),
            &segmented(&sim, &nbr, &UniformSingle, &start, 60, 25, &obs, 11),
        );
    }

    #[test]
    fn pipelined_runner_streams_beyond_flat_index_capacity() {
        // 400 binary players: no flat index exists; the runner streams fine.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(400),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(17, 6);
        let obs = StrategyFraction::new(0, "zeros");
        let start = vec![1usize; 400];
        let sequential = sim.run_profiles(&d, &UniformSingle, &start, 8_000, 2_000, &obs);
        let pipelined = sim
            .run_profiles_pipelined(&d, &UniformSingle, &start, 8_000, 2_000, &obs, None)
            .expect("uncancelled runs complete");
        assert_results_identical(&sequential, &pipelined);
        assert!(pipelined.law().mean() > 0.2);
    }

    #[test]
    fn dense_sampling_preserves_bit_identity() {
        // sample_every = 1 reads the observable after every tick, so every
        // segment carries samples; the results must not notice.
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(77, 12, 2);
        let obs = StrategyFraction::new(1, "adopters");
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 6], 120, 1, &obs);
        for budget in [SEGMENT_UPDATES, 3] {
            let pipelined = segmented(&sim, &d, &UniformSingle, &[0; 6], 120, 1, &obs, budget);
            assert_results_identical(&sequential, &pipelined);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Segmentation is unobservable: a profile run cut into segments of
        /// any budget, from one tick per segment to the whole run in one,
        /// produces exactly the `EmpiricalLaw` samples and `RunningStats`
        /// bytes of `run_profiles`, for every update rule × selection
        /// schedule, under fixed per-replica seeds, whatever the worker
        /// count — including replica counts that do not divide into
        /// waves evenly.
        #[test]
        fn pipelined_ensembles_are_bit_identical_for_every_rule_and_schedule(
            seed in 0u64..10_000,
            beta in 0.0f64..3.0,
            budget_ticks in 1u64..40,
            workers in 1usize..5,
            replicas in 1usize..6,
        ) {
            use proptest::prop_assert_eq;
            let mut game_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut game_rng);
            let obs = PotentialObservable::new(game.clone());
            let start = [0usize, 0, 0];
            let bytes = |r: &ProfileEnsembleResult| {
                format!("{:?} {:?} {:?}", r.times, r.series, r.final_values)
            };

            fn check_rule<U: UpdateRule>(
                game: &TablePotentialGame,
                rule: U,
                beta: f64,
                sim: &Simulator,
                obs: &PotentialObservable<TablePotentialGame>,
                budget_ticks: u64,
                bytes: &dyn Fn(&ProfileEnsembleResult) -> String,
            ) -> Result<(), proptest::TestCaseError> {
                let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
                let start = [0usize, 0, 0];
                let n = 3;
                // A budget of `budget_ticks` ticks, in each schedule's own
                // updates per tick; 40 and more is the whole run.
                let cases: [(u64, u64, u64); 2] = [(33, 10, 1), (21, 7, n)];
                let (steps, every, per_tick) = cases[0];
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &UniformSingle, &start, steps, every, obs)),
                    bytes(&segmented(sim, &d, &UniformSingle, &start, steps, every, obs, budget_ticks * per_tick))
                );
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &SystematicSweep, &start, steps, every, obs)),
                    bytes(&segmented(sim, &d, &SystematicSweep, &start, steps, every, obs, budget_ticks * per_tick))
                );
                let (steps, every, per_tick) = cases[1];
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &AllLogit, &start, steps, every, obs)),
                    bytes(&segmented(sim, &d, &AllLogit, &start, steps, every, obs, budget_ticks * per_tick))
                );
                let block = RandomBlock::new(2);
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &block, &start, 33, 10, obs)),
                    bytes(&segmented(sim, &d, &block, &start, 33, 10, obs, budget_ticks * 2))
                );
                // Classes of 2 and 1 players: a budget may end a segment
                // mid-round.
                let coloured = ColouredBlocks::new(logit_graphs::Coloring::from_colors(vec![0, 1, 0]));
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &coloured, &start, 21, 7, obs)),
                    bytes(&segmented(sim, &d, &coloured, &start, 21, 7, obs, budget_ticks))
                );
                Ok(())
            }

            for replicas in [replicas, 16] {
                let runtime = RuntimeConfig { workers, ..RuntimeConfig::default() };
                let sim = Simulator::with_runtime(seed ^ 0x9192, replicas, runtime);
                check_rule(&game, Logit, beta, &sim, &obs, budget_ticks, &bytes)?;
                check_rule(&game, MetropolisLogit, beta, &sim, &obs, budget_ticks, &bytes)?;
                check_rule(&game, NoisyBestResponse::new(0.15), beta, &sim, &obs, budget_ticks, &bytes)?;
                // The loop the server's callers use, with a live token.
                let d = DynamicsEngine::with_rule(game.clone(), Logit, beta);
                let token = CancelToken::new();
                prop_assert_eq!(
                    bytes(&sim.run_profiles(&d, &UniformSingle, &start, 33, 10, &obs)),
                    bytes(&sim
                        .run_profiles_pipelined(&d, &UniformSingle, &start, 33, 10, &obs, Some(&token))
                        .expect("an uncancelled token lets the run complete"))
                );
            }
        }
    }

    #[test]
    fn both_runners_evaluate_every_sample_exactly_once() {
        // Every (replica, recorded time) is read once, inside its
        // segment's dispatch, whatever the worker count and however the
        // run is cut; the fold evaluates nothing.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let d = LogitDynamics::new(game.clone(), 0.9);
        let ensemble = TemperingEnsemble::new(game, Logit, &[0.4, 1.2, 2.4]);
        let evaluated = Mutex::new(0usize);
        let counting = NamedObservable::new("counting", |p: &[usize]| {
            *evaluated.lock().expect("count poisoned") += 1;
            p[0] as f64
        });
        let evaluations = || std::mem::take(&mut *evaluated.lock().expect("count poisoned"));
        let replicas = 6;
        for workers in 1..=3 {
            let sim = simulator_with_workers(11, replicas, workers);
            let farmed = segmented(&sim, &d, &UniformSingle, &[0; 4], 40, 10, &counting, 5);
            assert_eq!(evaluations(), replicas * farmed.times.len());

            let mut run = TemperedRun::new(&sim, &ensemble, vec![0; 4], 12, 4, 5, &counting)
                .with_segment_updates(3 * 4 * 2);
            while !run.is_done() {
                run.segment(&ensemble, &UniformSingle, &counting);
            }
            let tempered = run.finish();
            assert_eq!(evaluations(), replicas * tempered.times.len());
        }
    }

    #[test]
    fn segments_keep_one_wave_live_and_complete_times_as_the_last_wave_passes() {
        // 5 replicas on 2 workers: waves of 2, 2 and 1. Only the last wave
        // completes recorded times, in order, and at most one wave lives.
        let d = ring_dynamics(8);
        let obs = StrategyFraction::new(1, "adopters");
        let sim = simulator_with_workers(5, 5, 2);
        let mut run = ProfileRun::new(&sim, &d, vec![0; 8], 90, 10, &obs).with_segment_updates(25);
        let mut completed = 0;
        let mut segments = 0;
        while !run.is_done() {
            let newly = run.segment(&d, &UniformSingle, &obs);
            segments += 1;
            assert!(run.waves.lanes.len() <= 2, "more than one wave live");
            assert_eq!(newly.start, completed, "times complete in order");
            if segments <= 2 * 4 {
                assert!(newly.is_empty(), "an early wave completed a time");
            }
            completed = newly.end;
        }
        // Each wave takes ⌈90 / 25⌉ = 4 segments.
        assert_eq!(segments, 3 * 4);
        assert_eq!(completed, run.times().len());
        let streamed = run.finish();
        assert_results_identical(
            &sim.run_profiles(&d, &UniformSingle, &[0; 8], 90, 10, &obs),
            &streamed,
        );
    }

    #[test]
    fn whole_replicas_keep_at_most_a_wave_live_and_fold_in_replica_order() {
        // 7 replicas on 2 workers, a whole run of 4 units (one update each)
        // and a budget of 8: a dispatch runs 2 whole replicas per worker,
        // claimed one at a time, so the run takes dispatches of 4 and 3,
        // never holds more than 2 replicas, completes every time with the
        // last, and folds and retires in replica order.
        use std::sync::atomic::AtomicUsize;
        struct Live<'a> {
            replica: usize,
            at: u64,
            live: &'a AtomicUsize,
        }
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (live, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let sim = simulator_with_workers(3, 7, 2);
        let mut waves = Waves::new(&sim, vec![2, 4], 1);
        waves.budget = 8;
        let mut retired = Vec::new();
        let mut completed = Vec::new();
        while !waves.is_done() {
            let left = waves.remaining(|units| units.end - units.start);
            let first = waves.first;
            completed.push(waves.segment(
                |units| units.end - units.start,
                |replica| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    most.fetch_max(now, Ordering::SeqCst);
                    Live {
                        replica,
                        at: 0,
                        live: &live,
                    }
                },
                |lane, t| lane.at = t,
                |lane| (lane.replica * 10) as f64 + lane.at as f64,
                |lane| lane.replica,
                |replica| retired.push(replica),
            ));
            let ran = (waves.first - first) as u64;
            assert_eq!(
                waves.remaining(|units| units.end - units.start),
                left - ran * 4
            );
        }
        assert_eq!(completed, vec![0..0, 0..2]);
        assert_eq!(retired, (0..7).collect::<Vec<_>>());
        assert!(most.load(Ordering::SeqCst) <= 2, "more than a wave live");
        assert_eq!(live.load(Ordering::SeqCst), 0);
        let (series, finals) = waves.acc.into_series_and_finals();
        let expected: Vec<f64> = (0..7).map(|r| (r * 10) as f64 + 4.0).collect();
        assert_eq!(finals, expected);
        let mut at_two = RunningStats::new();
        (0..7).for_each(|r| at_two.push((r * 10) as f64 + 2.0));
        assert_eq!(format!("{:?}", series[0]), format!("{at_two:?}"));
    }

    #[test]
    fn farm_streams_every_message_and_reduces_on_the_caller() {
        // One wave: every segment completes the recorded times it passed,
        // and a completed time's statistics are already the final ones.
        let d = ring_dynamics(10);
        let obs = StrategyFraction::new(1, "adopters");
        let sim = simulator_with_workers(8, 3, 3);
        let whole = sim.run_profiles(&d, &UniformSingle, &[0; 10], 200, 15, &obs);
        let mut run =
            ProfileRun::new(&sim, &d, vec![0; 10], 200, 15, &obs).with_segment_updates(40);
        let mut streamed = Vec::new();
        while !run.is_done() {
            for k in run.segment(&d, &UniformSingle, &obs) {
                streamed.push((run.times()[k], format!("{:?}", run.series()[k])));
            }
        }
        let expected: Vec<_> = whole
            .times
            .iter()
            .zip(&whole.series)
            .map(|(&t, s)| (t, format!("{s:?}")))
            .collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn an_observable_panic_surfaces_with_its_own_message_from_both_farms() {
        // A panicking observable kills a lane mid-segment. Both runners
        // must re-raise the observable's own message and leave the pool
        // usable.
        use crate::tempering::TemperingEnsemble;
        use std::sync::atomic::AtomicUsize;
        let game = WellGame::plateau(4, 2.0);
        let d = LogitDynamics::new(game.clone(), 0.9);
        let ensemble = TemperingEnsemble::new(game.clone(), Logit, &[0.4, 1.2, 2.4]);
        let sim = simulator_with_workers(13, 8, 2);
        let calls = AtomicUsize::new(0);
        let faulty = NamedObservable::new("faulty", |p: &[usize]| {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            if call == 5 {
                panic!("observable failed at evaluation {call}");
            }
            p[0] as f64
        });
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };

        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 40, 5, &faulty, None)
        }));
        let payload = caught.expect_err("the observable panic must propagate");
        assert_eq!(message(payload), "observable failed at evaluation 5");

        calls.store(0, Ordering::Relaxed);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_tempered(&ensemble, &UniformSingle, &[0; 4], 12, 4, 1, &faulty, None)
        }));
        let payload = caught.expect_err("the observable panic must propagate");
        assert_eq!(message(payload), "observable failed at evaluation 5");

        // The same simulator still reproduces the sequential path.
        let obs = PotentialObservable::new(game);
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 4], 40, 5, &obs);
        let farmed = sim
            .run_profiles_pipelined(&d, &UniformSingle, &[0; 4], 40, 5, &obs, None)
            .expect("uncancelled runs complete");
        assert_results_identical(&sequential, &farmed);
    }

    #[test]
    fn farm_propagates_a_worker_panic_as_the_root_cause() {
        // A replica of the last dispatch dies mid-run, after two dispatches
        // ran whole: its own payload reaches the caller of `segment` (not a
        // consequent bookkeeping panic), and the next run on the same pool
        // is whole.
        use std::sync::atomic::AtomicUsize;
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(21, 6, 2);
        let calls = AtomicUsize::new(0);
        // A budget of one whole run: 2 whole replicas per dispatch, 3
        // samples per replica, so calls 0..12 are the first two dispatches.
        let faulty = NamedObservable::new("faulty", |p: &[usize]| {
            if calls.fetch_add(1, Ordering::Relaxed) == 13 {
                panic!("a replica of the last wave exploded");
            }
            p[0] as f64
        });
        let mut run =
            ProfileRun::new(&sim, &d, vec![0; 6], 30, 10, &faulty).with_segment_updates(30);
        run.segment(&d, &UniformSingle, &faulty);
        run.segment(&d, &UniformSingle, &faulty);
        assert_eq!(run.waves.first, 4, "two dispatches ran whole");
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run.segment(&d, &UniformSingle, &faulty)
        }));
        let payload = caught.expect_err("the lane panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("a replica of the last wave exploded")
        );
        let obs = StrategyFraction::new(1, "adopters");
        assert_results_identical(
            &sim.run_profiles(&d, &UniformSingle, &[0; 6], 30, 10, &obs),
            &sim.run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 30, 10, &obs, None)
                .expect("uncancelled runs complete"),
        );
    }

    #[test]
    fn farm_reuses_the_pool_across_many_runs_without_thread_churn() {
        // Many short runs on one pool, one dispatch per segment of a wave
        // of two, no respawns.
        let d = ring_dynamics(6);
        let obs = StrategyFraction::new(1, "adopters");
        let base = simulator_with_workers(1, 1, 2);
        let pool = base.pool();
        for round in 0..50u64 {
            let job = base.reseeded(round, 4);
            let mut run =
                ProfileRun::new(&job, &d, vec![0; 6], 60, 20, &obs).with_segment_updates(30);
            while !run.is_done() {
                run.segment(&d, &UniformSingle, &obs);
            }
            assert_results_identical(
                &Simulator::new(round, 4).run_profiles(&d, &UniformSingle, &[0; 6], 60, 20, &obs),
                &run.finish(),
            );
        }
        // Two waves of two segments each per run.
        assert_eq!(pool.dispatches(), 50 * 2 * 2);
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
            Some(&cancel),
        );
        assert!(
            result.is_none(),
            "a cancelled run must not produce a result"
        );
        assert_eq!(sim.pool().dispatches(), 0, "nothing was stepped");
    }

    #[test]
    fn mid_run_cancellation_ends_the_farm_cleanly() {
        // The token is tripped by the first sample, in the first segment.
        // A whole run is a sixteenth of the budget, so a dispatch runs 16
        // whole replicas per worker, 32 of the 64: the run has replicas
        // left, and it must stop before the next dispatch.
        let d = ring_dynamics(6);
        let sim = simulator_with_workers(7, 64, 2);
        let cancel = CancelToken::new();
        let trip = cancel.clone();
        let obs = NamedObservable::new("tripwire", move |p: &[usize]| {
            trip.cancel();
            p[0] as f64
        });
        let steps = SEGMENT_UPDATES / 16;
        let result = sim.run_profiles_pipelined(
            &d,
            &UniformSingle,
            &[0; 6],
            steps,
            steps / 4,
            &obs,
            Some(&cancel),
        );
        assert!(result.is_none());
        assert_eq!(sim.pool().dispatches(), 1, "one segment ran");
        // The pool survives the cancelled run: the next run is normal and
        // bit-identical to the sequential path.
        let obs = StrategyFraction::new(1, "adopters");
        let sequential = sim.run_profiles(&d, &UniformSingle, &[0; 6], 120, 30, &obs);
        let fresh = CancelToken::new();
        let rerun = sim
            .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 120, 30, &obs, Some(&fresh))
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
        let served = job
            .run_profiles_pipelined(&d, &UniformSingle, &[0; 6], 150, 30, &obs, None)
            .expect("uncancelled runs complete");
        // The offline replay contract: a fresh Simulator with the job's
        // seed and replica count reproduces the served bytes.
        let offline =
            Simulator::new(99, 12).run_profiles(&d, &UniformSingle, &[0; 6], 150, 30, &obs);
        assert_results_identical(&offline, &served);
    }

    #[test]
    fn pipelined_tempered_runs_match_their_sequential_contract() {
        // `run_tempered` loops a `TemperedRun`; its proptest pins it against
        // a sequential replay, this one pins the plumbing on a multi-rung
        // ladder end to end.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game.clone(), Logit, &[0.4, 1.2, 2.4]);
        let sim = Simulator::new(31, 10);
        let obs = PotentialObservable::new(game);
        let run = |sim: &Simulator| {
            sim.run_tempered(&ensemble, &UniformSingle, &[0; 4], 12, 4, 5, &obs, None)
                .expect("uncancelled runs complete")
        };
        let a = run(&sim);
        let b = run(&sim);
        assert_eq!(a.final_values, b.final_values);
        assert_eq!(a.swap_stats, b.swap_stats);
        assert_eq!(a.times, vec![20, 40, 48]);
        assert!(a.series.iter().all(|s| s.count() == 10));
        // One round per segment, and one worker, cannot change the
        // tempered result either.
        let one = simulator_with_workers(31, 10, 1);
        let mut cut =
            TemperedRun::new(&one, &ensemble, vec![0; 4], 12, 4, 5, &obs).with_segment_updates(1);
        while !cut.is_done() {
            cut.segment(&ensemble, &UniformSingle, &obs);
        }
        let c = cut.finish();
        assert_eq!(a.final_values, c.final_values);
        assert_eq!(a.swap_stats, c.swap_stats);
        assert_eq!(format!("{:?}", a.series), format!("{:?}", c.series));
    }

    #[test]
    fn mid_run_cancellation_ends_the_tempered_farm_cleanly() {
        // The observable trips the token on the first cold-rung sample,
        // in the first segment, while ensembles remain: an ensemble's whole
        // run (3 rungs × 4 ticks a round) is half the budget, so a dispatch
        // runs 4 of the 16. The run must stop before its next segment and
        // report `None`.
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game.clone(), Logit, &[0.4, 1.2, 2.4]);
        let sim = simulator_with_workers(5, 16, 2);
        let cancel = CancelToken::new();
        let trip = cancel.clone();
        let tripwire = NamedObservable::new("tripwire", move |p: &[usize]| {
            trip.cancel();
            p[0] as f64
        });
        let rounds = SEGMENT_UPDATES / 24;
        let cancelled = sim.run_tempered(
            &ensemble,
            &UniformSingle,
            &[0; 4],
            rounds,
            4,
            rounds / 4,
            &tripwire,
            Some(&cancel),
        );
        assert!(cancelled.is_none());
        assert_eq!(sim.pool().dispatches(), 1, "one segment ran");
        // The pool survives the cancelled run: the same simulator's next
        // run equals a fresh simulator's.
        let obs = PotentialObservable::new(game);
        let run = |sim: &Simulator| {
            sim.run_tempered(&ensemble, &UniformSingle, &[0; 4], 30, 4, 10, &obs, None)
                .expect("uncancelled runs complete")
        };
        let rerun = run(&sim);
        let fresh = run(&simulator_with_workers(5, 16, 2));
        assert_eq!(rerun.times, fresh.times);
        assert_eq!(rerun.final_values, fresh.final_values);
        assert_eq!(rerun.swap_stats, fresh.swap_stats);
        assert_eq!(format!("{:?}", rerun.series), format!("{:?}", fresh.series));
    }

    #[test]
    fn remaining_updates_count_down_to_zero_by_each_segment() {
        // The work a run reports left falls by exactly the updates each
        // segment ran: all-logit ticks of 8 players, 3 replicas in waves
        // of 2 and 1, and tempered ensembles of 3 rungs.
        let d = ring_dynamics(8);
        let obs = StrategyFraction::new(1, "adopters");
        let sim = simulator_with_workers(2, 3, 2);
        let mut run = ProfileRun::new(&sim, &d, vec![0; 8], 10, 5, &obs).with_segment_updates(24);
        let total = run.remaining_updates(&AllLogit, 8);
        assert_eq!(total, 3 * 10 * 8);
        let mut left = total;
        while !run.is_done() {
            let live = run.waves.wave_len() as u64;
            let at = run.waves.at;
            run.segment(&d, &AllLogit, &obs);
            let stepped = if run.waves.at == 0 {
                10 - at
            } else {
                run.waves.at - at
            };
            left -= live * stepped * 8;
            assert_eq!(run.remaining_updates(&AllLogit, 8), left);
        }
        assert_eq!(left, 0);

        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game, Logit, &[0.4, 1.2, 2.4]);
        let run = TemperedRun::new(&sim, &ensemble, vec![0; 4], 7, 5, 2, &obs);
        assert_eq!(run.remaining_updates(&SystematicSweep, 4), 3 * 3 * 7 * 5);
    }
}
