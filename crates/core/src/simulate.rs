//! Trajectory and ensemble simulation of the revision dynamics — generic
//! over the update rule, with the paper's logit dynamics as the default.
//!
//! The exact analyses cap out around a few thousand profiles; beyond that the
//! behaviour of the dynamics is studied by simulation. This module provides
//!
//! * [`simulate_trajectory`] — a single trajectory of flat state indices,
//! * [`Simulator`] — reproducible parallel ensembles of independent replicas
//!   (replicas claimed one at a time on the simulator's persistent
//!   [`WorkerPool`](crate::runtime::WorkerPool), one deterministic ChaCha
//!   stream per replica so results do not depend on the number of worker
//!   threads). The flat-index entry point [`Simulator::run`] serves the
//!   exactly-analysable games; the in-place entry point
//!   [`Simulator::run_profiles`] serves large-`n` games whose profile space
//!   does not fit a flat index, streaming a
//!   [`ProfileObservable`] every `k` ticks of an explicit
//!   [`SelectionSchedule`] instead of touching final states only. Its farm
//!   counterpart [`Simulator::run_profiles_pipelined`] and the tempered farm
//!   [`Simulator::run_tempered`] take the same arguments in the same order,
//!   plus a [`PipelineConfig`](crate::pipeline::PipelineConfig) and an
//!   optional [`CancelToken`](crate::pipeline::CancelToken),
//! * [`EmpiricalLaw`] — the empirical distribution of an observable across
//!   replicas, the `|S|`-free replacement for the per-state empirical vector,
//! * empirical-distribution and observable tracking used by the experiments to
//!   compare the simulated law of `X_t` against the Gibbs measure.

use crate::dynamics::{DynamicsEngine, Scratch};
use crate::observables::ProfileObservable;
use crate::rules::UpdateRule;
use crate::schedules::SelectionSchedule;
use logit_games::{Game, PotentialTally};
use logit_linalg::stats::RunningStats;
use logit_linalg::Vector;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Simulates a single trajectory of `steps` transitions starting from the flat
/// state index `start`, returning every visited state (including the start, so
/// the result has `steps + 1` entries).
pub fn simulate_trajectory<G: Game, U: UpdateRule, R: Rng + ?Sized>(
    dynamics: &DynamicsEngine<G, U>,
    start: usize,
    steps: u64,
    rng: &mut R,
) -> Vec<usize> {
    assert!(start < dynamics.num_states(), "start state out of range");
    let mut scratch = Scratch::for_game(dynamics.game());
    let mut out = Vec::with_capacity(steps as usize + 1);
    let mut state = start;
    out.push(state);
    for _ in 0..steps {
        state = dynamics.step_indexed(state, &mut scratch, rng);
        out.push(state);
    }
    out
}

/// Simulates a single in-place trajectory over profiles, calling `visit`
/// after every step. The large-`n` analogue of [`simulate_trajectory`]: no
/// flat indices, no per-step allocation, and the trajectory is not stored —
/// it is streamed through the callback.
pub fn simulate_profile_trajectory<G: Game, U: UpdateRule, R: Rng + ?Sized>(
    dynamics: &DynamicsEngine<G, U>,
    profile: &mut [usize],
    steps: u64,
    rng: &mut R,
    mut visit: impl FnMut(u64, &[usize], crate::dynamics::StepEvent),
) {
    validate_start_profile(dynamics.game(), profile);
    let mut scratch = Scratch::for_game(dynamics.game());
    for t in 1..=steps {
        let event = dynamics.step_profile(profile, &mut scratch, rng);
        visit(t, profile, event);
    }
}

pub(crate) fn validate_start_profile<G: Game>(game: &G, profile: &[usize]) {
    assert_eq!(
        profile.len(),
        game.num_players(),
        "start profile length must equal the player count"
    );
    for (i, &s) in profile.iter().enumerate() {
        assert!(
            s < game.num_strategies(i),
            "start strategy {s} out of range for player {i}"
        );
    }
}

/// The recorded-times grid every ensemble entry point samples on: multiples
/// of `sample_every` up to `steps`, plus the final step when it is not
/// already a multiple. Shared by the sequential and the pipelined runners so
/// both observe the identical grid.
pub(crate) fn sample_times(steps: u64, sample_every: u64) -> Vec<u64> {
    let mut times: Vec<u64> = (1..=steps / sample_every)
        .map(|k| k * sample_every)
        .collect();
    if times.last() != Some(&steps) {
        times.push(steps);
    }
    times
}

/// The deterministic per-replica stream seed shared by every ensemble entry
/// point, so the flat and profile engines can be compared replica-by-replica
/// (and so a `TemperingEnsemble` rung walks the same stream as the matching
/// `Simulator` replica).
pub(crate) fn replica_seed(seed: u64, replica: usize) -> u64 {
    seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One replica of a profile ensemble: its profile, ChaCha stream, scratch
/// buffers and clock. On a game with a count kernel it also keeps the
/// profile's neighbour-count words, one `u32` per player, so that an update
/// loads one word and only a move reads a row, and the observable's running
/// tally when the observable carries one. [`Simulator::run_profiles`] and
/// the pipelined farm's step workers both drive their replicas through it,
/// so they step and sample alike.
pub(crate) struct Replica<'a, G: Game, U: UpdateRule, O> {
    dynamics: &'a DynamicsEngine<G, U>,
    observable: &'a O,
    /// Written by moves only; observables read it.
    profile: Vec<usize>,
    /// See [`DynamicsEngine::count_words`]; `None` on other games.
    words: Option<Vec<u32>>,
    /// Kept only next to words, which give `retally` the mover's counts.
    tally: Option<PotentialTally>,
    scratch: Scratch,
    rng: ChaCha8Rng,
    t: u64,
}

/// What every replica of a run starts from: the start profile and, on a
/// game with a count kernel, its neighbour-count words and the
/// observable's tally of it, when the observable counts the same rows.
/// They are counted once per run, and each replica copies them.
pub(crate) struct ReplicaStart<'s> {
    profile: &'s [usize],
    words: Option<Vec<u32>>,
    tally: Option<PotentialTally>,
}

impl<'s> ReplicaStart<'s> {
    pub(crate) fn new<G: Game, U: UpdateRule, O: ProfileObservable>(
        dynamics: &DynamicsEngine<G, U>,
        observable: &O,
        profile: &'s [usize],
    ) -> Self {
        let words = dynamics.count_words(profile);
        // A move feeds `retally` the mover's counts off the dynamics' words,
        // which are exact for the observable's tally only on its own rows.
        let tally = match (
            &words,
            dynamics.game().count_kernel(),
            observable.count_kernel(),
        ) {
            (Some(_), Some(ours), Some(its)) if ours.rows_address() == its.rows_address() => {
                observable.tally(profile)
            }
            _ => None,
        };
        Self {
            profile,
            words,
            tally,
        }
    }
}

impl<'a, G: Game, U: UpdateRule, O: ProfileObservable> Replica<'a, G, U, O> {
    /// Replica `replica` of a run with master seed `seed`, at tick 0 on a
    /// copy of `start`.
    pub(crate) fn new(
        dynamics: &'a DynamicsEngine<G, U>,
        observable: &'a O,
        start: &ReplicaStart,
        seed: u64,
        replica: usize,
    ) -> Self {
        Self {
            dynamics,
            observable,
            profile: start.profile.to_vec(),
            words: start.words.clone(),
            tally: start.tally,
            scratch: Scratch::for_game(dynamics.game()),
            rng: ChaCha8Rng::seed_from_u64(replica_seed(seed, replica)),
            t: 0,
        }
    }

    /// Steps the replica to tick `target`, keeping its words and its tally
    /// current.
    pub(crate) fn advance_to<S: SelectionSchedule>(&mut self, schedule: &S, target: u64) {
        let (observable, tally) = (self.observable, &mut self.tally);
        self.dynamics.advance(
            schedule,
            self.t..target,
            &mut self.profile,
            self.words.as_deref_mut(),
            &mut self.scratch,
            &mut self.rng,
            |old, degree, ones| {
                if let Some(tally) = tally.as_mut() {
                    observable.retally(tally, old, degree, ones);
                }
            },
        );
        self.t = self.t.max(target);
    }

    /// The observable now: read from the tally when there is one.
    pub(crate) fn sample(&self) -> f64 {
        match &self.tally {
            Some(tally) => self.observable.evaluate_tally(tally),
            None => self.observable.evaluate_profile(&self.profile),
        }
    }
}

/// The master seed of tempering ensemble `e` in [`Simulator::run_tempered`].
///
/// Deliberately a *different* odd multiplier than [`replica_seed`]: the rung
/// streams of ensemble `e` are `replica_seed(ensemble_seed(seed, e), r)`, and
/// reusing the replica constant would make that expression symmetric in
/// `(e, r)` — ensemble 1's rung 0 would walk ensemble 0's rung 1 stream,
/// silently correlating "independent" ensembles.
pub(crate) fn ensemble_seed(seed: u64, ensemble: usize) -> u64 {
    seed ^ (ensemble as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The empirical law of a scalar observable across replicas.
///
/// For games small enough to enumerate, the experiments compare the empirical
/// *state* distribution against the Gibbs measure; beyond `|S| ≈ usize::MAX`
/// no such vector exists, and the law of a scalar observable — potential,
/// magnetisation, adopter fraction — is what remains measurable and
/// comparable (e.g. across engines, or against theory).
#[derive(Debug, Clone)]
pub struct EmpiricalLaw {
    sorted: Vec<f64>,
}

/// Error returned by [`EmpiricalLaw::try_from_samples`] when no samples are
/// provided: an empirical law over zero replicas has no well-defined mean,
/// quantiles or CDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyLawError;

impl std::fmt::Display for EmptyLawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "an empirical law needs at least one sample (zero replicas were provided)"
        )
    }
}

impl std::error::Error for EmptyLawError {}

impl EmpiricalLaw {
    /// Builds the law from observable samples (one per replica).
    ///
    /// # Panics
    /// Panics when `samples` is empty (use [`Self::try_from_samples`] for a
    /// recoverable error) or when any sample is NaN.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self::try_from_samples(samples).expect("EmpiricalLaw::from_samples")
    }

    /// Fallible counterpart of [`Self::from_samples`]: returns
    /// [`EmptyLawError`] instead of panicking when `samples` is empty.
    ///
    /// # Panics
    /// Still panics when a sample is NaN — a NaN observable is a bug in the
    /// observable, not a recoverable runtime condition.
    pub fn try_from_samples(mut samples: Vec<f64>) -> Result<Self, EmptyLawError> {
        if samples.is_empty() {
            return Err(EmptyLawError);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN observable sample"));
        Ok(Self { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the law has no samples (never true for a constructed law).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("law is non-empty")
    }

    /// Empirical `q`-quantile (`0 ≤ q ≤ 1`), by the nearest-rank rule:
    /// the sample of rank `max(1, ⌈q·len⌉)`.
    ///
    /// Boundary behaviour (tested): `q = 0` returns the smallest sample
    /// ([`Self::min`]), `q = 1` returns the largest ([`Self::max`]), and a
    /// single-sample law returns its one sample for every `q`.
    ///
    /// # Panics
    /// Panics when `q` lies outside `[0, 1]` or is NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile order must be in [0, 1]");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Empirical CDF at `x`: the fraction of samples `≤ x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Kolmogorov–Smirnov distance `sup_x |F(x) - G(x)|` to another law —
    /// the scalar-observable analogue of the total-variation comparisons the
    /// exact experiments run on state distributions.
    pub fn ks_distance(&self, other: &EmpiricalLaw) -> f64 {
        let mut best: f64 = 0.0;
        for &x in self.sorted.iter().chain(&other.sorted) {
            best = best.max((self.cdf(x) - other.cdf(x)).abs());
        }
        best
    }
}

/// Result of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// Number of replicas simulated.
    pub replicas: usize,
    /// Number of steps each replica ran.
    pub steps: u64,
    /// Final state of every replica.
    pub final_states: Vec<usize>,
    /// Empirical distribution of the final states over the profile space.
    pub empirical: Vector,
    /// Running statistics of the observable evaluated at the final states
    /// (mean/variance/min/max across replicas).
    pub observable_stats: RunningStats,
}

impl EnsembleResult {
    /// Total variation distance between the empirical law of `X_t` and a
    /// reference distribution (typically the Gibbs measure).
    pub fn tv_to(&self, reference: &Vector) -> f64 {
        logit_markov::total_variation(&self.empirical, reference)
    }
}

/// Result of an in-place profile-ensemble run: a streamed time series of one
/// observable across replicas, plus its final-time empirical law.
#[derive(Debug, Clone)]
pub struct ProfileEnsembleResult {
    /// Number of replicas simulated.
    pub replicas: usize,
    /// Number of steps each replica ran.
    pub steps: u64,
    /// Sampling period of the streamed observable.
    pub sample_every: u64,
    /// Name of the observable.
    pub name: String,
    /// Recorded time steps (multiples of `sample_every`, plus `steps`).
    pub times: Vec<u64>,
    /// Statistics across replicas at each recorded step.
    pub series: Vec<RunningStats>,
    /// Observable value of every replica at the final step.
    pub final_values: Vec<f64>,
}

impl ProfileEnsembleResult {
    /// Mean of the observable across replicas at each recorded step.
    pub fn means(&self) -> Vec<f64> {
        self.series.iter().map(|s| s.mean()).collect()
    }

    /// The final-time empirical law of the observable across replicas.
    pub fn law(&self) -> EmpiricalLaw {
        EmpiricalLaw::from_samples(self.final_values.clone())
    }

    /// Statistics of the final observable values across replicas.
    pub fn final_stats(&self) -> RunningStats {
        let mut stats = RunningStats::new();
        for &v in &self.final_values {
            stats.push(v);
        }
        stats
    }

    /// Renders the streamed series as CSV (`t,mean,std_err,min,max`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,mean,std_err,min,max\n");
        for (t, s) in self.times.iter().zip(&self.series) {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                t,
                s.mean(),
                s.std_err(),
                s.min(),
                s.max()
            ));
        }
        out
    }
}

/// Result of a tempered ensemble run ([`Simulator::run_tempered`]): the
/// streamed time series of one observable evaluated on the **cold** replica
/// across independent tempering ensembles, plus the pooled swap diagnostics.
///
/// This is the tempering analogue of [`ProfileEnsembleResult`]: the cold
/// replica is the one whose law targets Gibbs at `β_cold`, so its observable
/// stream is what the experiments reduce — without any end-of-run barrier,
/// values are recorded as the rounds unfold.
#[derive(Debug, Clone)]
pub struct TemperedEnsembleResult {
    /// Number of independent tempering ensembles simulated.
    pub ensembles: usize,
    /// Replicas (β-rungs) per ensemble.
    pub replicas_per_ensemble: usize,
    /// Tempering rounds each ensemble ran.
    pub rounds: u64,
    /// Engine ticks per replica per round.
    pub sweep_ticks: u64,
    /// Name of the observable.
    pub name: String,
    /// Recorded times, in engine ticks per replica (round boundaries).
    pub times: Vec<u64>,
    /// Statistics of the cold-replica observable across ensembles at each
    /// recorded time.
    pub series: Vec<RunningStats>,
    /// Cold-replica observable of every ensemble at the final round.
    pub final_values: Vec<f64>,
    /// Swap diagnostics pooled over all ensembles.
    pub swap_stats: crate::tempering::SwapStats,
}

impl TemperedEnsembleResult {
    /// Mean of the cold-replica observable across ensembles at each recorded
    /// time.
    pub fn means(&self) -> Vec<f64> {
        self.series.iter().map(|s| s.mean()).collect()
    }

    /// The final-time empirical law of the cold-replica observable.
    pub fn law(&self) -> EmpiricalLaw {
        EmpiricalLaw::from_samples(self.final_values.clone())
    }

    /// Pooled swap acceptance rate of every adjacent ladder pair, hot to cold.
    pub fn swap_rates(&self) -> Vec<f64> {
        self.swap_stats.rates()
    }

    /// Total engine ticks spent per ensemble (all replicas summed).
    pub fn engine_ticks_per_ensemble(&self) -> u64 {
        self.rounds * self.sweep_ticks * self.replicas_per_ensemble as u64
    }
}

/// Reproducible parallel ensemble simulator.
///
/// Every parallel run — the replica ensembles of [`run`](Self::run) and
/// [`run_profiles`](Self::run_profiles), the pipelined farm
/// [`run_profiles_pipelined`](Self::run_profiles_pipelined), the tempered
/// farm [`run_tempered`](Self::run_tempered) —
/// goes through one persistent [`WorkerPool`](crate::runtime::WorkerPool)
/// per simulator, spawned lazily on the first run and configured by the
/// simulator's [`RuntimeConfig`](crate::runtime::RuntimeConfig) — its
/// settings never affect results (the bit-identity contract), only
/// throughput.
///
/// The pool takes one dispatch at a time (a second concurrent dispatch
/// panics), so one `Simulator` — or clones and [`reseeded`](Self::reseeded)
/// forks sharing its pool — must not run two ensembles at once from
/// different threads. Give each thread its own `Simulator`, or serialise
/// the runs through one thread as the job server's executor does.
#[derive(Debug, Clone)]
pub struct Simulator {
    seed: u64,
    replicas: usize,
    runtime: crate::runtime::RuntimeConfig,
    pool: std::sync::OnceLock<std::sync::Arc<crate::runtime::WorkerPool>>,
}

impl Simulator {
    /// Creates a simulator with a master seed and a number of independent
    /// replicas. The parallel runtime is read from the environment
    /// ([`RuntimeConfig::from_env`](crate::runtime::RuntimeConfig::from_env):
    /// `LOGIT_WORKERS`, `LOGIT_MIN_CLASS_SIZE`, `LOGIT_BLOCK_PLAYERS`),
    /// defaults when unset.
    pub fn new(seed: u64, replicas: usize) -> Self {
        Self::with_runtime(seed, replicas, crate::runtime::RuntimeConfig::from_env())
    }

    /// [`new`](Self::new) with an explicit parallel-runtime configuration.
    pub fn with_runtime(
        seed: u64,
        replicas: usize,
        runtime: crate::runtime::RuntimeConfig,
    ) -> Self {
        assert!(replicas > 0, "need at least one replica");
        Self {
            seed,
            replicas,
            runtime,
            pool: std::sync::OnceLock::new(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The parallel-runtime configuration.
    pub fn runtime(&self) -> &crate::runtime::RuntimeConfig {
        &self.runtime
    }

    /// The simulator's persistent worker pool, spawned on first use and
    /// reused by every subsequent parallel run (cloned simulators share an
    /// already-spawned pool).
    pub fn pool(&self) -> &crate::runtime::WorkerPool {
        self.pool
            .get_or_init(|| std::sync::Arc::new(crate::runtime::WorkerPool::new(&self.runtime)))
    }

    /// The master seed replica streams are derived from (shared with the
    /// pipelined runner in [`crate::pipeline`]).
    pub(crate) fn master_seed(&self) -> u64 {
        self.seed
    }

    /// A simulator with its own master seed and replica count that shares
    /// this one's runtime configuration **and** its already-spawned worker
    /// pool — the per-job view a long-running service needs: every job gets
    /// independent, reproducible streams (`Simulator::new(seed, replicas)`
    /// replays them offline) while the pool threads are spawned exactly
    /// once for the process.
    pub fn reseeded(&self, seed: u64, replicas: usize) -> Simulator {
        assert!(replicas > 0, "need at least one replica");
        // Force the pool into existence first: cloning an empty OnceLock
        // would hand the job its own private pool.
        let _ = self.pool();
        Simulator {
            seed,
            replicas,
            runtime: self.runtime,
            pool: self.pool.clone(),
        }
    }

    /// Runs `replica(r, &mut slots[r])` for every replica `r` on the
    /// simulator's pool, one claim per replica, so each replica writes its
    /// own slot and the output order is the replica order whatever thread
    /// ran it. With one configured worker the replicas run inline on the
    /// caller and the pool's dispatch counter does not move.
    fn for_each_replica<T: Send>(&self, slots: &mut [T], replica: impl Fn(usize, &mut T) + Sync) {
        self.pool().for_each_chunk(
            slots,
            1,
            self.runtime.resolved_workers(),
            &|r, slot: &mut [T]| replica(r, &mut slot[0]),
        );
    }

    /// Runs every replica for `steps` steps from `start` in parallel (one
    /// pool claim per replica) and evaluates `observable` on each final
    /// state.
    ///
    /// The observable is evaluated on the *flat index*; use
    /// `dynamics.space().profile_of(idx)` inside the closure when the profile
    /// itself is needed.
    pub fn run<G, U, F>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        start: usize,
        steps: u64,
        observable: F,
    ) -> EnsembleResult
    where
        G: Game + Sync,
        U: UpdateRule,
        F: Fn(usize) -> f64 + Sync,
    {
        assert!(start < dynamics.num_states(), "start state out of range");
        let mut final_states = vec![start; self.replicas];
        self.for_each_replica(&mut final_states, |replica, state| {
            // Independent, reproducible stream per replica.
            let mut rng = ChaCha8Rng::seed_from_u64(replica_seed(self.seed, replica));
            let mut scratch = Scratch::for_game(dynamics.game());
            for _ in 0..steps {
                *state = dynamics.step_indexed(*state, &mut scratch, &mut rng);
            }
        });

        let mut empirical = Vector::zeros(dynamics.num_states());
        let mut stats = RunningStats::new();
        for &s in &final_states {
            empirical[s] += 1.0;
            stats.push(observable(s));
        }
        empirical.scale(1.0 / self.replicas as f64);

        EnsembleResult {
            replicas: self.replicas,
            steps,
            final_states,
            empirical,
            observable_stats: stats,
        }
    }

    /// Runs every replica in place over strategy profiles — the large-`n`
    /// entry point and the sequential reference the pipelined farm is
    /// pinned against. Each replica starts from a copy of `start`, advances
    /// `steps` ticks of `schedule` with its own deterministic ChaCha stream
    /// and reused [`Scratch`] buffers, and records `observable` every
    /// `sample_every` ticks (plus at the final tick), so the transient is
    /// observed as it unfolds instead of final states only. On a game with
    /// a count kernel each replica keeps one neighbour-count word per
    /// player: an update loads its word, and only a move reads a row. An
    /// observable that carries a tally ([`ProfileObservable::tally`], e.g.
    /// the potential of a graphical or Ising game) is then kept current in
    /// `O(1)` at every applied move and each sample reads it in `O(1)`,
    /// with the bits of a full evaluation.
    ///
    /// A tick is one [`SelectionSchedule`] tick: a single player for the
    /// sequential schedules (the paper's chain is
    /// [`UniformSingle`](crate::schedules::UniformSingle)), a whole block of
    /// updates for the parallel ones.
    ///
    /// Never builds the flat profile space: games with `n = 10⁵`–`10⁶`
    /// players run fine. Replica streams use the same seed derivation as
    /// [`Self::run`], so on small games under `UniformSingle` the two
    /// engines agree replica by replica.
    pub fn run_profiles<G, U, S, O>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        schedule: &S,
        start: &[usize],
        steps: u64,
        sample_every: u64,
        observable: &O,
    ) -> ProfileEnsembleResult
    where
        G: Game + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        validate_start_profile(dynamics.game(), start);
        assert!(steps >= 1, "need at least one step");
        assert!(sample_every >= 1, "sampling period must be at least 1");

        let times = sample_times(steps, sample_every);
        let start = ReplicaStart::new(dynamics, observable, start);

        let mut per_replica: Vec<Vec<f64>> = vec![Vec::new(); self.replicas];
        self.for_each_replica(&mut per_replica, |replica, slot| {
            let mut run = Replica::new(dynamics, observable, &start, self.seed, replica);
            *slot = times
                .iter()
                .map(|&target| {
                    run.advance_to(schedule, target);
                    run.sample()
                })
                .collect();
        });

        let mut series = vec![RunningStats::new(); times.len()];
        for values in &per_replica {
            for (k, &v) in values.iter().enumerate() {
                series[k].push(v);
            }
        }
        let final_values: Vec<f64> = per_replica
            .iter()
            .map(|values| *values.last().expect("at least one recording time"))
            .collect();

        ProfileEnsembleResult {
            replicas: self.replicas,
            steps,
            sample_every,
            name: observable.name().to_string(),
            times,
            series,
            final_values,
        }
    }

    /// Runs independent replica-exchange ensembles on the farm — the
    /// tempering analogue of
    /// [`run_profiles_pipelined`](Self::run_profiles_pipelined).
    ///
    /// Each of the simulator's `replicas` entries becomes one *tempering
    /// ensemble* (a full β-ladder of `ensemble.num_replicas()` chains) with
    /// its own deterministic stream family derived from the master seed. Every
    /// ensemble starts all rungs from a copy of `start`, runs `rounds`
    /// tempering rounds of `sweep_ticks` ticks each under `schedule`, and
    /// `observable` is evaluated on the **cold** replica's profile every
    /// `sample_every` rounds (plus at the final round). Swap diagnostics are
    /// pooled across ensembles.
    ///
    /// Routed through the same farm/reducer stages as the pipelined profile
    /// runner ([`crate::pipeline`]): each ensemble's worker evaluates the
    /// observable on its cold profile at every sample round and streams the
    /// value through a bounded channel as the rounds unfold, and the calling
    /// thread only folds those values in ensemble order — streamed, no
    /// end-of-run barrier. Of `config` only `channel_capacity` applies (it
    /// bounds the samples in flight): the round structure already chunks
    /// the stream at sample rounds, so `chunk_ticks` has no effect, and the
    /// worker count comes from the simulator's
    /// [`RuntimeConfig`](crate::runtime::RuntimeConfig). Neither affects the
    /// result.
    ///
    /// `cancel` works as on the profile farm, checked before seeding and
    /// before every round: `None` means cancelled, so a run without a token
    /// always returns `Some`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_tempered<G, U, S, O>(
        &self,
        ensemble: &crate::tempering::TemperingEnsemble<G, U>,
        schedule: &S,
        start: &[usize],
        rounds: u64,
        sweep_ticks: u64,
        sample_every: u64,
        observable: &O,
        config: &crate::pipeline::PipelineConfig,
        cancel: Option<&crate::pipeline::CancelToken>,
    ) -> Option<TemperedEnsembleResult>
    where
        G: logit_games::PotentialGame + Send + Sync,
        U: UpdateRule,
        S: SelectionSchedule,
        O: ProfileObservable + Sync,
    {
        use crate::pipeline::{farm, FarmSender, OrderedSeriesReducer, SampleBatch};

        assert!(rounds >= 1, "need at least one round");
        assert!(sweep_ticks >= 1, "need at least one tick per round");
        assert!(
            sample_every >= 1,
            "sampling period must be at least 1 round"
        );
        config.validate();

        let sample_rounds = sample_times(rounds, sample_every);
        let sample_rounds_ref = &sample_rounds;
        let workers = self.runtime.farm_workers(self.replicas);

        // Cold-replica samples stream through the shared stage type; the
        // swap diagnostics ride behind them once per ensemble.
        enum TemperMsg {
            Batch(SampleBatch),
            Stats {
                ensemble: usize,
                stats: crate::tempering::SwapStats,
            },
        }

        let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
        let worker = |e: usize, tx: &FarmSender<TemperMsg>| {
            // A cancelled run stops before seeding and between rounds:
            // returning `false` trips the farm's stop flag, so the emitter
            // drains every remaining ensemble as a no-op.
            if cancelled() {
                return false;
            }
            let mut state = ensemble.init_state(start, ensemble_seed(self.seed, e));
            let mut r = 0u64;
            for (k, &target) in sample_rounds_ref.iter().enumerate() {
                while r < target {
                    if cancelled() {
                        return false;
                    }
                    ensemble.round(schedule, &mut state, sweep_ticks);
                    r += 1;
                }
                let send = tx.send(TemperMsg::Batch(SampleBatch {
                    replica: e,
                    first_sample: k,
                    values: vec![observable.evaluate_profile(state.cold_profile())],
                }));
                if send.is_err() {
                    // The reducer died; stop sweeping, let its panic
                    // surface through the farm.
                    return false;
                }
            }
            tx.send(TemperMsg::Stats {
                ensemble: e,
                stats: state.swap_stats().clone(),
            })
            .is_ok()
        };

        let (acc, per_ensemble_stats) = farm(
            self.pool(),
            self.replicas,
            workers,
            config.channel_capacity,
            worker,
            |rx| {
                let mut reducer = OrderedSeriesReducer::new(sample_rounds_ref.len(), self.replicas);
                let mut stats: Vec<Option<crate::tempering::SwapStats>> = vec![None; self.replicas];
                for msg in rx {
                    match msg {
                        TemperMsg::Batch(batch) => batch.offer_to(&mut reducer),
                        TemperMsg::Stats { ensemble, stats: s } => {
                            stats[ensemble] = Some(s);
                        }
                    }
                }
                // As on the profile farm, a set token discards even a
                // whole stream, so racing callers observe one outcome.
                if cancelled() {
                    return None;
                }
                Some((reducer.finish(), stats))
            },
        )?;

        let (series, final_values) = acc.into_series_and_finals();
        let mut swap_stats =
            crate::tempering::SwapStats::new(ensemble.num_replicas().saturating_sub(1));
        for stats in per_ensemble_stats {
            swap_stats.merge(&stats.expect("every ensemble reports swap stats"));
        }

        Some(TemperedEnsembleResult {
            ensembles: self.replicas,
            replicas_per_ensemble: ensemble.num_replicas(),
            rounds,
            sweep_ticks,
            name: observable.name().to_string(),
            times: sample_rounds.iter().map(|&r| r * sweep_ticks).collect(),
            series,
            final_values,
            swap_stats,
        })
    }

    /// Convenience: runs the ensemble and reports the total variation distance of
    /// the empirical final-state distribution to `reference` (e.g. the Gibbs
    /// measure), without needing an observable.
    pub fn tv_distance_after<G: Game + Sync, U: UpdateRule>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        start: usize,
        steps: u64,
        reference: &Vector,
    ) -> f64 {
        self.run(dynamics, start, steps, |_| 0.0).tv_to(reference)
    }

    /// Estimates the time at which the empirical distribution first comes within
    /// `target_tv + sampling slack` of the reference by doubling the horizon.
    /// Returns `(steps, tv)` for the first horizon that met the target, or `None`
    /// if `max_steps` was reached first.
    ///
    /// This is a *statistical estimate* of the mixing time (it under-resolves TV
    /// distances below the sampling noise `~sqrt(|S|/replicas)`), used only where
    /// exact computation is infeasible.
    pub fn estimate_mixing_by_doubling<G: Game + Sync, U: UpdateRule>(
        &self,
        dynamics: &DynamicsEngine<G, U>,
        start: usize,
        reference: &Vector,
        target_tv: f64,
        max_steps: u64,
    ) -> Option<(u64, f64)> {
        let mut steps = 1u64;
        loop {
            let tv = self.tv_distance_after(dynamics, start, steps, reference);
            if tv <= target_tv {
                return Some((steps, tv));
            }
            if steps >= max_steps {
                return None;
            }
            steps = (steps * 2).min(max_steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::gibbs::gibbs_distribution;
    use crate::pipeline::PipelineConfig;
    use crate::schedules::UniformSingle;
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, PotentialGame, WellGame};
    use logit_graphs::GraphBuilder;
    use rand::rngs::StdRng;

    #[test]
    fn trajectory_has_expected_length_and_valid_states() {
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let traj = simulate_trajectory(&d, 0, 100, &mut rng);
        assert_eq!(traj.len(), 101);
        assert!(traj.iter().all(|&s| s < d.num_states()));
    }

    #[test]
    fn ensemble_is_reproducible_and_thread_count_independent() {
        use crate::observables::PotentialObservable;
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game.clone(), 0.8);
        let obs = PotentialObservable::new(game);
        let with_workers = |workers| {
            let runtime = crate::runtime::RuntimeConfig {
                workers,
                ..crate::runtime::RuntimeConfig::default()
            };
            Simulator::with_runtime(123, 64, runtime)
        };
        let moments = |s: &RunningStats| (s.count(), s.mean(), s.variance(), s.min(), s.max());
        let (one, three) = (with_workers(1), with_workers(3));

        let a = one.run(&d, 0, 50, |s| s as f64);
        let b = three.run(&d, 0, 50, |s| s as f64);
        assert_eq!(a.final_states, b.final_states);
        assert_eq!(moments(&a.observable_stats), moments(&b.observable_stats));

        let a = one.run_profiles(&d, &UniformSingle, &[0; 4], 50, 10, &obs);
        let b = three.run_profiles(&d, &UniformSingle, &[0; 4], 50, 10, &obs);
        assert_eq!(a.final_values, b.final_values);
        let series = |r: &ProfileEnsembleResult| r.series.iter().map(moments).collect::<Vec<_>>();
        assert_eq!(series(&a), series(&b));

        // The worker count picks the execution strategy: one worker runs
        // every replica inline, three fan them out over the pool.
        assert_eq!(one.pool().dispatches(), 0);
        assert!(three.pool().dispatches() > 0);
    }

    #[test]
    fn empirical_distribution_sums_to_one() {
        let game = WellGame::plateau(3, 1.0);
        let d = LogitDynamics::new(game, 0.3);
        let sim = Simulator::new(5, 200);
        let result = sim.run(&d, 0, 30, |_| 1.0);
        assert!(result.empirical.is_distribution(1e-9));
        assert_eq!(result.final_states.len(), 200);
        assert_eq!(result.observable_stats.count(), 200);
    }

    #[test]
    fn long_runs_approach_the_gibbs_measure() {
        // Small game, moderate beta: after many steps the ensemble law should be
        // close to Gibbs (within sampling noise).
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::ring(3), CoordinationGame::symmetric(1.0));
        let beta = 0.7;
        let d = LogitDynamics::new(game.clone(), beta);
        let pi = gibbs_distribution(&game, beta);
        let sim = Simulator::new(42, 4000);
        let tv = sim.tv_distance_after(&d, 0, 400, &pi);
        assert!(tv < 0.08, "ensemble law should approach Gibbs, tv = {tv}");
    }

    #[test]
    fn observable_tracks_potential() {
        let game = WellGame::plateau(4, 2.0);
        let beta = 3.0;
        let d = LogitDynamics::new(game.clone(), beta);
        let space = d.space().clone();
        let sim = Simulator::new(7, 500);
        let result = sim.run(&d, 0, 300, |idx| game.potential(&space.profile_of(idx)));
        // At beta = 3 the chain should mostly sit in the wells (potential -2).
        assert!(result.observable_stats.mean() < -1.0);
    }

    #[test]
    fn doubling_estimator_finds_fast_mixing() {
        let game = WellGame::plateau(3, 0.5);
        let beta = 0.2;
        let d = LogitDynamics::new(game.clone(), beta);
        let pi = gibbs_distribution(&game, beta);
        let sim = Simulator::new(11, 3000);
        let found = sim.estimate_mixing_by_doubling(&d, 0, &pi, 0.12, 4096);
        let (steps, tv) = found.expect("a tiny game at low beta mixes quickly");
        assert!(steps <= 4096);
        assert!(tv <= 0.12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_start_state_rejected() {
        let game = WellGame::plateau(3, 1.0);
        let d = LogitDynamics::new(game, 1.0);
        let sim = Simulator::new(1, 10);
        let _ = sim.run(&d, 1000, 10, |_| 0.0);
    }

    #[test]
    fn profile_ensemble_matches_flat_ensemble_replica_by_replica() {
        use crate::observables::PotentialObservable;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(4),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let d = LogitDynamics::new(game.clone(), 0.9);
        let space = d.space().clone();
        let sim = Simulator::new(77, 48);

        let flat = sim.run(&d, 0, 60, |idx| game.potential(&space.profile_of(idx)));
        let obs = PotentialObservable::new(game.clone());
        let prof = sim.run_profiles(&d, &UniformSingle, &[0, 0, 0, 0], 60, 60, &obs);

        // Same seeds, same update rule, same draw order: the final observable
        // values agree exactly, replica by replica.
        let flat_finals: Vec<f64> = flat
            .final_states
            .iter()
            .map(|&idx| game.potential(&space.profile_of(idx)))
            .collect();
        assert_eq!(flat_finals, prof.final_values);
    }

    #[test]
    fn streaming_series_has_expected_schedule() {
        use crate::observables::StrategyFraction;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(6),
            CoordinationGame::from_deltas(1.0, 2.0),
        );
        let d = LogitDynamics::new(game, 1.2);
        let sim = Simulator::new(3, 100);
        let obs = StrategyFraction::new(1, "adopters");
        let result = sim.run_profiles(&d, &UniformSingle, &[0; 6], 205, 50, &obs);
        // Samples at 50, 100, 150, 200 plus the final step 205.
        assert_eq!(result.times, vec![50, 100, 150, 200, 205]);
        assert_eq!(result.series.len(), 5);
        assert!(result.series.iter().all(|s| s.count() == 100));
        assert_eq!(result.final_values.len(), 100);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 6);
        // Risk-dominant strategy 1 gains adopters over time.
        let means = result.means();
        assert!(means[4] > means[0]);
    }

    #[test]
    fn profile_ensemble_runs_beyond_flat_index_capacity() {
        use crate::observables::StrategyFraction;
        // 500 binary players: |S| = 2^500 has no flat index, the profile
        // ensemble does not care.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(500),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(9, 8);
        let obs = StrategyFraction::new(0, "zeros");
        let result = sim.run_profiles(&d, &UniformSingle, &vec![1usize; 500], 20_000, 5_000, &obs);
        assert_eq!(result.final_values.len(), 8);
        // Strategy 0 is risk dominant; from all-ones, zeros should spread.
        assert!(
            result.law().mean() > 0.2,
            "zeros fraction = {}",
            result.law().mean()
        );
    }

    #[test]
    fn empirical_law_statistics() {
        let law = EmpiricalLaw::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(law.len(), 4);
        assert_eq!(law.min(), 1.0);
        assert_eq!(law.max(), 4.0);
        assert_eq!(law.mean(), 2.5);
        assert_eq!(law.quantile(0.5), 2.0);
        assert_eq!(law.quantile(1.0), 4.0);
        assert_eq!(law.cdf(2.5), 0.5);
        assert_eq!(law.cdf(0.0), 0.0);
        assert_eq!(law.cdf(9.0), 1.0);
        let same = EmpiricalLaw::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(law.ks_distance(&same), 0.0);
        let shifted = EmpiricalLaw::from_samples(vec![11.0, 12.0, 13.0, 14.0]);
        assert_eq!(law.ks_distance(&shifted), 1.0);
    }

    #[test]
    fn empirical_law_quantile_boundaries() {
        let law = EmpiricalLaw::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        // q = 0 is the smallest sample, q = 1 the largest (nearest-rank rule).
        assert_eq!(law.quantile(0.0), law.min());
        assert_eq!(law.quantile(0.0), 1.0);
        assert_eq!(law.quantile(1.0), law.max());
        assert_eq!(law.quantile(1.0), 4.0);
        // A single-sample law returns its one sample for every q.
        let single = EmpiricalLaw::from_samples(vec![7.5]);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(single.quantile(q), 7.5);
        }
        assert_eq!(single.min(), 7.5);
        assert_eq!(single.max(), 7.5);
        assert_eq!(single.mean(), 7.5);
    }

    #[test]
    fn empirical_cdf_handles_duplicate_samples() {
        // Duplicates make the CDF jump by more than 1/len at one point; the
        // partition_point-based count must include every tied sample.
        let law = EmpiricalLaw::from_samples(vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(law.cdf(0.999), 0.0);
        assert_eq!(law.cdf(1.0), 0.75);
        assert_eq!(law.cdf(1.5), 0.75);
        assert_eq!(law.cdf(2.0), 1.0);
        // Nearest-rank quantiles step through the tie as one block.
        assert_eq!(law.quantile(0.5), 1.0);
        assert_eq!(law.quantile(0.75), 1.0);
        assert_eq!(law.quantile(0.76), 2.0);
    }

    #[test]
    fn ks_distance_with_duplicates_and_partial_overlap() {
        // F = law of {1,1,2}, G = law of {1,2,2}: the sup gap sits at x = 1
        // (2/3 vs 1/3) and closes again at x = 2.
        let f = EmpiricalLaw::from_samples(vec![1.0, 1.0, 2.0]);
        let g = EmpiricalLaw::from_samples(vec![2.0, 1.0, 2.0]);
        assert!((f.ks_distance(&g) - 1.0 / 3.0).abs() < 1e-15);
        // Symmetric.
        assert_eq!(f.ks_distance(&g), g.ks_distance(&f));
        // Unequal sample counts: {1,2} vs {1,2,3} peaks at x = 2 (1 vs 2/3).
        let two = EmpiricalLaw::from_samples(vec![1.0, 2.0]);
        let three = EmpiricalLaw::from_samples(vec![1.0, 2.0, 3.0]);
        assert!((two.ks_distance(&three) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn ks_distance_of_single_sample_laws() {
        // Degenerate laws: distance 0 when the atoms coincide, 1 when they
        // are disjoint (the CDFs are step functions at the atoms).
        let a = EmpiricalLaw::from_samples(vec![5.0]);
        let b = EmpiricalLaw::from_samples(vec![5.0]);
        let c = EmpiricalLaw::from_samples(vec![6.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
        assert_eq!(a.ks_distance(&c), 1.0);
        assert_eq!(c.ks_distance(&a), 1.0);
        // A single atom against a spread law: sup gap at the atom.
        let spread = EmpiricalLaw::from_samples(vec![4.0, 5.0, 6.0, 7.0]);
        assert_eq!(a.cdf(5.0), 1.0);
        assert_eq!(spread.cdf(5.0), 0.5);
        assert_eq!(a.ks_distance(&spread), 0.5);
        // KS distance is always within [0, 1].
        assert!(a.ks_distance(&spread) <= 1.0);
    }

    #[test]
    fn empty_laws_cannot_reach_cdf_or_ks() {
        // The empty-vs-nonempty guard: the constructors are the only way to
        // build a law and both refuse zero samples, so `cdf`/`ks_distance`
        // can never divide by a zero sample count.
        assert_eq!(
            EmpiricalLaw::try_from_samples(Vec::new()).unwrap_err(),
            EmptyLawError
        );
        let law = EmpiricalLaw::try_from_samples(vec![2.0]).expect("one sample suffices");
        assert!(!law.is_empty());
        assert_eq!(law.len(), 1);
        assert_eq!(law.cdf(1.9), 0.0);
        assert_eq!(law.cdf(2.0), 1.0);
        assert_eq!(law.ks_distance(&law), 0.0);
    }

    #[test]
    fn empty_samples_are_a_recoverable_error() {
        let err = EmpiricalLaw::try_from_samples(Vec::new()).unwrap_err();
        assert_eq!(err, EmptyLawError);
        assert!(err.to_string().contains("at least one sample"));
        assert!(EmpiricalLaw::try_from_samples(vec![1.0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "EmpiricalLaw::from_samples")]
    fn empty_samples_panic_through_the_infallible_constructor() {
        let _ = EmpiricalLaw::from_samples(Vec::new());
    }

    #[test]
    #[should_panic(expected = "quantile order")]
    fn out_of_range_quantile_rejected() {
        let law = EmpiricalLaw::from_samples(vec![1.0, 2.0]);
        let _ = law.quantile(1.5);
    }

    #[test]
    fn all_logit_ensemble_runs_at_large_n() {
        use crate::observables::StrategyFraction;
        use crate::schedules::AllLogit;
        // 300 binary players, parallel block updates: one tick = 300 player
        // updates, far beyond any flat index.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(300),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(13, 6);
        let obs = StrategyFraction::new(0, "zeros");
        let result = sim.run_profiles(&d, &AllLogit, &vec![1usize; 300], 200, 50, &obs);
        assert_eq!(result.final_values.len(), 6);
        // Strategy 0 is risk dominant; 200 block ticks = 60000 updates should
        // flip a clear majority.
        assert!(
            result.law().mean() > 0.5,
            "zeros fraction = {}",
            result.law().mean()
        );
    }

    #[test]
    fn metropolis_ensemble_approaches_gibbs() {
        use crate::rules::MetropolisLogit;
        use crate::DynamicsEngine;
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::ring(3), CoordinationGame::symmetric(1.0));
        let beta = 0.7;
        let d = DynamicsEngine::with_rule(game.clone(), MetropolisLogit, beta);
        let pi = gibbs_distribution(&game, beta);
        let sim = Simulator::new(42, 4000);
        let tv = sim.tv_distance_after(&d, 0, 600, &pi);
        assert!(
            tv < 0.08,
            "Metropolis ensemble law should approach Gibbs, tv = {tv}"
        );
    }

    #[test]
    fn profile_trajectory_streams_every_step() {
        let game = WellGame::plateau(5, 1.5);
        let d = LogitDynamics::new(game, 0.8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut profile = vec![0usize; 5];
        let mut visits = 0u64;
        simulate_profile_trajectory(&d, &mut profile, 250, &mut rng, |t, p, event| {
            visits += 1;
            assert_eq!(t, visits);
            assert_eq!(p.len(), 5);
            assert_eq!(p[event.player], event.new_strategy);
        });
        assert_eq!(visits, 250);
    }

    #[test]
    fn ensemble_and_rung_seed_derivations_never_collide() {
        // The composed rung stream seed (e, r) -> replica_seed(ensemble_seed(s, e), r)
        // must be injective: with a shared multiplier it would be symmetric in
        // (e, r) and "independent" ensembles would walk each other's streams.
        let seed = 0xDEAD_BEEF_u64;
        let mut seen = std::collections::HashSet::new();
        for e in 0..16 {
            for r in 0..16 {
                assert!(
                    seen.insert(replica_seed(ensemble_seed(seed, e), r)),
                    "rung stream seed collision at ensemble {e}, rung {r}"
                );
            }
        }
    }

    #[test]
    fn tempered_ensembles_stream_the_cold_replica_and_pool_swap_stats() {
        use crate::observables::PotentialObservable;
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let ensemble = TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.4, 1.2, 2.4]);
        let sim = Simulator::new(31, 24);
        let obs = PotentialObservable::new(game);
        let config = PipelineConfig::default();
        let run = || {
            sim.run_tempered(
                &ensemble,
                &UniformSingle,
                &[0; 4],
                25,
                4,
                10,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete")
        };
        let result = run();
        assert_eq!(result.ensembles, 24);
        assert_eq!(result.replicas_per_ensemble, 3);
        // Samples at rounds 10, 20 plus the final round 25, in engine ticks.
        assert_eq!(result.times, vec![40, 80, 100]);
        assert_eq!(result.series.len(), 3);
        assert!(result.series.iter().all(|s| s.count() == 24));
        assert_eq!(result.final_values.len(), 24);
        assert_eq!(result.engine_ticks_per_ensemble(), 25 * 4 * 3);
        // Every ensemble attempted every pair once per round.
        assert_eq!(result.swap_stats.attempts(0), 24 * 25);
        assert_eq!(result.swap_stats.attempts(1), 24 * 25);
        assert_eq!(result.swap_rates().len(), 2);
        // Reproducible: same seed, same everything.
        let again = run();
        assert_eq!(result.final_values, again.final_values);
        assert_eq!(result.swap_stats, again.swap_stats);
    }

    #[test]
    fn tempered_cold_replica_law_tracks_gibbs_potential() {
        use crate::observables::PotentialObservable;
        use crate::tempering::TemperingEnsemble;
        let game = WellGame::plateau(4, 2.0);
        let beta_cold = 2.0;
        let ensemble =
            TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.3, 1.0, beta_cold]);
        let sim = Simulator::new(8, 400);
        let obs = PotentialObservable::new(game.clone());
        let config = PipelineConfig::default();
        let result = sim
            .run_tempered(
                &ensemble,
                &UniformSingle,
                &[0; 4],
                150,
                4,
                150,
                &obs,
                &config,
                None,
            )
            .expect("uncancelled runs complete");
        let expected = crate::gibbs::expected_potential(&game, beta_cold);
        let mean = result.law().mean();
        assert!(
            (mean - expected).abs() < 0.1,
            "cold-replica mean potential {mean} should approach the Gibbs expectation {expected}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The tempered farm against a sequential replay: each ensemble
        /// runs `init_state` and `round` in order on the caller, the
        /// observable is read off `cold_profile` at every sample round, and
        /// the values are pushed replica-major into plain `RunningStats`.
        /// Worker count and channel capacity must not move a byte.
        #[test]
        fn tempered_farm_matches_a_sequential_replay(
            seed in 0u64..10_000,
            workers in 1usize..5,
            channel_capacity in 1usize..6,
        ) {
            use crate::observables::PotentialObservable;
            use crate::tempering::{SwapStats, TemperingEnsemble};
            // A hot ladder on a ring keeps the cold rung wandering over
            // many potential levels, so the folded moments depend on the
            // order of the values.
            let game = GraphicalCoordinationGame::new(
                GraphBuilder::ring(6),
                CoordinationGame::from_deltas(2.0, 1.0),
            );
            let ensemble =
                TemperingEnsemble::new(game.clone(), crate::rules::Logit, &[0.1, 0.4, 0.9]);
            let obs = PotentialObservable::new(game);
            let (ensembles, rounds, sweep_ticks, sample_every) = (7, 11, 3, 4);
            let start = [0; 6];
            let runtime = crate::runtime::RuntimeConfig {
                workers,
                ..crate::runtime::RuntimeConfig::default()
            };
            let config = PipelineConfig {
                channel_capacity,
                ..PipelineConfig::default()
            };
            let farmed = Simulator::with_runtime(seed, ensembles, runtime)
                .run_tempered(
                    &ensemble,
                    &UniformSingle,
                    &start,
                    rounds,
                    sweep_ticks,
                    sample_every,
                    &obs,
                    &config,
                    None,
                )
                .expect("uncancelled runs complete");

            let sample_rounds = sample_times(rounds, sample_every);
            let mut series = vec![RunningStats::new(); sample_rounds.len()];
            let mut final_values = Vec::new();
            let mut swap_stats = SwapStats::new(ensemble.num_replicas() - 1);
            for e in 0..ensembles {
                let mut state = ensemble.init_state(&start, ensemble_seed(seed, e));
                let mut round = 0;
                for (k, &target) in sample_rounds.iter().enumerate() {
                    while round < target {
                        ensemble.round(&UniformSingle, &mut state, sweep_ticks);
                        round += 1;
                    }
                    let value = obs.evaluate_profile(state.cold_profile());
                    series[k].push(value);
                    if k + 1 == sample_rounds.len() {
                        final_values.push(value);
                    }
                }
                swap_stats.merge(state.swap_stats());
            }

            // `Debug` prints every Welford field in round-trip precision,
            // so equal strings are equal bytes.
            proptest::prop_assert_eq!(format!("{:?}", farmed.series), format!("{:?}", series));
            proptest::prop_assert_eq!(
                format!("{:?}", farmed.final_values),
                format!("{:?}", final_values)
            );
            proptest::prop_assert_eq!(farmed.swap_stats, swap_stats);
            proptest::prop_assert_eq!(
                farmed.times,
                sample_rounds.iter().map(|&r| r * sweep_ticks).collect::<Vec<_>>()
            );
        }
    }

    /// Steps replica 0 of a potential-observable run one tick at a time
    /// next to a stateless `step_scheduled` loop on the same stream, and
    /// checks after every tick that the replica's profile is the loop's,
    /// that its words are a fresh count of that profile, and that its
    /// tally is the full count, with the potential bit for bit.
    fn check_words_under<G, U, S>(
        dynamics: &DynamicsEngine<G, U>,
        schedule: &S,
        start: &[usize],
        seed: u64,
        ticks: u64,
    ) -> Result<(), proptest::TestCaseError>
    where
        G: PotentialGame,
        U: UpdateRule,
        S: SelectionSchedule,
    {
        use crate::observables::PotentialObservable;
        let game = dynamics.game();
        let observable = PotentialObservable::new(game);
        let first = ReplicaStart::new(dynamics, &observable, start);
        let mut run = Replica::new(dynamics, &observable, &first, seed, 0);
        let mut plain = start.to_vec();
        let mut scratch = Scratch::for_game(game);
        let mut rng = ChaCha8Rng::seed_from_u64(replica_seed(seed, 0));
        for t in 0..ticks {
            run.advance_to(schedule, t + 1);
            dynamics.step_scheduled(schedule, t, &mut plain, &mut scratch, &mut rng);
            let at = format!("{} at t = {t}", schedule.name());
            proptest::prop_assert_eq!(&run.profile, &plain, "{}", at);
            let words = run.words.as_ref().expect("count games keep words");
            let recounted = dynamics
                .count_words(&plain)
                .expect("count games have a table");
            proptest::prop_assert_eq!(words, &recounted, "{}", at);
            for (word, &x) in words.iter().zip(&plain) {
                proptest::prop_assert_eq!((word & 1) as usize, x, "{}", at);
            }
            proptest::prop_assert_eq!(run.tally, game.tally(&plain), "{}", at);
            proptest::prop_assert_eq!(
                run.sample().to_bits(),
                game.potential(&plain).to_bits(),
                "{}",
                at
            );
        }
        Ok(())
    }

    fn check_words_for_every_schedule<G, U>(
        game: &G,
        rule: U,
        beta: f64,
        start: &[usize],
        seed: u64,
    ) -> Result<(), proptest::TestCaseError>
    where
        G: PotentialGame + logit_games::LocalGame + Clone,
        U: UpdateRule,
    {
        use crate::parallel::{ColouredBlocks, RandomBlock};
        use crate::schedules::{AllLogit, SystematicSweep};
        let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
        let n = start.len();
        check_words_under(&d, &UniformSingle, start, seed, 4 * n as u64)?;
        check_words_under(&d, &SystematicSweep, start, seed, 4 * n as u64)?;
        check_words_under(&d, &AllLogit, start, seed, 8)?;
        check_words_under(&d, &ColouredBlocks::for_game(game), start, seed, 16)?;
        check_words_under(&d, &RandomBlock::new(n.div_ceil(2)), start, seed, 8)
    }

    fn check_words_for_every_rule<G>(
        game: &G,
        beta: f64,
        start: &[usize],
        seed: u64,
    ) -> Result<(), proptest::TestCaseError>
    where
        G: PotentialGame + logit_games::LocalGame + Clone,
    {
        use crate::rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse};
        check_words_for_every_schedule(game, Logit, beta, start, seed)?;
        check_words_for_every_schedule(game, MetropolisLogit, beta, start, seed)?;
        check_words_for_every_schedule(game, NoisyBestResponse::new(0.15), beta, start, seed)?;
        check_words_for_every_schedule(game, Fermi, beta, start, seed)?;
        check_words_for_every_schedule(game, ImitateBetter::new(0.1), beta, start, seed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The ensembles' neighbour-count words against the stateless
        /// engine: under every rule and every schedule (uniform, sweep,
        /// all-logit, coloured blocks, random block), on graphical games
        /// with non-dyadic payoffs and Ising games with a field, over
        /// random graphs with isolated players and mixed degrees, from
        /// random starts, a replica walks the `step_scheduled` trajectory
        /// and keeps words and a tally that equal fresh counts after every
        /// tick.
        #[test]
        fn replica_words_track_the_stateless_engine_for_every_rule_and_schedule(
            seed in 0u64..10_000,
            n in 1usize..14,
            p in 0.0f64..0.7,
            beta in 0.0f64..3.0,
            payoff in 0.01f64..3.0,
            field in -1.0f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = GraphBuilder::erdos_renyi(n, p, &mut rng);
            let start: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
            let base = CoordinationGame::new(1.3 + payoff, 0.7 + payoff / 3.0, 0.1 * payoff, 0.2);
            let graphical = GraphicalCoordinationGame::new(graph.clone(), base);
            check_words_for_every_rule(&graphical, beta, &start, seed)?;
            let ising = logit_games::IsingGame::new(graph, 0.5 + payoff, field);
            check_words_for_every_rule(&ising, beta, &start, seed)?;
        }
    }

    #[test]
    fn games_without_a_count_kernel_keep_no_words_and_no_tally() {
        use crate::observables::PotentialObservable;
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game.clone(), 0.8);
        let obs = PotentialObservable::new(game);
        let run = Replica::new(&d, &obs, &ReplicaStart::new(&d, &obs, &[0; 4]), 1, 0);
        assert!(run.words.is_none());
        assert!(run.tally.is_none());
    }

    /// A move feeds the observable's `retally` from the dynamics' words, so
    /// a potential observable whose game counts other rows (another graph,
    /// or the same edges built into a second graph) keeps no tally and
    /// samples full evaluations on both runners. One on a clone of the
    /// game, which shares its graph, keeps its tally.
    #[test]
    fn observables_counting_other_rows_evaluate_every_sample() {
        use crate::observables::{NamedObservable, PotentialObservable};
        let base = CoordinationGame::from_deltas(2.0137, 1.0);
        let ring = GraphicalCoordinationGame::new(GraphBuilder::ring(12), base);
        let d = LogitDynamics::new(ring.clone(), 0.3);
        let start: Vec<usize> = (0..12).map(|i| usize::from(i % 3 == 0)).collect();
        let sim = Simulator::new(11, 3);
        let config = PipelineConfig {
            chunk_ticks: 7,
            channel_capacity: 2,
        };
        let bytes = |r: &ProfileEnsembleResult| format!("{:?} {:?}", r.series, r.final_values);
        let torus = GraphicalCoordinationGame::new(GraphBuilder::torus(3, 4), base);
        let rebuilt = GraphicalCoordinationGame::new(GraphBuilder::ring(12), base);
        let ising = logit_games::IsingGame::new(GraphBuilder::path(12), 0.7, 0.3);
        let others: [&(dyn PotentialGame + Sync); 3] = [&torus, &rebuilt, &ising];
        for other in others {
            let tallied = PotentialObservable::new(other);
            let full = NamedObservable::new("potential", |x: &[usize]| other.potential(x));
            let reference = sim.run_profiles(&d, &UniformSingle, &start, 300, 1, &full);
            let sequential = sim.run_profiles(&d, &UniformSingle, &start, 300, 1, &tallied);
            let farmed = sim
                .run_profiles_pipelined(&d, &UniformSingle, &start, 300, 1, &tallied, &config, None)
                .expect("uncancelled runs complete");
            assert_eq!(bytes(&reference), bytes(&sequential));
            assert_eq!(bytes(&reference), bytes(&farmed));
            assert!(ReplicaStart::new(&d, &tallied, &start).tally.is_none());
        }
        let shared = PotentialObservable::new(ring.clone());
        assert!(ReplicaStart::new(&d, &shared, &start).tally.is_some());
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn wrong_profile_length_rejected() {
        use crate::observables::StrategyFraction;
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game, 1.0);
        let sim = Simulator::new(1, 4);
        let obs = StrategyFraction::new(0, "zeros");
        let _ = sim.run_profiles(&d, &UniformSingle, &[0, 0], 10, 5, &obs);
    }
}
