//! Trajectory observables: the transient phase of the dynamics.
//!
//! The paper's conclusions point out that when the mixing time is exponential
//! the system spends its life in a *transient* (metastable) phase, and ask what
//! can be predicted about it. This module provides the measurement side of that
//! question: scalar observables evaluated along trajectories (potential,
//! Hamming distance to a reference profile, fraction of players on a given
//! strategy), time series averaged over ensembles of replicas, and CSV export
//! for plotting.

use crate::dynamics::DynamicsEngine;
use crate::rules::UpdateRule;
use crate::runtime::{RuntimeConfig, WorkerPool};
use logit_games::{CountKernel, Game, PotentialGame, PotentialTally, ProfileSpace};
use logit_linalg::stats::RunningStats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A scalar observable of a strategy profile (given by flat index).
pub trait Observable {
    /// Evaluates the observable at the profile with flat index `state`.
    fn evaluate(&self, space: &ProfileSpace, state: usize) -> f64;

    /// Name used as a column header.
    fn name(&self) -> &str;
}

/// A scalar observable evaluated directly on a strategy profile.
///
/// This is the large-`n` counterpart of [`Observable`]: the in-place profile
/// engine never materialises flat indices (for `n ≳ 60` binary players they
/// do not fit in a `usize`), so its streaming measurements go through this
/// trait instead.
///
/// An observable may also carry a [`PotentialTally`] counted on the rows
/// of a [`CountKernel`]. On a game whose kernel reads those same rows the
/// profile ensembles
/// ([`Simulator::run_profiles`](crate::simulate::Simulator::run_profiles)
/// and its pipelined farm) then keep one per replica, update it at every
/// applied move ([`retally`](Self::retally)) and read each sample from it
/// ([`evaluate_tally`](Self::evaluate_tally)) in `O(1)`, bit for bit equal
/// to `evaluate_profile`. On any other game, and by default, they keep
/// none, so samples are full evaluations.
pub trait ProfileObservable {
    /// Evaluates the observable at `profile`.
    fn evaluate_profile(&self, profile: &[usize]) -> f64;

    /// Name used as a column header.
    fn name(&self) -> &str;

    /// The tally to keep alongside a replica starting at `profile`, or
    /// `None` (the default): no tally, samples evaluate the profile.
    fn tally(&self, _profile: &[usize]) -> Option<PotentialTally> {
        None
    }

    /// The kernel whose count rows the tally is counted on. The ensembles
    /// feed [`retally`](Self::retally) from the dynamics' own rows, so they
    /// keep the tally only when the two kernels report the same
    /// [`rows_address`](CountKernel::rows_address). `None` (the default)
    /// keeps no tally.
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        None
    }

    /// Updates `tally` after a player moved from `old` to the other
    /// strategy, given her count row's length `degree` and its `ones`,
    /// which the ensembles read off her neighbour-count word in `O(1)`
    /// (see [`PotentialGame::retally`]).
    ///
    /// # Panics
    /// The default panics: only an observable whose
    /// [`tally`](Self::tally) returns `Some` keeps one.
    fn retally(&self, _tally: &mut PotentialTally, _old: usize, _degree: usize, _ones: usize) {
        panic!("this observable keeps no tally");
    }

    /// The observable at a profile whose tally is `tally`: bit for bit
    /// `evaluate_profile(profile)`.
    ///
    /// # Panics
    /// The default panics, as for [`retally`](Self::retally).
    fn evaluate_tally(&self, _tally: &PotentialTally) -> f64 {
        panic!("this observable keeps no tally");
    }
}

/// An ad-hoc profile observable from a closure, for experiment binaries and
/// tests: `NamedObservable::new("magnetisation", |x| ...)`.
pub struct NamedObservable<F> {
    label: String,
    f: F,
}

impl<F: Fn(&[usize]) -> f64> NamedObservable<F> {
    /// Wraps `f` under `label`.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        Self {
            label: label.into(),
            f,
        }
    }
}

impl<F: Fn(&[usize]) -> f64> ProfileObservable for NamedObservable<F> {
    fn evaluate_profile(&self, profile: &[usize]) -> f64 {
        (self.f)(profile)
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// Hamming distance to a reference profile given explicitly (the profile-space
/// analogue of [`DistanceToProfile`], usable when `|S|` has no flat index).
pub struct HammingToProfile {
    reference: Vec<usize>,
    label: String,
}

impl HammingToProfile {
    /// Creates the observable for the given reference profile.
    pub fn new(reference: Vec<usize>, label: impl Into<String>) -> Self {
        Self {
            reference,
            label: label.into(),
        }
    }
}

impl ProfileObservable for HammingToProfile {
    /// # Panics
    /// Panics when `profile` and the reference differ in length.
    fn evaluate_profile(&self, profile: &[usize]) -> f64 {
        assert!(
            profile.len() == self.reference.len(),
            "profile length {} does not match the reference length {}",
            profile.len(),
            self.reference.len()
        );
        profile
            .iter()
            .zip(&self.reference)
            .filter(|(a, b)| a != b)
            .count() as f64
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// The potential `Φ(x)` of a potential game. It carries the game's
/// [`PotentialTally`] where the game keeps one (the graphical coordination
/// and Ising games do), so the profile ensembles read each sample in `O(1)`
/// instead of an `O(n + m)` evaluation, with the same bits.
pub struct PotentialObservable<G: PotentialGame> {
    game: G,
}

impl<G: PotentialGame> PotentialObservable<G> {
    /// Creates the observable.
    pub fn new(game: G) -> Self {
        Self { game }
    }
}

impl<G: PotentialGame> Observable for PotentialObservable<G> {
    fn evaluate(&self, space: &ProfileSpace, state: usize) -> f64 {
        self.game.potential(&space.profile_of(state))
    }
    fn name(&self) -> &str {
        "potential"
    }
}

impl<G: PotentialGame> ProfileObservable for PotentialObservable<G> {
    fn evaluate_profile(&self, profile: &[usize]) -> f64 {
        self.game.potential(profile)
    }
    fn name(&self) -> &str {
        "potential"
    }
    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        self.game.tally(profile)
    }
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        self.game.count_kernel()
    }
    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        self.game.retally(tally, old, degree, ones)
    }
    fn evaluate_tally(&self, tally: &PotentialTally) -> f64 {
        self.game.potential_of_tally(tally)
    }
}

/// Hamming distance to a reference profile (e.g. a Nash equilibrium).
pub struct DistanceToProfile {
    reference: usize,
    label: String,
}

impl DistanceToProfile {
    /// Creates the observable for the profile with flat index `reference`.
    pub fn new(reference: usize, label: impl Into<String>) -> Self {
        Self {
            reference,
            label: label.into(),
        }
    }
}

impl Observable for DistanceToProfile {
    fn evaluate(&self, space: &ProfileSpace, state: usize) -> f64 {
        space.hamming_distance(state, self.reference) as f64
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// Fraction of players currently playing a given strategy.
pub struct StrategyFraction {
    strategy: usize,
    label: String,
}

impl StrategyFraction {
    /// Creates the observable for `strategy`.
    pub fn new(strategy: usize, label: impl Into<String>) -> Self {
        Self {
            strategy,
            label: label.into(),
        }
    }
}

impl Observable for StrategyFraction {
    fn evaluate(&self, space: &ProfileSpace, state: usize) -> f64 {
        let n = space.num_players();
        (0..n)
            .filter(|&i| space.strategy_of(state, i) == self.strategy)
            .count() as f64
            / n as f64
    }
    fn name(&self) -> &str {
        &self.label
    }
}

impl ProfileObservable for StrategyFraction {
    fn evaluate_profile(&self, profile: &[usize]) -> f64 {
        profile.iter().filter(|&&s| s == self.strategy).count() as f64 / profile.len() as f64
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// The reduction target for streamed ensemble observables: one
/// [`RunningStats`] per recorded time plus the final-time value of every
/// replica (keyed by replica index, so the final values come out in
/// replica order whatever order the replicas report in).
///
/// This is the accumulator the pipelined ensemble runner
/// ([`crate::pipeline`]) folds into on its calling thread: the step workers
/// evaluate the observable and stream the values, the reducer only orders
/// and records them. The order of [`record`](Self::record) calls *within
/// one time index* determines the floating-point association of the
/// Welford moments, which is why the bit-identical pipelined path feeds it
/// through an order-restoring frontier
/// ([`OrderedSeriesReducer`](crate::pipeline::OrderedSeriesReducer)).
#[derive(Debug, Clone)]
pub struct SeriesAccumulator {
    series: Vec<RunningStats>,
    finals: std::collections::BTreeMap<usize, f64>,
}

impl SeriesAccumulator {
    /// An empty accumulator over `num_times` recorded times.
    ///
    /// # Panics
    /// Panics when `num_times` is zero — an ensemble run always records at
    /// least its final time.
    pub fn new(num_times: usize) -> Self {
        assert!(num_times >= 1, "need at least one recorded time");
        Self {
            series: vec![RunningStats::new(); num_times],
            finals: std::collections::BTreeMap::new(),
        }
    }

    /// Number of recorded times.
    pub fn num_times(&self) -> usize {
        self.series.len()
    }

    /// Folds one observable sample into the stats of recorded time `sample`;
    /// a sample at the *last* recorded time is also stored as `replica`'s
    /// final value.
    ///
    /// # Panics
    /// Panics when `sample` is out of range or when `replica` already
    /// recorded a final value (each replica passes the final time once).
    pub fn record(&mut self, sample: usize, replica: usize, value: f64) {
        assert!(sample < self.series.len(), "sample index out of range");
        self.series[sample].push(value);
        if sample + 1 == self.series.len() {
            let prev = self.finals.insert(replica, value);
            assert!(
                prev.is_none(),
                "replica {replica} already recorded a final value"
            );
        }
    }

    /// Statistics across replicas at each recorded time.
    pub fn series(&self) -> &[RunningStats] {
        &self.series
    }

    /// Final-time values in ascending replica order.
    pub fn final_values(&self) -> Vec<f64> {
        self.finals.values().copied().collect()
    }

    /// The final-time empirical law across replicas.
    ///
    /// # Panics
    /// Panics when no final values have been recorded yet.
    pub fn law(&self) -> crate::simulate::EmpiricalLaw {
        crate::simulate::EmpiricalLaw::from_samples(self.final_values())
    }

    /// Consumes the accumulator into `(series, final_values)` — the two
    /// fields a `ProfileEnsembleResult` is assembled from.
    pub fn into_series_and_finals(self) -> (Vec<RunningStats>, Vec<f64>) {
        let finals = self.finals.values().copied().collect();
        (self.series, finals)
    }
}

/// A time series of ensemble statistics: one entry per recorded time step.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Name of the observable.
    pub name: String,
    /// Recorded time steps.
    pub times: Vec<u64>,
    /// Statistics across replicas at each recorded step.
    pub stats: Vec<RunningStats>,
}

impl TimeSeries {
    /// Means at each recorded step.
    pub fn means(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean()).collect()
    }

    /// Standard errors at each recorded step.
    pub fn std_errs(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.std_err()).collect()
    }

    /// Renders the series as CSV (`t,mean,std_err,min,max`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,mean,std_err,min,max\n");
        for (t, s) in self.times.iter().zip(&self.stats) {
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

/// Records an observable along an ensemble of independent replicas of the logit
/// dynamics, sampling it at the given `record_times` (which must be increasing).
///
/// Replicas run in parallel, one claim each, on a [`WorkerPool`] sized by
/// [`RuntimeConfig::from_env`] (`LOGIT_WORKERS`), with reproducible
/// per-replica RNG streams — so the series does not depend on the worker
/// count.
pub fn ensemble_time_series<G, U, O>(
    dynamics: &DynamicsEngine<G, U>,
    observable: &O,
    start: usize,
    record_times: &[u64],
    replicas: usize,
    seed: u64,
) -> TimeSeries
where
    G: Game + Sync,
    U: UpdateRule,
    O: Observable + Sync,
{
    assert!(!record_times.is_empty(), "need at least one recording time");
    assert!(
        record_times.windows(2).all(|w| w[0] < w[1]),
        "recording times must be strictly increasing"
    );
    assert!(replicas > 0, "need at least one replica");
    assert!(start < dynamics.num_states(), "start state out of range");

    let space = dynamics.space();
    let config = RuntimeConfig::from_env();
    let mut per_replica: Vec<Vec<f64>> = vec![Vec::new(); replicas];
    WorkerPool::new(&config).for_each_chunk(
        &mut per_replica,
        1,
        config.resolved_workers(),
        &|replica, slot: &mut [Vec<f64>]| {
            let mut rng = ChaCha8Rng::seed_from_u64(
                seed ^ (replica as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            let mut scratch = crate::dynamics::Scratch::for_game(dynamics.game());
            let mut state = start;
            let mut t = 0u64;
            let mut values = Vec::with_capacity(record_times.len());
            for &target in record_times {
                while t < target {
                    state = dynamics.step_indexed(state, &mut scratch, &mut rng);
                    t += 1;
                }
                values.push(observable.evaluate(space, state));
            }
            slot[0] = values;
        },
    );

    let mut stats = vec![RunningStats::new(); record_times.len()];
    for values in &per_replica {
        for (k, &v) in values.iter().enumerate() {
            stats[k].push(v);
        }
    }
    TimeSeries {
        name: observable.name().to_string(),
        times: record_times.to_vec(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::gibbs::expected_potential;
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, WellGame};
    use logit_graphs::GraphBuilder;

    #[test]
    fn observables_evaluate_as_expected() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(4),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let space = game.profile_space();
        let all0 = space.index_of(&[0, 0, 0, 0]);
        let mixed = space.index_of(&[1, 0, 1, 0]);

        let phi = PotentialObservable::new(game.clone());
        assert_eq!(phi.evaluate(&space, all0), -8.0);
        assert_eq!(Observable::name(&phi), "potential");
        // The same observable also serves the profile engine.
        assert_eq!(phi.evaluate_profile(&[0, 0, 0, 0]), -8.0);

        let dist = DistanceToProfile::new(all0, "d(all0)");
        assert_eq!(dist.evaluate(&space, all0), 0.0);
        assert_eq!(dist.evaluate(&space, mixed), 2.0);

        let frac = StrategyFraction::new(1, "adopters");
        assert_eq!(frac.evaluate(&space, all0), 0.0);
        assert_eq!(frac.evaluate(&space, mixed), 0.5);
    }

    #[test]
    fn time_series_has_one_entry_per_recording_time() {
        let game = WellGame::plateau(4, 1.0);
        let dynamics = LogitDynamics::new(game.clone(), 0.5);
        let obs = PotentialObservable::new(game);
        let times = [1u64, 5, 20, 80];
        let series = ensemble_time_series(&dynamics, &obs, 0, &times, 200, 7);
        assert_eq!(series.times, times);
        assert_eq!(series.stats.len(), 4);
        assert!(series.stats.iter().all(|s| s.count() == 200));
        let csv = series.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("t,mean"));
    }

    #[test]
    fn mean_potential_relaxes_towards_the_gibbs_value() {
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::ring(4), CoordinationGame::symmetric(1.0));
        let beta = 1.0;
        let dynamics = LogitDynamics::new(game.clone(), beta);
        let obs = PotentialObservable::new(game.clone());
        let space = game.profile_space();
        // Start from a worst-case (alternating) profile with potential 0.
        let start = space.index_of(&[0, 1, 0, 1]);
        let series = ensemble_time_series(&dynamics, &obs, start, &[1, 8, 64, 512], 3000, 3);
        let means = series.means();
        // Monotone-ish relaxation towards E_pi[Phi].
        let target = expected_potential(&game, beta);
        assert!(
            means[0] > means[3],
            "mean potential should decrease over time"
        );
        assert!(
            (means[3] - target).abs() < 0.15,
            "long-time mean {} should approach the Gibbs expectation {target}",
            means[3]
        );
    }

    #[test]
    fn adoption_fraction_rises_in_a_risk_dominant_game() {
        // Strategy 1 is risk dominant; starting from nobody adopting, the
        // expected adopter fraction increases with time.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(1.0, 2.0),
        );
        let dynamics = LogitDynamics::new(game.clone(), 1.5);
        let obs = StrategyFraction::new(1, "adopters");
        let series = ensemble_time_series(&dynamics, &obs, 0, &[2, 30, 300], 1500, 9);
        let means = series.means();
        assert!(means[2] > means[0]);
        assert!(
            means[2] > 0.7,
            "most players should have adopted by t = 300"
        );
    }

    #[test]
    fn series_accumulator_records_series_and_finals() {
        // Replicas report in reverse order: the per-time stats cover all of
        // them and the finals still come out in replica order.
        let values = [[1.0, -2.0], [4.0, 0.5], [2.5, 3.0], [-1.0, 7.0]];
        let mut acc = SeriesAccumulator::new(2);
        for (replica, row) in values.iter().enumerate().rev() {
            for (sample, &v) in row.iter().enumerate() {
                acc.record(sample, replica, v);
            }
        }
        assert_eq!(acc.num_times(), 2);
        assert_eq!(acc.final_values(), vec![-2.0, 0.5, 3.0, 7.0]);
        let first = &acc.series()[0];
        assert_eq!(first.count(), 4);
        assert_eq!(first.min(), -1.0);
        assert_eq!(first.max(), 4.0);
        let (series, finals) = acc.into_series_and_finals();
        assert_eq!(series.len(), 2);
        assert_eq!(finals, vec![-2.0, 0.5, 3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "already recorded a final value")]
    fn series_accumulator_rejects_duplicate_finals() {
        let mut acc = SeriesAccumulator::new(1);
        acc.record(0, 3, 1.0);
        acc.record(0, 3, 2.0);
    }

    #[test]
    #[should_panic(expected = "does not match the reference length")]
    fn hamming_distance_rejects_a_profile_of_another_length() {
        // A shorter reference must not be compared on the common prefix.
        let obs = HammingToProfile::new(vec![0, 1, 0], "d");
        let _ = obs.evaluate_profile(&[0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_recording_times_rejected() {
        let game = WellGame::plateau(3, 1.0);
        let dynamics = LogitDynamics::new(game.clone(), 1.0);
        let obs = PotentialObservable::new(game);
        let _ = ensemble_time_series(&dynamics, &obs, 0, &[5, 5], 10, 1);
    }
}
