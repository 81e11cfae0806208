//! Annealing as a potential minimiser.
//!
//! For a potential game, the profiles the Gibbs measure concentrates on as
//! `β → ∞` are exactly the potential minimisers (the "stochastically stable"
//! states). Running the logit dynamics with an *increasing* β schedule is
//! simulated annealing on the potential; this module runs independent annealed
//! replicas in parallel and reports how often they end in a global minimiser —
//! the quantity one would use to compare schedules, and the natural "learning
//! process" experiment suggested in the paper's conclusions.

use crate::annealed::AnnealedDynamics;
use crate::schedule::BetaSchedule;
use logit_core::rules::{Logit, UpdateRule};
use logit_core::{RuntimeConfig, WorkerPool};
use logit_games::PotentialGame;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of an annealing run over many replicas.
#[derive(Debug, Clone)]
pub struct AnnealingOutcome {
    /// Number of replicas.
    pub replicas: usize,
    /// Steps per replica.
    pub steps: u64,
    /// The best (lowest-potential) profile found across all replicas.
    pub best_profile: Vec<usize>,
    /// The potential of the best profile.
    pub best_potential: f64,
    /// The global minimum of the potential (found by enumeration).
    pub global_minimum: f64,
    /// Fraction of replicas whose *final* state is a global minimiser.
    pub success_rate: f64,
    /// Mean final potential across replicas.
    pub mean_final_potential: f64,
}

impl AnnealingOutcome {
    /// Whether the best profile found is a global minimiser (up to `tol`).
    pub fn found_global_minimum(&self, tol: f64) -> bool {
        (self.best_potential - self.global_minimum).abs() <= tol
    }
}

/// Runs `replicas` independent annealed trajectories of `steps` steps from
/// `start` and summarises how well they minimise the potential.
///
/// Replicas run in parallel (one [`WorkerPool`] claim each, the pool sized by
/// [`RuntimeConfig::from_env`]) with independent, reproducible RNG streams
/// derived from `seed`, so the outcome does not depend on the worker count.
pub fn anneal_minimize<G, S>(
    game: &G,
    schedule: S,
    start: usize,
    steps: u64,
    replicas: usize,
    seed: u64,
) -> AnnealingOutcome
where
    G: PotentialGame + Sync + Clone,
    S: BetaSchedule + Sync + Clone,
{
    anneal_minimize_with_rule(game, Logit, schedule, start, steps, replicas, seed)
}

/// [`anneal_minimize`] under an arbitrary [`UpdateRule`]: simulated annealing
/// on the potential through any revision rule (e.g. Metropolis — classical
/// simulated annealing — or noisy best response).
pub fn anneal_minimize_with_rule<G, S, U>(
    game: &G,
    rule: U,
    schedule: S,
    start: usize,
    steps: u64,
    replicas: usize,
    seed: u64,
) -> AnnealingOutcome
where
    G: PotentialGame + Sync + Clone,
    S: BetaSchedule + Sync + Clone,
    U: UpdateRule,
{
    assert!(replicas > 0, "need at least one replica");
    let space = game.profile_space();
    assert!(start < space.size(), "start state out of range");

    // Global minimum via the game's hook (closed form where it has one,
    // enumeration otherwise — these are the exactly-analysable games).
    let mut buf = vec![0usize; game.num_players()];
    let global_minimum = game.min_potential();

    let mut finals = vec![start; replicas];
    for_each_replica(&mut finals, |replica, state| {
        let dynamics = AnnealedDynamics::with_rule(game.clone(), schedule.clone(), rule.clone());
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (replica as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        for t in 0..steps {
            *state = dynamics.step(t, *state, &mut rng);
        }
    });

    let tol = 1e-9;
    let mut best_idx = finals[0];
    let mut best_potential = f64::INFINITY;
    let mut successes = 0usize;
    let mut total_potential = 0.0;
    for &idx in &finals {
        space.write_profile(idx, &mut buf);
        let phi = game.potential(&buf);
        total_potential += phi;
        if phi < best_potential {
            best_potential = phi;
            best_idx = idx;
        }
        if (phi - global_minimum).abs() <= tol {
            successes += 1;
        }
    }

    AnnealingOutcome {
        replicas,
        steps,
        best_profile: space.profile_of(best_idx),
        best_potential,
        global_minimum,
        success_rate: successes as f64 / replicas as f64,
        mean_final_potential: total_potential / replicas as f64,
    }
}

/// Replica-exchange as a potential minimiser — the tempering counterpart of
/// [`anneal_minimize`], sharing its [`AnnealingOutcome`] report so the two
/// strategies compare row for row.
///
/// Runs `ensembles` independent `logit_core::TemperingEnsemble`s over the
/// given [`BetaLadder`](crate::schedule::BetaLadder) for `rounds` rounds of
/// `sweep_ticks` ticks each (uniform single-player selection), and scores the
/// **cold** replica's final profile of every ensemble. Where annealing visits
/// the temperature ladder *in time* (and can freeze in a local minimum once β
/// has grown), tempering keeps every temperature alive and lets barrier
/// crossings made by the hot rungs propagate to the cold one through swaps —
/// on well-style potentials this is the difference between `e^{βΔΦ}` and
/// polynomial escape (experiment E13).
///
/// `AnnealingOutcome::steps` reports total engine ticks per ensemble
/// (`rounds · sweep_ticks · K`), so step budgets are comparable with
/// [`anneal_minimize`]'s single-chain `steps`.
#[allow(clippy::too_many_arguments)]
pub fn tempering_minimize<G, U>(
    game: &G,
    rule: U,
    ladder: &crate::schedule::BetaLadder,
    start: usize,
    rounds: u64,
    sweep_ticks: u64,
    ensembles: usize,
    seed: u64,
) -> AnnealingOutcome
where
    G: PotentialGame + Send + Sync + Clone,
    U: logit_core::rules::UpdateRule,
{
    use logit_core::schedules::UniformSingle;
    use logit_core::TemperingEnsemble;

    assert!(ensembles > 0, "need at least one ensemble");
    let space = game.profile_space();
    assert!(start < space.size(), "start state out of range");
    let start_profile = space.profile_of(start);
    let global_minimum = game.min_potential();

    let ensemble = TemperingEnsemble::new(game.clone(), rule, ladder.betas());
    let mut finals: Vec<Vec<usize>> = vec![Vec::new(); ensembles];
    for_each_replica(&mut finals, |e, cold| {
        let mut state = ensemble.init_state(
            &start_profile,
            seed ^ (e as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        for _ in 0..rounds {
            ensemble.round(&UniformSingle, &mut state, sweep_ticks);
        }
        *cold = state.cold_profile().to_vec();
    });

    let tol = 1e-9;
    let mut best_profile = finals[0].clone();
    let mut best_potential = f64::INFINITY;
    let mut successes = 0usize;
    let mut total_potential = 0.0;
    for profile in &finals {
        let phi = game.potential(profile);
        total_potential += phi;
        if phi < best_potential {
            best_potential = phi;
            best_profile = profile.clone();
        }
        if (phi - global_minimum).abs() <= tol {
            successes += 1;
        }
    }

    AnnealingOutcome {
        replicas: ensembles,
        steps: rounds * sweep_ticks * ladder.len() as u64,
        best_profile,
        best_potential,
        global_minimum,
        success_rate: successes as f64 / ensembles as f64,
        mean_final_potential: total_potential / ensembles as f64,
    }
}

/// Runs `replica(r, &mut slots[r])` for every `r` on a [`WorkerPool`]
/// sized by [`RuntimeConfig::from_env`] (`LOGIT_WORKERS`), one claim per
/// replica, so the slots come back in replica order whatever thread ran
/// them.
fn for_each_replica<T: Send>(slots: &mut [T], replica: impl Fn(usize, &mut T) + Sync) {
    let config = RuntimeConfig::from_env();
    WorkerPool::new(&config).for_each_chunk(
        slots,
        1,
        config.resolved_workers(),
        &|r, slot: &mut [T]| replica(r, &mut slot[0]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{BetaLadder, ConstantSchedule, GeometricSchedule, LinearRamp};
    use logit_games::{CoordinationGame, Game, GraphicalCoordinationGame, WellGame};
    use logit_graphs::GraphBuilder;

    #[test]
    fn annealing_finds_the_risk_dominant_consensus() {
        // Ring coordination with delta0 > delta1: the unique potential minimiser
        // is the all-zero consensus. Start from the competing equilibrium.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let space = game.profile_space();
        let start = space.index_of(&[1, 1, 1, 1, 1]);
        let outcome = anneal_minimize(&game, LinearRamp::new(0.1, 4.0, 400), start, 800, 64, 7);
        assert!(outcome.found_global_minimum(1e-9));
        assert_eq!(outcome.best_profile, vec![0, 0, 0, 0, 0]);
        assert!(
            outcome.success_rate > 0.7,
            "most replicas should land in the minimiser"
        );
    }

    #[test]
    fn slow_heating_beats_quenching_on_the_well_game() {
        // Quenching (immediately large beta) freezes replicas in whichever well
        // they start in; a ramp lets them cross the ridge first. Start at the
        // ridge-adjacent profile inside the *shallow* basin w >= 2c... for the
        // plateau well both basins are equally deep, so instead compare success
        // of reaching *some* minimiser: both should succeed; the interesting
        // comparison is mean final potential from the ridge.
        let game = WellGame::new(6, 4.0, 2.0);
        let space = game.profile_space();
        // Start on the ridge (weight = c = 2).
        let start = space.index_of(&[1, 1, 0, 0, 0, 0]);
        let ramp = anneal_minimize(&game, LinearRamp::new(0.0, 3.0, 300), start, 600, 48, 11);
        let quench = anneal_minimize(&game, ConstantSchedule::new(3.0), start, 600, 48, 11);
        // Both reach a minimiser eventually from the ridge (it is downhill both
        // ways), so check the outcome structure rather than a strict ordering.
        assert!(ramp.found_global_minimum(1e-9));
        assert!(quench.found_global_minimum(1e-9));
        assert!(ramp.mean_final_potential <= 0.0);
        assert_eq!(ramp.global_minimum, -4.0);
    }

    #[test]
    fn geometric_schedule_with_high_cap_freezes_in_a_minimiser() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::path(4),
            CoordinationGame::from_deltas(1.5, 1.0),
        );
        let outcome = anneal_minimize(
            &game,
            GeometricSchedule::new(0.2, 1.3, 20, 6.0),
            0,
            600,
            32,
            3,
        );
        // Start is already the all-zero minimiser; everything should stay there.
        assert!(outcome.success_rate > 0.9);
        assert_eq!(outcome.best_profile, vec![0, 0, 0, 0]);
    }

    #[test]
    fn metropolis_annealing_is_classical_simulated_annealing() {
        use logit_core::rules::MetropolisLogit;
        // The Metropolis rule with a rising beta schedule is textbook
        // simulated annealing on the potential; it should find the
        // risk-dominant consensus just like the logit rule does.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let space = game.profile_space();
        let start = space.index_of(&[1, 1, 1, 1, 1]);
        let outcome = anneal_minimize_with_rule(
            &game,
            MetropolisLogit,
            LinearRamp::new(0.1, 4.0, 400),
            start,
            1200,
            64,
            7,
        );
        assert!(outcome.found_global_minimum(1e-9));
        assert_eq!(outcome.best_profile, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn outcome_reports_are_consistent() {
        let game = WellGame::plateau(4, 1.0);
        let outcome = anneal_minimize(&game, ConstantSchedule::new(1.0), 0, 100, 16, 1);
        assert_eq!(outcome.replicas, 16);
        assert_eq!(outcome.steps, 100);
        assert!(outcome.best_potential >= outcome.global_minimum - 1e-12);
        assert!(outcome.mean_final_potential >= outcome.best_potential - 1e-12);
        assert!((0.0..=1.0).contains(&outcome.success_rate));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let game = WellGame::plateau(3, 1.0);
        let _ = anneal_minimize(&game, ConstantSchedule::new(1.0), 0, 10, 0, 1);
    }

    #[test]
    fn tempering_minimize_finds_the_risk_dominant_consensus() {
        use logit_core::rules::Logit;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let space = game.profile_space();
        let start = space.index_of(&[1, 1, 1, 1, 1]);
        let ladder = BetaLadder::geometric(0.3, 4.0, 4);
        let outcome = tempering_minimize(&game, Logit, &ladder, start, 60, 5, 32, 9);
        assert!(outcome.found_global_minimum(1e-9));
        assert_eq!(outcome.best_profile, vec![0, 0, 0, 0, 0]);
        assert_eq!(outcome.replicas, 32);
        assert_eq!(outcome.steps, 60 * 5 * 4);
        assert!(
            outcome.success_rate > 0.7,
            "most cold replicas should land in the minimiser (got {})",
            outcome.success_rate
        );
    }

    #[test]
    fn tempering_report_is_comparable_with_annealing() {
        // Same game, same start (on the ridge), comparable step budgets: both
        // minimisers fill the shared AnnealingOutcome report.
        use logit_core::rules::MetropolisLogit;
        let game = WellGame::new(6, 4.0, 2.0);
        let space = game.profile_space();
        let start = space.index_of(&[1, 1, 0, 0, 0, 0]);
        let ladder = BetaLadder::geometric(0.2, 3.0, 4);
        let tempered = tempering_minimize(&game, MetropolisLogit, &ladder, start, 40, 4, 24, 11);
        let annealed = anneal_minimize_with_rule(
            &game,
            MetropolisLogit,
            LinearRamp::new(0.0, 3.0, 300),
            start,
            tempered.steps,
            24,
            11,
        );
        assert!(tempered.found_global_minimum(1e-9));
        assert!(annealed.found_global_minimum(1e-9));
        assert_eq!(tempered.global_minimum, annealed.global_minimum);
        assert!(tempered.mean_final_potential <= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one ensemble")]
    fn zero_tempering_ensembles_rejected() {
        use logit_core::rules::Logit;
        let game = WellGame::plateau(3, 1.0);
        let ladder = BetaLadder::geometric(0.5, 1.0, 2);
        let _ = tempering_minimize(&game, Logit, &ladder, 0, 5, 2, 0, 1);
    }
}
