//! # logit-dynamics
//!
//! Facade crate for the reproduction of *"Convergence to Equilibrium of Logit
//! Dynamics for Strategic Games"* (Auletta, Ferraioli, Pasquale, Penna,
//! Persiano; SPAA 2011).
//!
//! Everything is re-exported from the workspace crates so downstream users can
//! depend on a single crate:
//!
//! * [`games`] — strategic games: coordination, graphical coordination, Ising,
//!   congestion, dominant-strategy and lower-bound constructions,
//! * [`graphs`] — social-graph topologies and cutwidth,
//! * [`markov`] — Markov-chain machinery (stationary distributions, exact mixing
//!   times, spectral gaps, bottleneck ratios, hitting times),
//! * [`core`] — the logit dynamics itself: chain construction, Gibbs measures,
//!   simulation, couplings, the barrier ζ and every theorem's closed-form bound,
//! * [`linalg`] — the small numerical substrate underneath it all.
//!
//! ## Quickstart
//!
//! ```
//! use logit_dynamics::prelude::*;
//!
//! // A 2x2 coordination game on a 4-player ring, moderate rationality.
//! let game = GraphicalCoordinationGame::new(
//!     GraphBuilder::ring(4),
//!     CoordinationGame::from_deltas(2.0, 1.0),
//! );
//! let measurement = exact_mixing_time(&game, 1.0, 0.25, 1 << 30);
//! let t_mix = measurement.mixing_time.expect("small game mixes");
//! let bound = bounds::theorem_3_4_mixing_upper(4, 2, 1.0, game.max_global_variation(), 0.25);
//! assert!((t_mix as f64) <= bound);
//! ```

pub use logit_anneal as anneal;
pub use logit_core as core;
pub use logit_games as games;
pub use logit_graphs as graphs;
pub use logit_linalg as linalg;
pub use logit_markov as markov;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use logit_anneal::{
        anneal_minimize, anneal_minimize_with_rule, expected_social_welfare, tempering_minimize,
        AnnealedDynamics, AnnealedLogitDynamics, BetaLadder, BetaSchedule, ConstantSchedule,
        GeometricSchedule, LinearRamp, LogarithmicSchedule,
    };
    pub use logit_core::bounds;
    pub use logit_core::{
        coloring_for_game, exact_mixing_time, exact_mixing_time_with_rule, gibbs_distribution,
        zeta, AllLogit, BarrierResult, ColouredBlocks, CouplingKind, DynamicsEngine, EmpiricalLaw,
        Fermi, ImitateBetter, Logit, LogitDynamics, MetropolisLogit, MixingMeasurement,
        NamedObservable, NoisyBestResponse, ProfileEnsembleResult, ProfileObservable, RandomBlock,
        Scratch, SelectionSchedule, SeriesAccumulator, Simulator, StepEvent, SwapStats,
        SystematicSweep, TemperedEnsembleResult, TemperingEnsemble, TemperingState, UniformSingle,
        UpdateRule,
    };
    pub use logit_games::{
        interaction_graph, AllZeroDominantGame, CongestionGame, CoordinationGame, Game,
        GraphicalCoordinationGame, IsingGame, LocalGame, PotentialGame, ProfileSpace, TableGame,
        TablePotentialGame, WellGame,
    };
    pub use logit_graphs::{
        cutwidth_exact, dsatur_coloring, greedy_coloring, Coloring, Graph, GraphBuilder,
    };
    pub use logit_markov::{
        mixing_time, spectral_analysis, stationary_distribution, total_variation, MarkovChain,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_together() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = LogitDynamics::new(game, 1.0);
        assert_eq!(d.num_states(), 4);
        let chain = d.transition_chain();
        assert!(chain.is_ergodic());
    }

    #[test]
    fn facade_exposes_the_tempering_layer() {
        let game = WellGame::plateau(4, 2.0);
        let ladder = BetaLadder::geometric(0.4, 2.0, 3);
        let ensemble = TemperingEnsemble::new(game.clone(), Logit, ladder.betas());
        assert_eq!(ensemble.num_replicas(), 3);
        let mut state = ensemble.init_state(&[0; 4], 1);
        for _ in 0..10 {
            ensemble.round(&UniformSingle, &mut state, 4);
        }
        assert_eq!(state.swap_stats().pairs(), 2);
        let outcome = tempering_minimize(&game, Logit, &ladder, 0, 20, 4, 8, 1);
        assert_eq!(outcome.replicas, 8);
    }

    #[test]
    fn facade_exposes_the_rule_and_schedule_layer() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = DynamicsEngine::with_rule(game, MetropolisLogit, 1.0);
        assert!(d.transition_chain().is_ergodic());
        assert!(d.transition_chain_all_logit().is_ergodic());
        assert_eq!(d.rule().name(), "metropolis");
        let m = exact_mixing_time_with_rule(
            &CoordinationGame::from_deltas(2.0, 1.0),
            NoisyBestResponse::new(0.2),
            1.0,
            0.25,
            1 << 20,
        );
        assert!(m.mixing_time.is_some());
    }
}
