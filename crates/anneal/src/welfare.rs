//! Stationary expected social welfare.
//!
//! Reference \[4\] of the paper ("Mixing time and stationary expected social
//! welfare of logit dynamics", SAGT 2010) studies the expected social welfare
//! `E_π[Σ_i u_i(X)]` of the stationary distribution as a performance measure of
//! the dynamics. This module computes it exactly from the Gibbs measure of a
//! potential game, compares it against the optimal welfare, and provides the
//! welfare ratio (the stationary analogue of the price of anarchy).

use logit_core::gibbs_distribution;
use logit_games::{analysis::social_welfare, Game, PotentialGame};

/// Expected social welfare under the stationary (Gibbs) distribution at
/// inverse noise `β`: `E_{π_β}[Σ_i u_i(X)]`.
pub fn expected_social_welfare<G: PotentialGame>(game: &G, beta: f64) -> f64 {
    let space = game.profile_space();
    let pi = gibbs_distribution(game, beta);
    let mut buf = vec![0usize; game.num_players()];
    space
        .indices()
        .map(|idx| {
            space.write_profile(idx, &mut buf);
            pi[idx] * social_welfare(game, &buf)
        })
        .sum()
}

/// The optimal (maximum) social welfare over all profiles, with a witnessing
/// profile.
pub fn optimal_social_welfare<G: Game>(game: &G) -> (f64, Vec<usize>) {
    let space = game.profile_space();
    let mut buf = vec![0usize; game.num_players()];
    let mut best = f64::NEG_INFINITY;
    let mut best_profile = vec![0usize; game.num_players()];
    for idx in space.indices() {
        space.write_profile(idx, &mut buf);
        let w = social_welfare(game, &buf);
        if w > best {
            best = w;
            best_profile.copy_from_slice(&buf);
        }
    }
    (best, best_profile)
}

/// The ratio `E_π[welfare] / optimal welfare` at inverse noise `β`.
///
/// For games whose welfare can be negative or zero this ratio is not meaningful;
/// the function returns `None` when the optimal welfare is not strictly positive.
pub fn welfare_ratio<G: PotentialGame>(game: &G, beta: f64) -> Option<f64> {
    let (opt, _) = optimal_social_welfare(game);
    if opt <= 0.0 {
        return None;
    }
    Some(expected_social_welfare(game, beta) / opt)
}

/// Expected social welfare at β = ∞ restricted to the potential minimisers
/// (the stochastically stable states), i.e. the average welfare over the set of
/// global potential minimisers. This is the limit of
/// [`expected_social_welfare`] as `β → ∞` when all minimisers are tied.
pub fn limit_welfare_at_infinite_beta<G: PotentialGame>(game: &G) -> f64 {
    let space = game.profile_space();
    let mut buf = vec![0usize; game.num_players()];
    let mut min_phi = f64::INFINITY;
    for idx in space.indices() {
        space.write_profile(idx, &mut buf);
        min_phi = min_phi.min(game.potential(&buf));
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for idx in space.indices() {
        space.write_profile(idx, &mut buf);
        if (game.potential(&buf) - min_phi).abs() <= 1e-9 {
            total += social_welfare(game, &buf);
            count += 1;
        }
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, WellGame};
    use logit_graphs::GraphBuilder;

    fn ring_game() -> GraphicalCoordinationGame {
        GraphicalCoordinationGame::new(
            GraphBuilder::ring(4),
            CoordinationGame::new(2.0, 1.0, 0.0, 0.0),
        )
    }

    #[test]
    fn optimal_welfare_is_the_risk_dominant_consensus() {
        let game = ring_game();
        let (opt, profile) = optimal_social_welfare(&game);
        // Everyone matching on 0: each of 4 players earns a=2 from both neighbours.
        assert_eq!(profile, vec![0, 0, 0, 0]);
        assert_eq!(opt, 16.0);
    }

    #[test]
    fn welfare_increases_with_beta_for_coordination_games() {
        let game = ring_game();
        let w0 = expected_social_welfare(&game, 0.0);
        let w1 = expected_social_welfare(&game, 1.0);
        let w3 = expected_social_welfare(&game, 3.0);
        assert!(
            w1 > w0,
            "more rationality should raise welfare: {w0} -> {w1}"
        );
        assert!(w3 > w1);
        // And it converges to the optimum because the risk-dominant consensus is
        // also the welfare-optimal profile here.
        assert!((limit_welfare_at_infinite_beta(&game) - 16.0).abs() < 1e-9);
        assert!(w3 <= 16.0 + 1e-9);
    }

    #[test]
    fn welfare_ratio_in_unit_interval_and_monotone() {
        let game = ring_game();
        let r_low = welfare_ratio(&game, 0.2).unwrap();
        let r_high = welfare_ratio(&game, 2.0).unwrap();
        assert!(r_low > 0.0 && r_low <= 1.0);
        assert!(r_high > r_low);
        assert!(r_high <= 1.0 + 1e-12);
    }

    #[test]
    fn welfare_ratio_none_for_nonpositive_optimum() {
        // The well game is an identical-interest game with utilities -Phi <= ... its
        // maximum welfare is n * (-Phi_min) = positive; construct a game with zero
        // optimum instead: a well game where the best utility is 0.
        let game = WellGame::plateau(3, 1.0);
        // Optimal welfare: profiles at the ridge have potential 0 => utility 0 each,
        // wells have potential -1 => utility +1 each... wait utilities are -Phi, so
        // the wells give +1 per player: the optimum is positive here.
        assert!(welfare_ratio(&game, 1.0).is_some());

        // A genuinely non-positive-welfare game: the Theorem 4.3 game (utilities 0 or -1).
        let dominant = logit_games::AllZeroDominantGame::new(2, 2);
        assert!(welfare_ratio(&dominant, 1.0).is_none());
    }

    #[test]
    fn limit_welfare_averages_tied_minimisers() {
        // Symmetric coordination game: both consensus profiles are potential
        // minimisers with equal welfare, so the limit is that common value.
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::ring(4), CoordinationGame::symmetric(1.0));
        let limit = limit_welfare_at_infinite_beta(&game);
        assert!((limit - 8.0).abs() < 1e-9); // 4 players x 2 neighbours x payoff 1
    }
}
