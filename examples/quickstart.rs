//! Quickstart: build a game, run the logit dynamics, measure convergence.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds a graphical coordination game on a 5-player ring, sweeps
//! the inverse noise β, and prints the exact mixing time next to the paper's
//! Theorem 3.4 (all β) and Theorem 5.6 (ring) upper bounds.

use logit_dynamics::prelude::*;

fn main() {
    let n = 5;
    let delta = 1.0;
    // No risk-dominant equilibrium: δ0 = δ1 = δ (the Ising-like case of §5.3).
    let game =
        GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::symmetric(delta));
    let delta_phi = game.max_global_variation();
    let epsilon = 0.25;

    println!("Logit dynamics on a {n}-player ring coordination game (delta = {delta})");
    println!(
        "state space: {} profiles, delta_phi = {delta_phi}",
        game.num_profiles()
    );
    println!();
    println!(
        "{:>6} {:>12} {:>14} {:>16} {:>16}",
        "beta", "t_mix(1/4)", "t_relax", "Thm 3.4 bound", "Thm 5.6 bound"
    );

    for beta in [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
        let m = exact_mixing_time(&game, beta, epsilon, 1 << 34);
        let t34 = bounds::theorem_3_4_mixing_upper(n, 2, beta, delta_phi, epsilon);
        let t56 = bounds::theorem_5_6_mixing_upper(n, delta, beta, epsilon);
        println!(
            "{:>6.2} {:>12} {:>14.2} {:>16.1} {:>16.1}",
            beta,
            m.mixing_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "> budget".into()),
            m.relaxation_time,
            t34,
            t56
        );
    }

    println!();
    println!("The measured mixing time always sits below both upper bounds, and for");
    println!("the ring the Theorem 5.6 bound (exponential in 2*delta*beta) is far");
    println!("tighter than the generic Theorem 3.4 bound (exponential in beta*delta_phi).");

    // A short simulation from the all-ones profile, watching the potential drop.
    let beta = 1.5;
    let dynamics = LogitDynamics::new(game.clone(), beta);
    let space = dynamics.space().clone();
    let start = space.index_of(&vec![1usize; n]);
    let sim = Simulator::new(7, 2000);
    let game_for_obs = game.clone();
    let result = sim.run(&dynamics, start, 200, move |idx| {
        game_for_obs.potential(&space.profile_of(idx))
    });
    println!();
    println!(
        "simulation at beta = {beta}: mean potential after 200 steps = {:.3} (minimum possible {:.3})",
        result.observable_stats.mean(),
        -(game.csr().num_edges() as f64) * delta
    );

    // Swapping the update rule is one constructor away: the Metropolis chain
    // shares the Gibbs stationary distribution but mixes through a different
    // kernel, and noisy best response replaces beta-noise with epsilon-mutation.
    println!();
    println!("same game, other revision rules (exact mixing time at beta = {beta}):");
    let metro = exact_mixing_time_with_rule(&game, MetropolisLogit, beta, epsilon, 1 << 34);
    let nbr =
        exact_mixing_time_with_rule(&game, NoisyBestResponse::new(0.1), beta, epsilon, 1 << 34);
    for (name, m) in [("metropolis", metro), ("nbr(0.10)", nbr)] {
        println!(
            "  {name:>10}: t_mix = {}",
            m.mixing_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "> budget".into())
        );
    }

    // The parallel all-logit block schedule is its own exact chain.
    let all_logit_chain = dynamics.transition_chain_all_logit();
    println!(
        "  all-logit block chain: ergodic = {} ({} states, one block = {n} updates)",
        all_logit_chain.is_ergodic(),
        all_logit_chain.num_states()
    );
}
