//! Technology adoption on a social network (the paper's motivating scenario).
//!
//! ```text
//! cargo run --release --example technology_adoption
//! ```
//!
//! Graphical coordination games model the diffusion of a new technology
//! (Peyton Young, Ellison, Montanari–Saberi): strategy 1 is the *new* technology
//! and is risk dominant (δ₁ > δ₀), strategy 0 the incumbent. Everyone starts on
//! the incumbent; the logit dynamics describes boundedly rational users
//! occasionally re-evaluating their choice.
//!
//! The example contrasts a ring (local interaction) with a clique (global
//! interaction):
//!
//! * stationary behaviour: the Gibbs measure concentrates on everybody adopting
//!   the new technology,
//! * convergence: the *expected hitting time* of the all-adopt profile and the
//!   mixing time grow mildly on the ring but explode with β on the clique —
//!   local interaction spreads innovations faster, exactly the qualitative
//!   message of Section 5.

use logit_dynamics::core::gibbs::gibbs_distribution;
use logit_dynamics::markov::expected_hitting_times;
use logit_dynamics::prelude::*;

fn adoption_report(name: &str, game: &GraphicalCoordinationGame, betas: &[f64]) {
    let n = game.num_players();
    let space = game.profile_space();
    let incumbent = space.index_of(&vec![0usize; n]);
    let adopted = space.index_of(&vec![1usize; n]);

    println!(
        "--- {name} ({n} players, {} edges) ---",
        game.csr().num_edges()
    );
    println!(
        "{:>6} {:>18} {:>18} {:>14}",
        "beta", "pi(all adopt)", "E[hit all-adopt]", "t_mix(1/4)"
    );
    for &beta in betas {
        let dynamics = LogitDynamics::new(game.clone(), beta);
        let chain = dynamics.transition_chain();
        let pi = gibbs_distribution(game, beta);
        let hit = expected_hitting_times(&chain, &[adopted]);
        let m = exact_mixing_time(game, beta, 0.25, 1 << 34);
        println!(
            "{:>6.2} {:>18.6} {:>18.1} {:>14}",
            beta,
            pi[adopted],
            hit[incumbent],
            m.mixing_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| "> budget".into()),
        );
    }
    println!();
}

fn main() {
    // The new technology is better: adopting it against an adopter pays 2,
    // sticking with the incumbent against an incumbent pays 1.
    let base = CoordinationGame::from_deltas(1.0, 2.0);
    let n = 5;
    let betas = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0];

    let (ring_graph, clique_graph) = (GraphBuilder::ring(n), GraphBuilder::clique(n));
    let ring = GraphicalCoordinationGame::new(ring_graph.clone(), base);
    let clique = GraphicalCoordinationGame::new(clique_graph.clone(), base);

    println!("Diffusion of a risk-dominant technology (delta0 = 1, delta1 = 2)\n");
    adoption_report("ring (local interaction)", &ring, &betas);
    adoption_report("clique (global interaction)", &clique, &betas);

    println!("Take-away: on both topologies the stationary distribution eventually");
    println!("concentrates on full adoption, but on the clique the time to get there");
    println!("grows exponentially with beta (the barrier is Theta(n^2)), while on the");
    println!("ring it stays modest — local interaction is what makes diffusion fast.");

    // Also report the cutwidths driving the Theorem 5.1 bound.
    let chi_ring = cutwidth_exact(&ring_graph).cutwidth;
    let chi_clique = cutwidth_exact(&clique_graph).cutwidth;
    println!();
    println!("cutwidths: ring = {chi_ring}, clique = {chi_clique} (Theorem 5.1 exponent is proportional to these)");
}
