//! Property-based tests for the game substrate.

use logit_games::analysis::{best_response_dynamics, is_pure_nash, verify_exact_potential};
use logit_games::{
    CoordinationGame, Game, GraphicalCoordinationGame, IsingGame, PotentialGame, ProfileSpace,
    TablePotentialGame, WellGame,
};
use logit_graphs::{CsrGraph, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Strategy producing a random small graph (as `n` and a loop-free edge
/// list) with a strategy profile on it.
fn small_graph_and_profile() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<usize>)> {
    (1usize..9).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n), 0..24),
            prop::collection::vec(0usize..2, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both graph games read the CSR they hold exactly as the adjacency
    /// lists were read. The graphical potential is its count form
    /// `-(c₀₀·δ₀ + c₁₁·δ₁)` bit for bit. Against the sum of `φ(x_u, x_v)`
    /// over `Graph::edges()` in its lexicographic order it is equal bit for
    /// bit on integer payoffs, and otherwise within `(|E| + 2)·ε` relative:
    /// that sum of `|E|` terms of one sign rounds at most `|E| − 1` times,
    /// the count form three times. The Ising potential equals its
    /// edge-order sum bit for bit, and every utility a sum over the
    /// player's neighbour row.
    #[test]
    fn graph_games_sum_in_the_graph_order(
        (n, raw, profile) in small_graph_and_profile(),
        d0 in 0.5f64..3.0,
        d1 in 0.5f64..3.0,
        field in -1.0f64..1.0,
        whole_d0 in 1u32..6,
        whole_d1 in 1u32..6,
    ) {
        let edges: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
        let graph = Graph::from_edges(n, &edges);
        let x = &profile;
        let m = graph.num_edges();

        let edge_sum = |base: CoordinationGame| -> f64 {
            graph.edges().map(|(u, v)| base.edge_potential(x[u], x[v])).sum()
        };
        let matched = |s: usize| graph.edges().filter(|&(u, v)| x[u] == s && x[v] == s).count();
        let count_form = |base: CoordinationGame| -> f64 {
            match (matched(0), matched(1)) {
                (0, 0) if m == 0 => -0.0,
                (0, 0) => 0.0,
                (c00, c11) => -(c00 as f64 * base.delta0() + c11 as f64 * base.delta1()),
            }
        };

        let base = CoordinationGame::from_deltas(d0, d1);
        let coord = GraphicalCoordinationGame::new(graph.clone(), base);
        let potential = coord.potential(x);
        prop_assert_eq!(potential.to_bits(), count_form(base).to_bits());
        let reference = edge_sum(base);
        prop_assert!(
            (potential - reference).abs() <= (m + 2) as f64 * f64::EPSILON * reference.abs(),
            "count form {} drifted from the edge-order sum {}", potential, reference
        );
        let whole = CoordinationGame::from_deltas(whole_d0.into(), whole_d1.into());
        let whole_game = GraphicalCoordinationGame::new(graph.clone(), whole);
        prop_assert_eq!(whole_game.potential(x).to_bits(), edge_sum(whole).to_bits());

        let ising = IsingGame::new(graph.clone(), d0, field);
        let spin = IsingGame::spin;
        let edge_term: f64 = graph.edges().map(|(u, v)| spin(x[u]) * spin(x[v])).sum();
        let magnetization: f64 = x.iter().map(|&s| spin(s)).sum();
        let potential = -d0 * edge_term - field * magnetization;
        prop_assert_eq!(ising.potential(x).to_bits(), potential.to_bits());

        for i in 0..n {
            let row = graph.neighbors(i);
            let utility: f64 = row.iter().map(|&j| base.payoff(x[i], x[j])).sum();
            prop_assert_eq!(coord.utility(i, x).to_bits(), utility.to_bits());
            let si = spin(x[i]);
            let neighbour_sum: f64 = row.iter().map(|&j| spin(x[j])).sum();
            let utility = d0 * si * neighbour_sum + field * si;
            prop_assert_eq!(ising.utility(i, x).to_bits(), utility.to_bits());
        }
    }

    /// Any potential table yields an exact potential game, and the global
    /// variation always dominates the local variation.
    #[test]
    fn table_potential_games_are_exact(seed in 0u64..10_000, n in 2usize..4, m in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = TablePotentialGame::random(vec![m; n], 5.0, &mut rng);
        prop_assert!(verify_exact_potential(&g, 1e-9));
        prop_assert!(g.max_global_variation() + 1e-12 >= g.max_local_variation());
        prop_assert!(g.max_local_variation() >= 0.0);
    }

    /// Best-response dynamics converges to a pure Nash equilibrium in every
    /// potential game (finite improvement property).
    #[test]
    fn best_response_converges_in_potential_games(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = TablePotentialGame::random(vec![2, 2, 3], 3.0, &mut rng);
        let (profile, converged) = best_response_dynamics(&g, &[0, 0, 0], 200);
        prop_assert!(converged);
        prop_assert!(is_pure_nash(&g, &profile));
    }

    /// Graphical coordination games: the potential of any profile is between the
    /// potential of the two consensus profiles... more precisely it is at least
    /// -|E|·max(δ0,δ1) and at most 0, and the consensus profiles are Nash.
    #[test]
    fn graphical_coordination_invariants(
        n in 3usize..7,
        d0 in 0.5f64..3.0,
        d1 in 0.5f64..3.0,
        profile_bits in 0usize..128,
    ) {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(n),
            CoordinationGame::from_deltas(d0, d1),
        );
        let edges = game.csr().num_edges() as f64;
        let space = game.profile_space();
        let idx = profile_bits % space.size();
        let profile = space.profile_of(idx);
        let phi = game.potential(&profile);
        prop_assert!(phi <= 1e-12);
        prop_assert!(phi >= -edges * d0.max(d1) - 1e-12);
        prop_assert!(is_pure_nash(&game, &vec![0usize; n]));
        prop_assert!(is_pure_nash(&game, &vec![1usize; n]));
    }

    /// The well game's variations equal the requested (global, local) pair
    /// whenever the Theorem 3.5 constraints hold.
    #[test]
    fn well_game_variations(n in 4usize..9, l in 1.0f64..3.0, mult in 1usize..3) {
        let g_total = l * mult as f64; // global = local * integer c keeps c <= n/2 for mult <= 2, n >= 4
        prop_assume!(g_total / l <= n as f64 / 2.0);
        let game = WellGame::new(n, g_total, l);
        prop_assert!((game.max_global_variation() - g_total).abs() < 1e-9);
        prop_assert!((game.max_local_variation() - l).abs() < 1e-9);
        prop_assert!(verify_exact_potential(&game, 1e-9));
    }

    /// Profile space round-trips and Hamming-distance symmetry.
    #[test]
    fn profile_space_roundtrip(sizes in prop::collection::vec(2usize..4, 1..5), a in 0usize..500, b in 0usize..500) {
        let space = ProfileSpace::new(sizes);
        let ia = a % space.size();
        let ib = b % space.size();
        prop_assert_eq!(space.index_of(&space.profile_of(ia)), ia);
        prop_assert_eq!(space.hamming_distance(ia, ib), space.hamming_distance(ib, ia));
        prop_assert_eq!(space.hamming_distance(ia, ia), 0);
    }
}

/// Checks the count-row contract of `game`'s kernel, and that `retally`
/// from a mover's `(degree, ones)` turns the tally of `profile` into the
/// tally of the profile with that player flipped, for every player.
fn check_count_rows<G: PotentialGame>(game: &G, profile: &[usize]) -> Result<(), TestCaseError> {
    let kernel = game
        .count_kernel()
        .expect("graph games expose a count kernel");
    let n = game.num_players();
    let mut lengths: Vec<u32> = (0..n).map(|i| kernel.count_row(i).len() as u32).collect();
    lengths.sort_unstable();
    lengths.dedup();
    prop_assert_eq!(kernel.row_lengths(), &lengths[..]);
    let offsets = kernel.row_offsets();
    prop_assert_eq!(offsets.len(), n + 1);
    for i in 0..n {
        prop_assert_eq!(
            (offsets[i + 1] - offsets[i]) as usize,
            kernel.count_row(i).len()
        );
    }
    for i in 0..n {
        let row = kernel.count_row(i);
        for &j in row {
            let j = j as usize;
            prop_assert!(i != j, "player {} is in her own row", i);
            let twice = |a: usize, b: usize| {
                kernel
                    .count_row(a)
                    .iter()
                    .filter(|&&k| k as usize == b)
                    .count()
            };
            prop_assert_eq!(twice(i, j), twice(j, i), "rows of {} and {} disagree", i, j);
        }
        let ones = row.iter().map(|&j| profile[j as usize]).sum();
        let mut tally = game.tally(profile).expect("graph games keep a tally");
        game.retally(&mut tally, profile[i], row.len(), ones);
        let mut flipped = profile.to_vec();
        flipped[i] ^= 1;
        prop_assert_eq!(Some(tally), game.tally(&flipped), "player {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both count-kernel implementors meet the row contract the
    /// neighbour-count words rely on, on random graphs with isolated
    /// players and mixed degrees: rows are symmetric and loop-free, the
    /// row lengths are listed once each, and the row offsets give every
    /// row's length. A tally moved by `retally`
    /// from the mover's degree and ones is the full count after the move.
    #[test]
    fn count_rows_are_symmetric_and_retally_is_exact(
        seed in 0u64..10_000,
        n in 1usize..24,
        p in 0.0f64..0.7,
        d0 in 0.1f64..3.0,
        d1 in 0.1f64..3.0,
        field in -1.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::erdos_renyi(n, p, &mut rng);
        let profile: Vec<usize> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, 0..2usize)).collect();
        let coord = GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(d0, d1));
        check_count_rows(&coord, &profile)?;
        check_count_rows(&IsingGame::new(graph, 0.8, field), &profile)?;
    }
}

/// Graph games built on a shared CSR keep sharing it through `clone()`.
#[test]
fn graph_games_and_their_clones_share_one_csr() {
    let csr: Arc<CsrGraph> = GraphBuilder::torus(3, 4).into();
    let coord = GraphicalCoordinationGame::new(Arc::clone(&csr), CoordinationGame::symmetric(1.0));
    let ising = IsingGame::zero_field(Arc::clone(&csr), 0.5);
    for game_csr in [
        coord.csr(),
        coord.clone().csr(),
        ising.csr(),
        ising.clone().csr(),
    ] {
        assert!(std::ptr::eq(game_csr, &*csr));
    }
}

/// `rows_address` names the rows a count kernel reads: the graph games
/// report their shared CSR, so games and clones on one graph agree (an
/// ensemble may feed one's tally from the other's neighbour counts), and a
/// second build of the same graph, or another graph, does not.
#[test]
fn count_kernels_report_the_rows_they_read() {
    let csr: Arc<CsrGraph> = GraphBuilder::torus(3, 4).into();
    let coord = GraphicalCoordinationGame::new(Arc::clone(&csr), CoordinationGame::symmetric(1.0));
    let ising = IsingGame::new(Arc::clone(&csr), 0.5, 0.2);
    let address = |game: &dyn Game| {
        game.count_kernel()
            .expect("graph games have a count kernel")
            .rows_address()
    };
    let shared = Arc::as_ptr(&csr).cast::<()>();
    for game in [&coord as &dyn Game, &coord.clone(), &ising, &ising.clone()] {
        assert_eq!(address(game), shared);
    }
    let rebuilt =
        GraphicalCoordinationGame::new(GraphBuilder::torus(3, 4), CoordinationGame::symmetric(1.0));
    let other = IsingGame::new(GraphBuilder::ring(12), 0.5, 0.2);
    assert_ne!(address(&rebuilt), shared);
    assert_ne!(address(&other), shared);
}
