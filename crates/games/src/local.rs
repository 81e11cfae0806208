//! Locality structure of games: the [`LocalGame`] trait.
//!
//! In every game the paper simulates at scale, a player's utility depends
//! only on her own strategy and the strategies of a small *neighbourhood* —
//! graph neighbours for graphical coordination and Ising games, players
//! sharing a resource for congestion games. The flat-index simulation engine
//! cannot exploit this (decoding a flat state index is `O(n)` and the index
//! itself overflows `usize` beyond ~60 binary players); the in-place profile
//! engine in `logit-core` can: one logit update of a [`LocalGame`] costs
//! `O(|S_i| + deg(i))` work, independent of both `n` and `|S|`.
//!
//! The contract: `utility(i, x)` and `utilities_for(i, x, out)` read only
//! `x[i]` and `x[j]` for `j ∈ neighbors_of(i)`. The proptest suite checks
//! this by perturbing strategies outside the neighbourhood.
//!
//! Locality is also what makes **parallel revision** correct: two
//! non-neighbouring players' single-tick updates commute, so a whole
//! independent set of the interaction graph can revise simultaneously. Two
//! hooks serve that path: [`LocalGame::utilities_for_frozen_bytes`] (a
//! read-only batch evaluation against a byte profile, so parallel workers
//! can share the frozen pre-tick profile immutably) and [`interaction_graph`]
//! (the bridge that turns any `LocalGame`'s neighbourhood structure into a
//! `logit_graphs::Graph`, ready for the colouring algorithms in
//! `logit-graphs`).
//!
//! Neighbourhoods are `u32` player ids: the graph-backed games hand out the
//! rows of the one shared CSR adjacency they hold, with no second copy.

use crate::congestion::CongestionGame;
use crate::game::Game;
use crate::graphical::GraphicalCoordinationGame;
use crate::ising::IsingGame;
use logit_graphs::Graph;

/// A game whose utilities have bounded-neighbourhood locality.
pub trait LocalGame: Game {
    /// The players (other than `player`) whose strategies can affect
    /// `player`'s utility, as `u32` player ids.
    fn neighbors_of(&self, player: usize) -> &[u32];

    /// Read-only batch utilities against a **byte-packed** strategy profile
    /// — the hook of the coloured byte engine in `logit-core`, where many
    /// workers evaluate different players against one shared frozen
    /// profile at the same time, and a binary game's profile is 1 byte per
    /// player (an `n = 10⁶` profile fits a 2 MiB L2) instead of 8. Entries
    /// are strategy indices; the engine only routes games with
    /// `max_strategies() ≤ 256` here.
    ///
    /// The contract is *bitwise* agreement with [`Game::utilities_for`] on
    /// the widened profile. The default widens into a temporary and
    /// delegates — correct for every game but `O(n)` per call; the
    /// graph-backed games override it with one-pass CSR kernels (congestion
    /// games keep the default: their resource loads are inherently a
    /// full-profile scan).
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        let mut wide: Vec<usize> = profile.iter().map(|&s| s as usize).collect();
        self.utilities_for(player, &mut wide, out);
    }

    /// Hints the cache that the data
    /// [`utilities_for_frozen_bytes`](Self::utilities_for_frozen_bytes)
    /// will read for `player` is about to be needed — the byte-sweep loops
    /// in `logit-core` call this a few players ahead of the revision so the
    /// neighbourhood row is resident when the gather runs. Purely a
    /// performance hint: the default is a no-op, and implementations must
    /// have no observable effect.
    #[inline]
    fn prefetch_frozen_bytes(&self, _player: usize) {}

    /// Size of `player`'s neighbourhood.
    fn degree(&self, player: usize) -> usize {
        self.neighbors_of(player).len()
    }

    /// Largest neighbourhood size over all players (used to size scratch
    /// buffers and bound per-step cost).
    fn max_degree(&self) -> usize {
        (0..self.num_players())
            .map(|i| self.degree(i))
            .max()
            .unwrap_or(0)
    }

    /// Upper bound on the cost of one logit update of any player:
    /// `max_i (|S_i| + deg(i))`.
    fn step_cost_bound(&self) -> usize {
        (0..self.num_players())
            .map(|i| self.num_strategies(i) + self.degree(i))
            .max()
            .unwrap_or(0)
    }
}

impl<G: LocalGame + ?Sized> LocalGame for &G {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        (**self).neighbors_of(player)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        (**self).utilities_for_frozen_bytes(player, profile, out)
    }
    fn prefetch_frozen_bytes(&self, player: usize) {
        (**self).prefetch_frozen_bytes(player)
    }
}

/// Shared-ownership locality: a replica ensemble's engines hold the game
/// through an `Arc`, and the coloured parallel-revision path needs the
/// locality hooks through that indirection too. Forwarded explicitly so the
/// games' read-only overrides survive (same reasoning as the `Arc<G>: Game`
/// impl in [`crate::game`]).
impl<G: LocalGame + ?Sized> LocalGame for std::sync::Arc<G> {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        (**self).neighbors_of(player)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        (**self).utilities_for_frozen_bytes(player, profile, out)
    }
    fn prefetch_frozen_bytes(&self, player: usize) {
        (**self).prefetch_frozen_bytes(player)
    }
}

impl LocalGame for GraphicalCoordinationGame {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        self.csr().neighbors(player)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
    fn prefetch_frozen_bytes(&self, player: usize) {
        self.csr().prefetch_row(player);
    }
}

impl LocalGame for IsingGame {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        self.csr().neighbors(player)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
    fn prefetch_frozen_bytes(&self, player: usize) {
        self.csr().prefetch_row(player);
    }
}

impl LocalGame for CongestionGame {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        self.interaction_neighbors(player)
    }
}

/// The `LocalGame`-to-`Graph` adjacency bridge: materialises any local
/// game's interaction structure as a `logit_graphs::Graph` on the players.
///
/// This closes the loop with `GraphBuilder`: every builder topology (ring,
/// torus, hypercube, Erdős–Rényi, circulant, …) becomes a playable
/// coordination/Ising instance by construction, and every *other*
/// `LocalGame` — congestion games, whose interaction graph is implicit in
/// resource sharing — comes back out as a graph the colouring algorithms in
/// `logit-graphs` can schedule (`greedy_coloring` / `dsatur_coloring` →
/// `ColouredBlocks` in `logit-core`).
///
/// Neighbourhoods are symmetrised: an edge is added when either endpoint
/// lists the other (for the games here the relation is already symmetric,
/// and `Graph::from_edges` deduplicates, so every directed pair is pushed
/// unconditionally). The `u32` ids are widened back to `usize`.
pub fn interaction_graph<G: LocalGame>(game: &G) -> Graph {
    let n = game.num_players();
    let mut edges = Vec::new();
    for u in 0..n {
        for &v in game.neighbors_of(u) {
            let v = v as usize;
            edges.push((u.min(v), u.max(v)));
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::CoordinationGame;
    use logit_graphs::GraphBuilder;

    /// Changing a strategy outside `neighbors_of(i)` must not change
    /// `utility(i, ·)` — the defining property of the trait.
    fn check_locality<G: LocalGame>(game: &G) {
        let n = game.num_players();
        let mut profile = vec![0usize; n];
        for player in 0..n {
            let local: std::collections::BTreeSet<usize> = game
                .neighbors_of(player)
                .iter()
                .map(|&j| j as usize)
                .collect();
            assert!(
                !local.contains(&player),
                "a player is not her own neighbour"
            );
            let base = game.utility(player, &profile);
            for other in 0..n {
                if other == player || local.contains(&other) {
                    continue;
                }
                for s in 0..game.num_strategies(other) {
                    let saved = profile[other];
                    profile[other] = s;
                    assert_eq!(
                        game.utility(player, &profile),
                        base,
                        "utility of {player} changed when non-neighbour {other} moved"
                    );
                    profile[other] = saved;
                }
            }
        }
    }

    #[test]
    fn graphical_and_ising_neighbourhoods_are_graph_neighbours() {
        let graph = GraphBuilder::ring(6);
        let coord = GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::symmetric(1.0));
        let ising = IsingGame::zero_field(graph.clone(), 0.5);
        let widened = |row: &[u32]| row.iter().map(|&j| j as usize).collect::<Vec<_>>();
        for v in 0..6 {
            assert_eq!(widened(coord.neighbors_of(v)), graph.neighbors(v));
            assert_eq!(widened(ising.neighbors_of(v)), graph.neighbors(v));
        }
        assert_eq!(coord.max_degree(), 2);
        assert_eq!(coord.step_cost_bound(), 4);
        check_locality(&coord);
        check_locality(&ising);
    }

    #[test]
    fn star_degrees() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::star(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        // The hub interacts with everyone, the leaves only with the hub.
        let degrees: Vec<usize> = (0..5).map(|v| game.degree(v)).collect();
        assert_eq!(degrees.iter().max(), Some(&4));
        assert_eq!(game.max_degree(), 4);
        check_locality(&game);
    }

    #[test]
    fn congestion_neighbourhood_is_resource_sharing() {
        // Players 0 and 1 can share machine 0; player 2 is isolated on machine 1.
        let delays = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let strategies = vec![vec![vec![0]], vec![vec![0]], vec![vec![1]]];
        let game = CongestionGame::new(delays, strategies);
        assert_eq!(game.neighbors_of(0), &[1]);
        assert_eq!(game.neighbors_of(1), &[0]);
        assert_eq!(game.neighbors_of(2), &[] as &[u32]);
        check_locality(&game);
    }

    #[test]
    fn load_balancing_is_fully_coupled() {
        let game = CongestionGame::load_balancing(4, 2, 1.0);
        for i in 0..4 {
            assert_eq!(
                game.degree(i),
                3,
                "every player shares machines with all others"
            );
        }
        check_locality(&game);
    }

    #[test]
    fn reference_delegation() {
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::path(4), CoordinationGame::symmetric(1.0));
        let r = &game;
        assert_eq!(r.neighbors_of(1), game.neighbors_of(1));
        assert_eq!(r.max_degree(), 2);
    }

    /// The byte-profile hook must agree bitwise with the mutable
    /// [`Game::utilities_for`] on the widened profile, and leave that
    /// profile as it found it, on every concrete `LocalGame` — including
    /// the congestion default, which widens internally — and through the
    /// `&G` / `Arc<G>` forwarding layers.
    #[test]
    fn byte_profile_utilities_match_the_frozen_hook_bitwise() {
        fn check<G: LocalGame>(game: &G, profiles: &[&[usize]]) {
            for &profile in profiles {
                let bytes: Vec<u8> = profile.iter().map(|&s| s as u8).collect();
                let mut work = profile.to_vec();
                for player in 0..game.num_players() {
                    let m = game.num_strategies(player);
                    let mut mutable = vec![0.0; m];
                    let mut packed = vec![0.0; m];
                    game.utilities_for(player, &mut work, &mut mutable);
                    game.utilities_for_frozen_bytes(player, &bytes, &mut packed);
                    assert!(
                        mutable
                            .iter()
                            .zip(&packed)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "byte hook diverged for player {player}: {mutable:?} vs {packed:?}"
                    );
                    assert_eq!(work, profile, "mutable hook must restore the profile");
                }
            }
        }
        let coord = GraphicalCoordinationGame::new(
            GraphBuilder::torus(3, 3),
            CoordinationGame::new(5.0, 4.0, 1.0, 2.0),
        );
        let coord_profiles: [&[usize]; 2] =
            [&[0, 1, 0, 1, 1, 0, 0, 1, 1], &[1, 1, 0, 0, 1, 0, 1, 0, 1]];
        check(&coord, &coord_profiles);
        let ising = IsingGame::new(GraphBuilder::hypercube(3), 0.7, 0.2);
        let ising_profiles: [&[usize]; 2] = [&[1, 0, 0, 1, 0, 1, 1, 0], &[0, 1, 1, 0, 1, 0, 0, 1]];
        check(&ising, &ising_profiles);
        let congestion = CongestionGame::load_balancing(4, 2, 1.5);
        check(&congestion, &[&[0, 1, 1, 0]]);
        // Forwarding layers: &G and Arc<G> reach the same overrides.
        check(&&coord, &coord_profiles);
        check(&std::sync::Arc::new(ising), &ising_profiles);
    }

    /// The bridge reproduces the social graph for graph-backed games and
    /// materialises the implicit resource-sharing graph of congestion games.
    #[test]
    fn interaction_graph_bridges_every_local_game() {
        let graph = GraphBuilder::circulant(10, 2);
        let coord =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let bridged = interaction_graph(&coord);
        assert_eq!(bridged.num_vertices(), graph.num_vertices());
        assert_eq!(bridged.num_edges(), graph.num_edges());
        for v in 0..10 {
            assert_eq!(bridged.neighbors(v), graph.neighbors(v));
        }
        let ising = IsingGame::zero_field(GraphBuilder::torus(3, 4), 1.0);
        let bridged = interaction_graph(&ising);
        assert_eq!(bridged.num_edges(), ising.csr().num_edges());
        // Congestion: players 0 and 1 share machine 0, player 2 is isolated.
        let delays = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let strategies = vec![vec![vec![0]], vec![vec![0]], vec![vec![1]]];
        let game = CongestionGame::new(delays, strategies);
        let bridged = interaction_graph(&game);
        assert!(bridged.has_edge(0, 1));
        assert_eq!(bridged.degree(2), 0);
        assert_eq!(bridged.num_edges(), 1);
    }
}
