//! Graphical coordination games (Section 5).
//!
//! `n` players sit on the vertices of a social graph `G`; every player picks a
//! single strategy in `{0, 1}` and plays the 2×2 basic coordination game with
//! each neighbour, collecting the sum of the payoffs. The potential is the sum
//! of the edge potentials, `Φ(x) = Σ_{(u,v) ∈ E} φ(x_u, x_v)`; since
//! `φ(0,0) = -δ₀`, `φ(1,1) = -δ₁` and mismatched edges give 0 (eq. 11), it is
//! computed from two exact counts as `Φ(x) = -(c₀₀·δ₀ + c₁₁·δ₁)`, where
//! `c₀₀` and `c₁₁` are the edges matched on 0 and on 1. The counts form a
//! [`PotentialTally`] that a move updates from the mover's degree and
//! neighbours on 1 alone. The game holds the graph only as a shared
//! `Arc<CsrGraph>`.
//!
//! The crate also exposes the closed-form clique potential used by Theorem 5.5:
//! on the clique the potential only depends on the number `k` of players playing
//! strategy 1, `Φ(k) = -( C(n-k,2)·δ₀ + C(k,2)·δ₁ )`, the maximum being attained
//! near `k* ≈ (n-1)·δ₀/(δ₀+δ₁) + ½`.

use crate::coordination::CoordinationGame;
use crate::game::{CountKernel, Game, PotentialGame, PotentialTally};
use logit_graphs::CsrGraph;
use std::sync::Arc;

/// A graphical coordination game: one [`CoordinationGame`] per edge of a social graph.
#[derive(Debug, Clone)]
pub struct GraphicalCoordinationGame {
    /// The social graph, frozen to CSR (two contiguous `u32` arrays, so a
    /// colour-class sweep reads one linear neighbour stream) and shared:
    /// cloning the game copies the pointer, not the rows.
    csr: Arc<CsrGraph>,
    base: CoordinationGame,
}

impl GraphicalCoordinationGame {
    /// Creates the game from a social graph and the basic 2×2 game. The
    /// graph is either an owned [`logit_graphs::Graph`], frozen here, or an
    /// `Arc<CsrGraph>` the game then shares.
    ///
    /// # Panics
    /// Panics when the graph has no vertices (a game needs at least one player).
    pub fn new(graph: impl Into<Arc<CsrGraph>>, base: CoordinationGame) -> Self {
        let csr = graph.into();
        assert!(
            csr.num_vertices() > 0,
            "the social graph needs at least one player"
        );
        Self { csr, base }
    }

    /// The social graph in its frozen CSR form.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The basic coordination game played on every edge.
    pub fn base(&self) -> &CoordinationGame {
        &self.base
    }

    /// `δ₀` of the basic game.
    pub fn delta0(&self) -> f64 {
        self.base.delta0()
    }

    /// `δ₁` of the basic game.
    pub fn delta1(&self) -> f64 {
        self.base.delta1()
    }

    /// Potential of the all-zeros profile: `-|E|·δ₀`.
    pub fn potential_all_zero(&self) -> f64 {
        -(self.csr.num_edges() as f64) * self.delta0()
    }

    /// Potential of the all-ones profile: `-|E|·δ₁`.
    pub fn potential_all_one(&self) -> f64 {
        -(self.csr.num_edges() as f64) * self.delta1()
    }
}

impl Game for GraphicalCoordinationGame {
    fn num_players(&self) -> usize {
        self.csr.num_vertices()
    }

    fn num_strategies(&self, _player: usize) -> usize {
        2
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        debug_assert_eq!(profile.len(), self.num_players());
        self.csr
            .neighbors(player)
            .iter()
            .map(|&j| self.base.payoff(profile[player], profile[j as usize]))
            .sum()
    }

    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }

    #[inline]
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        Some(self)
    }
}

impl GraphicalCoordinationGame {
    /// The batch evaluation behind every `utilities_for` hook, on a `usize`
    /// profile or the byte-packed one of the cache-blocked coloured sweeps:
    /// reads the profile immutably (one pass over the neighbourhood serves
    /// both strategies — only the counts of neighbours on each side
    /// matter), so the parallel frozen-profile path can share it across
    /// workers. Iterates the CSR row — one contiguous `u32` stream per player.
    pub(crate) fn utilities_readonly<S>(&self, player: usize, profile: &[S], out: &mut [f64])
    where
        S: Copy + Into<usize>,
    {
        let row = self.csr.neighbors(player);
        self.utilities_from_ones(row.len(), ones_in(row, profile), out);
    }
}

/// The count row is the neighbour row.
impl CountKernel for GraphicalCoordinationGame {
    #[inline]
    fn count_row(&self, player: usize) -> &[u32] {
        self.csr.neighbors(player)
    }

    fn row_lengths(&self) -> &[u32] {
        self.csr.degrees()
    }

    fn row_offsets(&self) -> &[u32] {
        self.csr.offsets()
    }

    fn rows_address(&self) -> *const () {
        Arc::as_ptr(&self.csr).cast()
    }

    /// The shared counting kernel: only `(degree, #neighbours on 1)` enter
    /// the payoff sums, so every profile representation — and the engines'
    /// tabulated update distributions — funnel through the same float
    /// expressions: the bitwise-agreement anchor of the relabelled byte
    /// engine and of the count table.
    #[inline]
    fn utilities_from_ones(&self, degree: usize, ones: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), 2);
        let zeros = (degree - ones) as f64;
        let ones = ones as f64;
        out[0] = zeros * self.base.payoff(0, 0) + ones * self.base.payoff(0, 1);
        out[1] = zeros * self.base.payoff(1, 0) + ones * self.base.payoff(1, 1);
    }
}

/// How many of the players in `row` play strategy 1 (profiles hold 0 or 1).
#[inline]
pub(crate) fn ones_in<S: Copy + Into<usize>>(row: &[u32], profile: &[S]) -> usize {
    row.iter().map(|&j| profile[j as usize].into()).sum()
}

impl PotentialGame for GraphicalCoordinationGame {
    fn potential(&self, profile: &[usize]) -> f64 {
        self.potential_of_tally(&self.count(profile))
    }

    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        Some(self.count(profile))
    }

    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        let ones = ones as i64;
        let zeros = degree as i64 - ones;
        let [c00, c11] = &mut tally.0;
        if old == 0 {
            *c00 -= zeros;
            *c11 += ones;
        } else {
            *c11 -= ones;
            *c00 += zeros;
        }
    }

    fn potential_of_tally(&self, tally: &PotentialTally) -> f64 {
        let [c00, c11] = tally.0;
        if c00 == 0 && c11 == 0 {
            // The zeros of the edge-order sum `Σ φ` started from `-0.0`:
            // mismatched edges add `+0.0` and leave `+0.0`, and a graph
            // without edges leaves `-0.0`. Kept, since the bits go on the
            // wire.
            return if self.csr.num_edges() == 0 { -0.0 } else { 0.0 };
        }
        -(c00 as f64 * self.delta0() + c11 as f64 * self.delta1())
    }
}

impl GraphicalCoordinationGame {
    /// The matched-edge counts `[c₀₀, c₁₁]` of `profile` in one pass over
    /// the CSR rows: every matched edge is seen from both ends, so the row
    /// sums hold each count twice.
    fn count(&self, profile: &[usize]) -> PotentialTally {
        let (mut twice_c00, mut twice_c11) = (0i64, 0i64);
        for (u, &x) in profile.iter().enumerate() {
            let row = self.csr.neighbors(u);
            let ones = ones_in(row, profile) as i64;
            let x = x as i64;
            twice_c00 += (1 - x) * (row.len() as i64 - ones);
            twice_c11 += x * ones;
        }
        PotentialTally([twice_c00 / 2, twice_c11 / 2])
    }
}

/// Closed-form potential of the graphical coordination game on the **clique**
/// `K_n` as a function of the number `k` of players playing strategy 1
/// (Section 5.2).
pub fn clique_potential_by_count(n: usize, delta0: f64, delta1: f64, k: usize) -> f64 {
    assert!(k <= n, "count of 1-players cannot exceed n");
    let zeros = (n - k) as f64;
    let ones = k as f64;
    -(zeros * (zeros - 1.0) / 2.0 * delta0 + ones * (ones - 1.0) / 2.0 * delta1)
}

/// The count `k*` of 1-players at which the clique potential is maximised
/// (Section 5.2: the integer closest to `(n-1)·δ₀/(δ₀+δ₁) + ½`, clamped to `[0, n]`).
pub fn clique_argmax_count(n: usize, delta0: f64, delta1: f64) -> usize {
    let continuous = (n as f64 - 1.0) * delta0 / (delta0 + delta1) + 0.5;
    let mut best_k = continuous.round().clamp(0.0, n as f64) as usize;
    // Guard against rounding ties: check the two integer neighbours explicitly.
    let mut best_val = clique_potential_by_count(n, delta0, delta1, best_k);
    for cand in [best_k.saturating_sub(1), (best_k + 1).min(n)] {
        let v = clique_potential_by_count(n, delta0, delta1, cand);
        if v > best_val {
            best_val = v;
            best_k = cand;
        }
    }
    best_k
}

/// The barrier `Φ_max - Φ(1)` appearing in the Theorem 5.5 clique bound
/// (with the convention `δ₀ ≥ δ₁`, `1` is the *shallower* of the two equilibria).
pub fn clique_barrier(n: usize, delta0: f64, delta1: f64) -> f64 {
    let kstar = clique_argmax_count(n, delta0, delta1);
    let phimax = clique_potential_by_count(n, delta0, delta1, kstar);
    let phi_all_one = clique_potential_by_count(n, delta0, delta1, n);
    phimax - phi_all_one
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{find_pure_nash_equilibria, is_pure_nash, verify_exact_potential};
    use logit_graphs::GraphBuilder;

    fn ring_game(n: usize, d0: f64, d1: f64) -> GraphicalCoordinationGame {
        GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::from_deltas(d0, d1))
    }

    #[test]
    fn utilities_sum_over_neighbours() {
        let g = ring_game(4, 3.0, 2.0);
        // Everyone plays 0: each player matches both neighbours at payoff a = 3.
        assert_eq!(g.utility(0, &[0, 0, 0, 0]), 6.0);
        // Player 0 deviates to 1: both its edges become mismatches with payoff d = 0.
        assert_eq!(g.utility(0, &[1, 0, 0, 0]), 0.0);
        // Its neighbour 1 still matches player 2 only.
        assert_eq!(g.utility(1, &[1, 0, 0, 0]), 3.0);
    }

    #[test]
    fn exact_potential_on_various_graphs() {
        for graph in [
            GraphBuilder::ring(4),
            GraphBuilder::path(4),
            GraphBuilder::clique(4),
            GraphBuilder::star(5),
        ] {
            let game =
                GraphicalCoordinationGame::new(graph, CoordinationGame::new(5.0, 4.0, 1.0, 2.0));
            assert!(verify_exact_potential(&game, 1e-9));
        }
    }

    #[test]
    fn consensus_profiles_are_nash() {
        let g = ring_game(5, 2.0, 2.0);
        assert!(is_pure_nash(&g, &[0, 0, 0, 0, 0]));
        assert!(is_pure_nash(&g, &[1, 1, 1, 1, 1]));
        assert!(!is_pure_nash(&g, &[1, 0, 0, 0, 0]));
    }

    #[test]
    fn ring_potential_extremes() {
        let g = ring_game(6, 3.0, 2.0);
        assert_eq!(g.potential(&[0; 6]), -18.0);
        assert_eq!(g.potential(&[1; 6]), -12.0);
        assert_eq!(g.potential_all_zero(), -18.0);
        assert_eq!(g.potential_all_one(), -12.0);
        // Mixed profile: only matching edges contribute.
        assert_eq!(g.potential(&[0, 0, 0, 1, 1, 1]), -3.0 * 2.0 - 2.0 * 2.0);
    }

    #[test]
    fn potential_zeros_keep_their_signs() {
        // The potential's bits go on the wire, so the sign of zero counts:
        // mismatched edges only give +0.0, no edge at all gives -0.0.
        let ring = ring_game(6, 3.0, 2.0);
        assert_eq!(
            ring.potential(&[0, 1, 0, 1, 0, 1]).to_bits(),
            0.0f64.to_bits()
        );
        let edgeless = GraphicalCoordinationGame::new(
            logit_graphs::Graph::new(3),
            CoordinationGame::from_deltas(3.0, 2.0),
        );
        for profile in [[0, 0, 0], [1, 1, 1], [0, 1, 0]] {
            assert_eq!(edgeless.potential(&profile).to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn clique_closed_form_matches_enumeration() {
        let n = 5;
        let (d0, d1) = (3.0, 2.0);
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::clique(n),
            CoordinationGame::from_deltas(d0, d1),
        );
        let space = game.profile_space();
        let mut buf = vec![0usize; n];
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            let k = buf.iter().filter(|&&x| x == 1).count();
            assert!(
                (game.potential(&buf) - clique_potential_by_count(n, d0, d1, k)).abs() < 1e-12,
                "closed form disagrees at k={k}"
            );
        }
    }

    #[test]
    fn clique_argmax_is_global_maximum() {
        for n in 2..9 {
            for (d0, d1) in [(1.0, 1.0), (3.0, 2.0), (5.0, 1.0)] {
                let kstar = clique_argmax_count(n, d0, d1);
                let vstar = clique_potential_by_count(n, d0, d1, kstar);
                for k in 0..=n {
                    assert!(
                        clique_potential_by_count(n, d0, d1, k) <= vstar + 1e-12,
                        "k={k} beats k*={kstar} for n={n}, d0={d0}, d1={d1}"
                    );
                }
            }
        }
    }

    #[test]
    fn clique_barrier_positive_and_grows_quadratically_without_risk_dominance() {
        // δ0 = δ1: barrier is Θ(n² δ) (Section 5.2 closing remark).
        let b4 = clique_barrier(4, 1.0, 1.0);
        let b8 = clique_barrier(8, 1.0, 1.0);
        assert!(b4 > 0.0);
        assert!(b8 / b4 > 3.0, "barrier should grow roughly quadratically");
    }

    #[test]
    fn nash_equilibria_on_small_clique() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::clique(3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let nash = find_pure_nash_equilibria(&game);
        assert!(nash.contains(&vec![0, 0, 0]));
        assert!(nash.contains(&vec![1, 1, 1]));
        assert_eq!(nash.len(), 2);
    }
}
