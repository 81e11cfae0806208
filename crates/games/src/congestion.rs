//! Rosenthal congestion games.
//!
//! The paper's related work (Asadpour–Saberi) studies hitting times of Nash
//! equilibria in congestion games; the experiment harness uses congestion games
//! as an additional family of potential games with tunable structure.
//!
//! A congestion game has a set of resources, each with a non-decreasing delay
//! function `d_r(k)` of the number `k` of players using it; a strategy of a
//! player is a subset of resources and her cost is the sum of the delays of her
//! chosen resources. Utilities are negated costs and the Rosenthal potential
//! `Φ(x) = Σ_r Σ_{k=1}^{load_r(x)} d_r(k)` is an exact potential in the paper's
//! cost convention.

use crate::game::{Game, PotentialGame};
use std::sync::OnceLock;

/// A congestion game in explicit form.
#[derive(Debug, Clone)]
pub struct CongestionGame {
    num_resources: usize,
    /// `delays[r][k-1]` is the delay of resource `r` when `k` players use it.
    delays: Vec<Vec<f64>>,
    /// `strategies[i][s]` is the set of resources (as indices) of strategy `s` of player `i`.
    strategies: Vec<Vec<Vec<usize>>>,
    /// Lazily computed `adjacency[i]`: the sorted players `j != i` that can
    /// share a resource with `i` under some strategy pair — the interaction
    /// neighbourhood backing the `LocalGame` impl. Derived from `strategies`;
    /// computed on first use because it is Θ(Σ_r |users(r)|²) and dense games
    /// (e.g. load balancing at large `n`) never need it to simulate.
    adjacency: OnceLock<Vec<Vec<u32>>>,
}

/// Equality is over the game data (`delays`, `strategies`); the lazily cached
/// adjacency is derived from them and deliberately excluded.
impl PartialEq for CongestionGame {
    fn eq(&self, other: &Self) -> bool {
        self.num_resources == other.num_resources
            && self.delays == other.delays
            && self.strategies == other.strategies
    }
}

impl CongestionGame {
    /// Creates a congestion game.
    ///
    /// * `delays[r]` must have one entry per possible load (i.e. at least `n` entries).
    /// * Every player needs at least one strategy; resource indices must be in
    ///   range, and a strategy is a *set* of resources — duplicates within one
    ///   strategy are rejected (the cost and potential formulas both count a
    ///   resource once).
    pub fn new(delays: Vec<Vec<f64>>, strategies: Vec<Vec<Vec<usize>>>) -> Self {
        let num_resources = delays.len();
        let n = strategies.len();
        assert!(n >= 1, "need at least one player");
        for (r, d) in delays.iter().enumerate() {
            assert!(
                d.len() >= n,
                "resource {r} needs a delay value for every load up to n={n}"
            );
        }
        // `seen[r]` holds the tag of the last strategy that listed `r`; a
        // repeat within one strategy means a duplicate resource.
        let mut seen = vec![usize::MAX; num_resources];
        let mut tag = 0usize;
        for (i, strats) in strategies.iter().enumerate() {
            assert!(!strats.is_empty(), "player {i} needs at least one strategy");
            for (s, strat) in strats.iter().enumerate() {
                for &r in strat {
                    assert!(
                        r < num_resources,
                        "player {i} references resource {r} out of range"
                    );
                    assert!(
                        seen[r] != tag,
                        "player {i} strategy {s} lists resource {r} twice (strategies are resource sets)"
                    );
                    seen[r] = tag;
                }
                tag += 1;
            }
        }
        Self {
            num_resources,
            delays,
            strategies,
            adjacency: OnceLock::new(),
        }
    }

    /// Builds the interaction adjacency: players are adjacent when some
    /// resource appears in a strategy of each.
    fn build_adjacency(&self) -> Vec<Vec<u32>> {
        let n = self.strategies.len();
        let mut users_of: Vec<Vec<usize>> = vec![Vec::new(); self.num_resources];
        for (i, strats) in self.strategies.iter().enumerate() {
            for strat in strats {
                for &r in strat {
                    if users_of[r].last() != Some(&i) {
                        users_of[r].push(i);
                    }
                }
            }
        }
        let mut adjacency: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); n];
        for users in &users_of {
            for &i in users {
                for &j in users {
                    if i != j {
                        adjacency[i].insert(j);
                    }
                }
            }
        }
        adjacency
            .into_iter()
            .map(|set| {
                set.into_iter()
                    .map(|j| u32::try_from(j).expect("player ids fit in u32"))
                    .collect()
            })
            .collect()
    }

    /// A symmetric singleton congestion game ("load balancing"): `n` players each
    /// choose one of `m` identical machines with linear delay `d(k) = k·slope`.
    pub fn load_balancing(n: usize, m: usize, slope: f64) -> Self {
        let delays = (0..m)
            .map(|_| (1..=n).map(|k| slope * k as f64).collect())
            .collect();
        let strategies = (0..n).map(|_| (0..m).map(|r| vec![r]).collect()).collect();
        Self::new(delays, strategies)
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Load (number of users) of every resource in `profile`.
    pub fn loads(&self, profile: &[usize]) -> Vec<usize> {
        let mut load = vec![0usize; self.num_resources];
        for (i, &s) in profile.iter().enumerate() {
            for &r in &self.strategies[i][s] {
                load[r] += 1;
            }
        }
        load
    }

    /// The players that can share a resource with `player` (her interaction
    /// neighbourhood; see the `LocalGame` impl in [`crate::local`]).
    ///
    /// The full adjacency is computed on first call and cached; games that
    /// only simulate (which needs `utilities_for`, not neighbourhoods) never
    /// pay for it.
    pub fn interaction_neighbors(&self, player: usize) -> &[u32] {
        &self.adjacency.get_or_init(|| self.build_adjacency())[player]
    }

    /// Cost (total delay) incurred by `player` in `profile`.
    pub fn cost(&self, player: usize, profile: &[usize]) -> f64 {
        let load = self.loads(profile);
        self.strategies[player][profile[player]]
            .iter()
            .map(|&r| self.delays[r][load[r] - 1])
            .sum()
    }
}

impl Game for CongestionGame {
    fn num_players(&self) -> usize {
        self.strategies.len()
    }

    fn num_strategies(&self, player: usize) -> usize {
        self.strategies[player].len()
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        -self.cost(player, profile)
    }

    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
}

impl CongestionGame {
    /// The batch evaluation behind both `utilities_for` hooks: reads the
    /// profile immutably (loads are computed once with `player` removed,
    /// then every candidate strategy is priced against them:
    /// `O(n + Σ_s |strategy s|)` instead of the default's `O(m · n)`), so
    /// the parallel frozen-profile path can share it across workers.
    pub(crate) fn utilities_readonly(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.strategies[player].len());
        let mut load = self.loads(profile);
        for &r in &self.strategies[player][profile[player]] {
            load[r] -= 1;
        }
        for (slot, strat) in out.iter_mut().zip(&self.strategies[player]) {
            // Joining resource r raises its load to load[r] + 1, whose delay
            // lives at index load[r].
            *slot = -strat.iter().map(|&r| self.delays[r][load[r]]).sum::<f64>();
        }
    }
}

impl PotentialGame for CongestionGame {
    fn potential(&self, profile: &[usize]) -> f64 {
        let load = self.loads(profile);
        let mut phi = 0.0;
        for (r, &l) in load.iter().enumerate() {
            for k in 1..=l {
                phi += self.delays[r][k - 1];
            }
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{find_pure_nash_equilibria, verify_exact_potential};

    #[test]
    fn load_balancing_loads_and_costs() {
        let g = CongestionGame::load_balancing(3, 2, 1.0);
        // Players 0,1 on machine 0; player 2 on machine 1.
        let profile = [0, 0, 1];
        assert_eq!(g.loads(&profile), vec![2, 1]);
        assert_eq!(g.cost(0, &profile), 2.0);
        assert_eq!(g.cost(2, &profile), 1.0);
        assert_eq!(g.utility(0, &profile), -2.0);
    }

    #[test]
    fn rosenthal_potential_is_exact() {
        let g = CongestionGame::load_balancing(3, 3, 1.0);
        assert!(verify_exact_potential(&g, 1e-12));

        // An asymmetric game with multi-resource strategies.
        let delays = vec![
            vec![1.0, 3.0, 6.0],
            vec![2.0, 2.5, 3.0],
            vec![0.5, 4.0, 9.0],
        ];
        let strategies = vec![
            vec![vec![0], vec![1, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![1], vec![0, 2]],
        ];
        let g = CongestionGame::new(delays, strategies);
        assert!(verify_exact_potential(&g, 1e-12));
    }

    #[test]
    fn balanced_assignments_are_nash() {
        let g = CongestionGame::load_balancing(2, 2, 1.0);
        let nash = find_pure_nash_equilibria(&g);
        // The two perfectly balanced assignments are equilibria; the two
        // colliding assignments are not.
        assert!(nash.contains(&vec![0, 1]));
        assert!(nash.contains(&vec![1, 0]));
        assert!(!nash.contains(&vec![0, 0]));
        assert!(!nash.contains(&vec![1, 1]));
    }

    #[test]
    fn potential_by_enumeration_matches_formula() {
        let g = CongestionGame::load_balancing(4, 2, 2.0);
        // All on machine 0: Φ = 2+4+6+8 = 20.
        assert_eq!(g.potential(&[0, 0, 0, 0]), 20.0);
        // Balanced 2-2: Φ = (2+4)+(2+4) = 12.
        assert_eq!(g.potential(&[0, 0, 1, 1]), 12.0);
        assert_eq!(g.max_global_variation(), 8.0);
    }

    #[test]
    #[should_panic(expected = "delay value")]
    fn missing_delay_entries_rejected() {
        let _ = CongestionGame::new(vec![vec![1.0]], vec![vec![vec![0]], vec![vec![0]]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_resource_rejected() {
        let _ = CongestionGame::new(vec![vec![1.0, 2.0]], vec![vec![vec![1]], vec![vec![0]]]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_resource_within_a_strategy_rejected() {
        // [0, 0] would make `utilities_for` and `utility` disagree on the
        // marginal load, so it is rejected up front.
        let _ = CongestionGame::new(
            vec![vec![1.0, 2.0], vec![1.0, 2.0]],
            vec![vec![vec![0, 0], vec![1]], vec![vec![1]]],
        );
    }

    #[test]
    fn same_resource_in_different_strategies_is_fine() {
        let g = CongestionGame::new(
            vec![vec![1.0, 2.0], vec![1.0, 2.0]],
            vec![vec![vec![0], vec![0, 1]], vec![vec![1]]],
        );
        assert_eq!(g.num_players(), 2);
        assert_eq!(g.interaction_neighbors(0), &[1]);
    }

    #[test]
    fn dense_game_construction_is_cheap_without_neighbourhood_queries() {
        // Every player shares machines with every other: the O(n^2) adjacency
        // must not be built unless asked for. 50k players construct instantly
        // and simulate through utilities_for; only neighbours would be dense.
        let n = 50_000;
        let g = CongestionGame::load_balancing(n, 2, 1.0);
        let mut profile = vec![0usize; n];
        let mut out = [0.0, 0.0];
        g.utilities_for(0, &mut profile, &mut out);
        assert_eq!(out[0], -(n as f64));
        assert_eq!(out[1], -1.0);
    }

    #[test]
    fn equality_ignores_the_adjacency_cache() {
        let a = CongestionGame::load_balancing(3, 2, 1.0);
        let b = CongestionGame::load_balancing(3, 2, 1.0);
        let _ = a.interaction_neighbors(0); // warm a's cache, not b's
        assert_eq!(a, b);
    }
}
