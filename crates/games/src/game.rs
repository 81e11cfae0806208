//! Core game traits.

use crate::profile::ProfileSpace;

/// A finite strategic game.
///
/// Players are `0..num_players()`, the strategies of player `i` are
/// `0..num_strategies(i)`, and `utility(i, x)` is player `i`'s payoff in profile
/// `x` (a slice of one strategy per player).
pub trait Game {
    /// Number of players `n`.
    fn num_players(&self) -> usize;

    /// Number of strategies of player `i`.
    fn num_strategies(&self, player: usize) -> usize;

    /// Utility (payoff) of `player` in `profile`.
    fn utility(&self, player: usize, profile: &[usize]) -> f64;

    /// Batch evaluation: writes `u_i(s, x_{-i})` for every strategy `s` of
    /// `player` into `out` (`out.len()` must equal `num_strategies(player)`).
    ///
    /// This is the hot hook of the simulation engine: the softmax logits of
    /// the logit update (eq. 2) need the utilities of *all* of a player's
    /// strategies with the opponents fixed, and computing them through
    /// repeated [`Game::utility`] calls forces either a cloned profile per
    /// call or `m` temporary mutations. The default implementation mutates
    /// `profile[player]` in place and restores it, so it allocates nothing;
    /// concrete games override it when they can share work across strategies
    /// (e.g. counting neighbour strategies once for all `s`).
    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.num_strategies(player));
        let saved = profile[player];
        for (s, slot) in out.iter_mut().enumerate() {
            profile[player] = s;
            *slot = self.utility(player, profile);
        }
        profile[player] = saved;
    }

    /// The game's [`CountKernel`], when its utilities have the count form;
    /// `None` (the default) otherwise. An engine handed a kernel may
    /// tabulate update distributions by `(degree, ones, current strategy)`
    /// instead of calling [`Game::utilities_for`] on every update.
    #[inline]
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        None
    }

    /// The profile space `S = S₁ × ⋯ × Sₙ` of the game.
    fn profile_space(&self) -> ProfileSpace {
        ProfileSpace::new(
            (0..self.num_players())
                .map(|i| self.num_strategies(i))
                .collect(),
        )
    }

    /// Largest strategy-set size `m = max_i |S_i|`.
    fn max_strategies(&self) -> usize {
        (0..self.num_players())
            .map(|i| self.num_strategies(i))
            .max()
            .unwrap_or(0)
    }

    /// Total number of profiles `|S|`.
    fn num_profiles(&self) -> usize {
        self.profile_space().size()
    }
}

/// The count form of a binary game's utilities: player `i`'s two utilities
/// depend on the profile only through her *count row* `R_i`, and only
/// through `(|R_i|, #{j ∈ R_i : x_j = 1})`. The graphical coordination
/// games of Section 5 and the Ising model have it, with the neighbours as
/// the row. A player of degree `d` then has at most `d + 1` utility pairs,
/// hence at most `2·(d + 1)` update distributions at a fixed `β`.
///
/// Contract: every player has two strategies, on profiles of 0s and 1s
/// `utilities_for(i, x, out)` writes exactly what
/// `utilities_from_ones(R_i.len(), Σ_{j ∈ R_i} x_j, out)` writes, bit for
/// bit, and `row_lengths` lists every `R_i.len()` once. Rows are
/// symmetric (`j` is in `R_i` as often as `i` is in `R_j`) and no player
/// is in her own row: an ensemble that keeps every player's count of ones
/// updates all the counts a move changes by walking the mover's own row,
/// and the mover's own count does not change.
pub trait CountKernel {
    /// Player `i`'s count row `R_i`, as `u32` player ids.
    fn count_row(&self, player: usize) -> &[u32];

    /// The distinct lengths of the count rows, ascending: the degrees an
    /// engine tabulates.
    fn row_lengths(&self) -> &[u32];

    /// The utilities `[u(0), u(1)]` of a player whose count row has
    /// `degree` players, `ones` of them on strategy 1.
    fn utilities_from_ones(&self, degree: usize, ones: usize, out: &mut [f64]);

    /// The address of the storage the count rows are read from: kernels
    /// that report one address have the same rows, and kernels with other
    /// rows report another. The graph games return their shared graph's,
    /// so every game built on one `Arc<CsrGraph>` reports the same rows.
    fn rows_address(&self) -> *const ();
}

/// Two exact integer counters a potential is computed from: the matched
/// 0-0 and 1-1 edges of a graphical coordination game, or the spin-product
/// sum and the up-spin count of an Ising model.
///
/// A tally kept current move by move ([`PotentialGame::retally`]) holds
/// the same integers as a fresh count of the same profile, so
/// [`PotentialGame::potential_of_tally`] returns `potential(profile)` bit
/// for bit, with no drift however long the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PotentialTally(pub(crate) [i64; 2]);

/// An (exact) potential game.
///
/// The potential follows the paper's **cost convention** (eq. (1)):
/// `u_i(a, x_{-i}) - u_i(b, x_{-i}) = Φ(b, x_{-i}) - Φ(a, x_{-i})` — improving a
/// player's utility *decreases* the potential. Consequently the stationary
/// distribution of the logit dynamics is the Gibbs measure
/// `π(x) ∝ e^{-βΦ(x)}`, concentrated on potential *minimisers* as `β → ∞`.
pub trait PotentialGame: Game {
    /// Exact potential `Φ(x)` of the profile.
    fn potential(&self, profile: &[usize]) -> f64;

    /// The [`PotentialTally`] of `profile`, for games whose potential is
    /// computed from one; `None` (the default) means the game keeps no
    /// tally and its potential is tracked by full evaluation. A game that
    /// keeps one also has a [`CountKernel`], whose rows give
    /// [`retally`](Self::retally) its inputs.
    fn tally(&self, _profile: &[usize]) -> Option<PotentialTally> {
        None
    }

    /// Updates `tally` after a player moved from `old` to the other
    /// strategy. `degree` is the length of her count row
    /// ([`CountKernel::count_row`]) and `ones` how many in it play 1.
    /// Neither changes when she moves, since no player is in her own row,
    /// so the ensembles read both from her neighbour-count word: `O(1)`,
    /// with no row read.
    ///
    /// # Panics
    /// The default panics: only a game whose [`tally`](Self::tally)
    /// returns `Some` keeps one.
    fn retally(&self, _tally: &mut PotentialTally, _old: usize, _degree: usize, _ones: usize) {
        panic!("this game keeps no potential tally");
    }

    /// The potential of a profile from its tally, in `O(1)`: bit for bit
    /// `potential(profile)` when `tally` is the profile's tally.
    ///
    /// # Panics
    /// The default panics, as for [`retally`](Self::retally).
    fn potential_of_tally(&self, _tally: &PotentialTally) -> f64 {
        panic!("this game keeps no potential tally");
    }

    /// Maximum global variation `ΔΦ = max Φ - min Φ` (Section 3.2).
    ///
    /// Default implementation enumerates the whole profile space; concrete games
    /// with closed forms may override it.
    fn max_global_variation(&self) -> f64 {
        let space = self.profile_space();
        let mut buf = vec![0usize; self.num_players()];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            let phi = self.potential(&buf);
            lo = lo.min(phi);
            hi = hi.max(phi);
        }
        hi - lo
    }

    /// Maximum local variation
    /// `δΦ = max{Φ(x) - Φ(y) : d(x, y) = 1}` (Section 3.2).
    fn max_local_variation(&self) -> f64 {
        let space = self.profile_space();
        let mut buf = vec![0usize; self.num_players()];
        let mut nbr = vec![0usize; self.num_players()];
        let mut best: f64 = 0.0;
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            let phi = self.potential(&buf);
            for (_, _, j) in space.deviations(idx) {
                space.write_profile(j, &mut nbr);
                let psi = self.potential(&nbr);
                best = best.max((phi - psi).abs());
            }
        }
        best
    }

    /// The minimum of the potential over all profiles.
    fn min_potential(&self) -> f64 {
        let space = self.profile_space();
        let mut buf = vec![0usize; self.num_players()];
        let mut lo = f64::INFINITY;
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            lo = lo.min(self.potential(&buf));
        }
        lo
    }

    /// The maximum of the potential over all profiles.
    fn max_potential(&self) -> f64 {
        let space = self.profile_space();
        let mut buf = vec![0usize; self.num_players()];
        let mut hi = f64::NEG_INFINITY;
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            hi = hi.max(self.potential(&buf));
        }
        hi
    }
}

/// Blanket helper: any `&G` where `G: Game` is a game (lets the analysis
/// functions take either owned games or references without extra generics).
impl<G: Game + ?Sized> Game for &G {
    fn num_players(&self) -> usize {
        (**self).num_players()
    }
    fn num_strategies(&self, player: usize) -> usize {
        (**self).num_strategies(player)
    }
    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        (**self).utility(player, profile)
    }
    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        (**self).utilities_for(player, profile, out)
    }
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        (**self).count_kernel()
    }
}

impl<G: PotentialGame + ?Sized> PotentialGame for &G {
    fn potential(&self, profile: &[usize]) -> f64 {
        (**self).potential(profile)
    }
    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        (**self).tally(profile)
    }
    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        (**self).retally(tally, old, degree, ones)
    }
    fn potential_of_tally(&self, tally: &PotentialTally) -> f64 {
        (**self).potential_of_tally(tally)
    }
    fn max_global_variation(&self) -> f64 {
        (**self).max_global_variation()
    }
    fn max_local_variation(&self) -> f64 {
        (**self).max_local_variation()
    }
    fn min_potential(&self) -> f64 {
        (**self).min_potential()
    }
    fn max_potential(&self) -> f64 {
        (**self).max_potential()
    }
}

/// Shared-ownership games: a replica ensemble (e.g. parallel tempering) runs
/// many engines over *one* game; cloning an `Arc<G>` shares the payoff data
/// (for graphical games, the `O(n)` adjacency lists) instead of duplicating
/// it per replica. Every method is forwarded explicitly — like the `&G`
/// blanket impls above — so a game's batched `utilities_for` override and
/// its closed-form potential bounds survive the indirection instead of
/// falling back to the defaulted (enumerating) implementations.
impl<G: Game + ?Sized> Game for std::sync::Arc<G> {
    fn num_players(&self) -> usize {
        (**self).num_players()
    }
    fn num_strategies(&self, player: usize) -> usize {
        (**self).num_strategies(player)
    }
    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        (**self).utility(player, profile)
    }
    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        (**self).utilities_for(player, profile, out)
    }
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        (**self).count_kernel()
    }
}

impl<G: PotentialGame + ?Sized> PotentialGame for std::sync::Arc<G> {
    fn potential(&self, profile: &[usize]) -> f64 {
        (**self).potential(profile)
    }
    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        (**self).tally(profile)
    }
    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        (**self).retally(tally, old, degree, ones)
    }
    fn potential_of_tally(&self, tally: &PotentialTally) -> f64 {
        (**self).potential_of_tally(tally)
    }
    fn max_global_variation(&self) -> f64 {
        (**self).max_global_variation()
    }
    fn max_local_variation(&self) -> f64 {
        (**self).max_local_variation()
    }
    fn min_potential(&self) -> f64 {
        (**self).min_potential()
    }
    fn max_potential(&self) -> f64 {
        (**self).max_potential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-rolled potential game used to exercise the default methods:
    /// two players, two strategies, Φ(x) = x₀ + 2·x₁, utilities u_i = -Φ.
    struct Toy;

    impl Game for Toy {
        fn num_players(&self) -> usize {
            2
        }
        fn num_strategies(&self, _player: usize) -> usize {
            2
        }
        fn utility(&self, _player: usize, profile: &[usize]) -> f64 {
            -(profile[0] as f64 + 2.0 * profile[1] as f64)
        }
    }

    impl PotentialGame for Toy {
        fn potential(&self, profile: &[usize]) -> f64 {
            profile[0] as f64 + 2.0 * profile[1] as f64
        }
    }

    #[test]
    fn default_space_and_counts() {
        let g = Toy;
        assert_eq!(g.num_profiles(), 4);
        assert_eq!(g.max_strategies(), 2);
        let sp = g.profile_space();
        assert_eq!(sp.size(), 4);
    }

    #[test]
    fn default_variations() {
        let g = Toy;
        assert_eq!(g.max_global_variation(), 3.0);
        assert_eq!(g.max_local_variation(), 2.0);
        assert_eq!(g.min_potential(), 0.0);
        assert_eq!(g.max_potential(), 3.0);
    }

    #[test]
    fn reference_impl_delegates() {
        let g = Toy;
        let r: &dyn PotentialGame = &g;
        assert_eq!(r.num_players(), 2);
        assert_eq!(r.potential(&[1, 1]), 3.0);
        // &G blanket impl
        let gref = &g;
        assert_eq!(gref.max_global_variation(), 3.0);
        assert_eq!(gref.max_local_variation(), 2.0);
        assert_eq!(gref.min_potential(), 0.0);
        assert_eq!(gref.max_potential(), 3.0);
    }

    #[test]
    fn arc_impl_forwards_overrides_not_defaults() {
        // n = 1000 binary players: the defaulted PotentialGame methods would
        // enumerate a 2^1000 profile space (the size computation alone
        // overflows), so this only returns if the Arc impl forwards the
        // game's closed-form override.
        let g = std::sync::Arc::new(crate::well::WellGame::new(1000, 2.0, 1.0));
        assert_eq!(g.max_global_variation(), 2.0);
        assert_eq!(g.num_players(), 1000);
        assert_eq!(g.num_strategies(0), 2);
        assert_eq!(g.potential(&vec![0usize; 1000]), -2.0);
        assert_eq!(g.utility(0, &vec![0usize; 1000]), 2.0);
        let mut profile = vec![0usize; 1000];
        let mut out = vec![0.0; 2];
        g.utilities_for(0, &mut profile, &mut out);
        assert_eq!(out[0], 2.0);
        // The small Toy game exercises the remaining forwarded methods.
        let toy = std::sync::Arc::new(Toy);
        assert_eq!(toy.max_local_variation(), 2.0);
        assert_eq!(toy.min_potential(), 0.0);
        assert_eq!(toy.max_potential(), 3.0);
    }

    #[test]
    fn ref_and_arc_impls_forward_the_count_kernel() {
        // Generic, so `G` is the wrapper itself and its impl is the one
        // called: a dropped forward falls back to the `None` default.
        fn row_of<G: Game>(game: G) -> Option<Vec<u32>> {
            game.count_kernel().map(|k| k.count_row(1).to_vec())
        }
        let game = crate::GraphicalCoordinationGame::new(
            logit_graphs::GraphBuilder::path(3),
            crate::CoordinationGame::from_deltas(2.0, 1.0),
        );
        let row = Some(vec![0, 2]);
        assert_eq!(row_of(&game), row);
        assert_eq!(row_of(std::sync::Arc::new(game.clone())), row);
        let object: &dyn PotentialGame = &game;
        assert_eq!(row_of(object), row);
        assert_eq!(
            row_of(&Toy),
            None,
            "games without the count form keep the default"
        );
    }
}
