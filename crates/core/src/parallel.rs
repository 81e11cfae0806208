//! Coloured parallel revision: block selection schedules and the truly
//! parallel independent-set engine path.
//!
//! The paper's chain revises one uniformly random player per step; its
//! companion line of work revises *everyone* per step (all-logit). This
//! module fills in the space between, along two axes:
//!
//! * [`RandomBlock`]`(k)` — a random `k`-subset of players revises as a
//!   parallel block each tick, interpolating
//!   [`UniformSingle`](crate::schedules::UniformSingle) (`k = 1`) →
//!   [`AllLogit`](crate::schedules::AllLogit) (`k = n`);
//! * [`ColouredBlocks`] — one colour class of a proper colouring of the
//!   interaction graph revises per tick, classes cycling round-robin. For a
//!   [`LocalGame`] a colour class is an **independent set**, so the block
//!   update is not merely a modelling choice but the *correct
//!   parallelisation*: non-neighbours' updates commute, and a parallel
//!   frozen-profile block equals any sequential ordering of the same
//!   updates.
//!
//! Both are ordinary [`SelectionSchedule`]s, so they plug into everything
//! downstream unchanged — `step_scheduled`, `run_profiles`, the farmed
//! runner, `run_tempered`, sweeps, annealing.
//!
//! On top of the schedule seam sits the counter-keyed coloured engine, the
//! byte sweeps of [`crate::locality`]:
//! [`DynamicsEngine::step_coloured_pooled_bytes`] updates a whole colour
//! class on the workers of the persistent
//! [`WorkerPool`](crate::runtime::WorkerPool), every player
//! drawing from her **own deterministic RNG stream** (derived from
//! `(seed, player, tick)` by [`player_tick_uniform`]), each worker reading
//! the frozen pre-tick byte profile. Because the class is an independent
//! set, the result is bit-identical to the sequential class sweep
//! [`DynamicsEngine::step_coloured`] *by construction* — the commutation
//! argument, pinned by a proptest across rules × topologies — whatever the
//! worker count or chunking. `step_coloured` is the reference that engine
//! is pinned to: it reads each distribution through
//! [`DynamicsEngine::update_distribution_into`], the function the exact
//! coloured block matrices below are built from.
//!
//! The exact-chain counterparts,
//! [`DynamicsEngine::transition_matrix_coloured_block`] and
//! [`DynamicsEngine::transition_chain_coloured_round`], make the schedule
//! theory-checkable in the style of
//! [`transition_chain_all_logit`](crate::dynamics::DynamicsEngine::transition_chain_all_logit):
//! one round (every class once) is the ordered product of commuting player
//! kernels, so for the Gibbs-reversible rules the round chain keeps the
//! Gibbs measure stationary — unlike the all-logit block chain, whose
//! stationary law is a genuinely different object.

use crate::dynamics::{sample_index_from_uniform, DynamicsEngine, Scratch};
use crate::rules::UpdateRule;
use crate::schedules::SelectionSchedule;
use logit_games::{interaction_graph, LocalGame};
/// The scale-aware colouring choice on an already materialised graph —
/// the entry point when the caller holds the interaction graph anyway (the
/// locality layout does, to avoid bridging a `10⁷`-vertex game twice).
pub use logit_graphs::coloring_for_graph;
use logit_graphs::Coloring;
use logit_linalg::Matrix;
use logit_markov::MarkovChain;
use rand::Rng;
use std::sync::Arc;

/// A parallel block schedule revising a uniformly random `k`-subset of the
/// players each tick (all sampling against the frozen pre-tick profile).
///
/// `k = 1` is distributed like the paper's
/// [`UniformSingle`](crate::schedules::UniformSingle) chain; `k = n` selects
/// everyone and coincides with
/// [`AllLogit`](crate::schedules::AllLogit)'s update set — the schedule
/// interpolates between the two. Selection consumes exactly `k`
/// `gen_range` draws (Floyd's subset-sampling algorithm) and the selected
/// players are emitted in ascending order, so block composition is
/// deterministic given the draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomBlock {
    k: usize,
}

impl RandomBlock {
    /// Creates the schedule with block size `k ≥ 1`.
    ///
    /// # Panics
    /// Panics when `k = 0`. (That `k` does not exceed the player count is
    /// asserted at selection time, where the player count is known.)
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a random block revises at least one player");
        Self { k }
    }

    /// The block size `k`.
    pub fn block_size(&self) -> usize {
        self.k
    }
}

impl SelectionSchedule for RandomBlock {
    fn select_players<R: Rng + ?Sized>(
        &self,
        _t: u64,
        num_players: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        assert!(
            self.k <= num_players,
            "block size {} exceeds the player count {num_players}",
            self.k
        );
        // Floyd's algorithm, kept sorted in the caller's reused buffer:
        // k draws, k distinct players, no O(n) buffer, no allocation on the
        // hot stepping path. When the drawn `r` is already present, `j`
        // replaces it — and `j` strictly exceeds every earlier entry
        // (previous iterations only held values < j), so it appends.
        out.clear();
        for j in (num_players - self.k)..num_players {
            let r = rng.gen_range(0..j + 1);
            match out.binary_search(&r) {
                Err(pos) => out.insert(pos, r),
                Ok(_) => out.push(j),
            }
        }
    }

    fn parallel(&self) -> bool {
        true
    }

    fn updates_in(&self, ticks: std::ops::Range<u64>, _num_players: usize) -> u64 {
        ticks.end.saturating_sub(ticks.start) * self.k as u64
    }

    fn name(&self) -> &'static str {
        "random_block"
    }
}

/// The graph-colouring schedule: tick `t` revises colour class
/// `t mod num_classes` of a proper colouring of the interaction graph, as a
/// parallel block; a *round* of `num_classes` consecutive ticks revises
/// every player exactly once.
///
/// For a [`LocalGame`] each class is an independent set, so the parallel
/// block update is exactly equivalent to revising the class sequentially —
/// the correct parallelisation of the dynamics, and the schedule the
/// genuinely parallel [`DynamicsEngine::step_coloured_pooled_bytes`] path
/// executes.
/// Selection consumes no randomness. The colouring is shared by reference,
/// so cloning the schedule copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColouredBlocks {
    coloring: Arc<Coloring>,
}

impl ColouredBlocks {
    /// Creates the schedule from a colouring, owned or already shared (use
    /// [`Coloring::is_proper`] against the interaction graph when the
    /// colouring does not come from one of the constructions here).
    pub fn new(coloring: impl Into<Arc<Coloring>>) -> Self {
        Self {
            coloring: coloring.into(),
        }
    }

    /// Colours `game`'s interaction graph via [`coloring_for_game`]
    /// (scale-aware DSATUR/greedy choice) and wraps it.
    pub fn for_game<G: LocalGame>(game: &G) -> Self {
        Self::new(coloring_for_game(game))
    }

    /// The underlying colouring.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }
}

impl SelectionSchedule for ColouredBlocks {
    fn select_players<R: Rng + ?Sized>(
        &self,
        t: u64,
        num_players: usize,
        _rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        assert_eq!(
            num_players,
            self.coloring.num_vertices(),
            "colouring covers a different player count"
        );
        out.clear();
        out.extend_from_slice(self.coloring.class(self.coloring.class_of_tick(t)));
    }

    fn parallel(&self) -> bool {
        true
    }

    /// Whole rounds revise every player once; a partial round revises its
    /// classes.
    fn updates_in(&self, ticks: std::ops::Range<u64>, num_players: usize) -> u64 {
        let classes = self.coloring.num_classes() as u64;
        let before = |t: u64| {
            let partial: u64 = (0..(t % classes) as usize)
                .map(|c| self.coloring.class(c).len() as u64)
                .sum();
            t / classes * num_players as u64 + partial
        };
        if classes == 0 || ticks.end <= ticks.start {
            return 0;
        }
        before(ticks.end) - before(ticks.start)
    }

    fn name(&self) -> &'static str {
        "coloured_blocks"
    }
}

/// A proper colouring of `game`'s interaction graph — the
/// `GraphBuilder`-topology-to-schedule bridge in one call: any
/// [`LocalGame`] (graphical coordination or Ising on a builder topology, a
/// congestion game with its implicit resource-sharing graph, …) comes back
/// as a [`Coloring`] ready for [`ColouredBlocks`] and the parallel engine
/// path, coloured by [`coloring_for_graph`]'s scale-aware choice (DSATUR
/// within its caps, first-fit greedy beyond them).
pub fn coloring_for_game<G: LocalGame>(game: &G) -> Coloring {
    coloring_for_graph(&interaction_graph(game))
}

/// SplitMix64 finaliser: decorrelates the per-player stream seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed of player `player`'s revision randomness at tick
/// `t` — a counter-mode hash, not a position in a shared stream.
///
/// Per-player streams are what make the parallel independent-set update
/// order-free: each player's strategy draw depends only on
/// `(seed, player, t)`, never on which worker ran her or in what order — so
/// the parallel path and the sequential class sweep consume identical
/// randomness per player and walk identical trajectories.
pub fn player_tick_seed(seed: u64, player: usize, t: u64) -> u64 {
    // Chained finaliser applications: splitmix64 is a bijection, so for a
    // fixed tick distinct players always get distinct seeds.
    let h = splitmix64(seed ^ 0xC010_12ED_5EED_0001);
    let h = splitmix64(h.wrapping_add(t));
    splitmix64(h.wrapping_add(player as u64))
}

/// The single uniform variate behind player `player`'s strategy draw at
/// tick `t`: the top 53 bits of [`player_tick_seed`] mapped into `[0, 1)`.
///
/// One inverse-CDF draw is all a revision consumes (the update rule packs
/// every other source of randomness into the probability vector), so a
/// counter-derived variate — a few integer mixes, no generator state — is a
/// complete per-player stream. Every counter-keyed coloured sweep samples
/// from this, which keeps the per-update cost at sequential-stepping parity
/// on one core while making the update order unobservable on many.
pub fn player_tick_uniform(seed: u64, player: usize, t: u64) -> f64 {
    (player_tick_seed(seed, player, t) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<G: LocalGame, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick, sequential reference path: the players of colour
    /// class `t mod num_classes` revise one at a time **in place** (each
    /// seeing the previous updates of the same tick), every player drawing
    /// from her own `(seed, player, t)` stream. Returns the number of
    /// players that moved.
    ///
    /// Because the class is an independent set of a [`LocalGame`]'s
    /// interaction graph, no player in it can observe another's same-tick
    /// update — which is exactly why the byte engine
    /// ([`Self::step_coloured_bytes`], and
    /// [`Self::step_coloured_pooled_bytes`] on a frozen profile with any
    /// worker count) is bit-identical to this sweep. Each distribution is
    /// read through [`Self::update_distribution_into`], as in
    /// [`Self::transition_matrix_coloured_block`], so the sweep ties the
    /// byte engine to the exact round chain.
    ///
    /// # Panics
    /// Panics when the colouring's vertex count differs from the player
    /// count.
    pub fn step_coloured(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        profile: &mut [usize],
        scratch: &mut Scratch,
    ) -> usize {
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let class = coloring.class_of_tick(t);
        let mut moved = 0;
        for &player in coloring.class(class) {
            self.update_distribution_into(player, profile, scratch);
            let strategy =
                sample_index_from_uniform(scratch.probs(), player_tick_uniform(seed, player, t));
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        moved
    }
}

impl<G: logit_games::Game, U: UpdateRule> DynamicsEngine<G, U> {
    /// The exact transition matrix of one coloured block tick for `class`:
    /// every player of the class revises against the frozen profile, the
    /// rest stay put — `P_C(x, y) = Π_{i ∈ C} σ_i(y_i | x)` when `y` agrees
    /// with `x` off `C`, else 0.
    ///
    /// For a proper colouring of a [`LocalGame`] this equals the ordered
    /// product of the class's single-player kernels (non-neighbours
    /// commute) — the identity the test harness pins.
    pub fn transition_matrix_coloured_block(&self, coloring: &Coloring, class: usize) -> Matrix {
        let space = self.space();
        let size = space.size();
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        let players = coloring.class(class);
        let mut in_class = vec![false; n];
        for &i in players {
            in_class[i] = true;
        }
        let mut p = Matrix::zeros(size, size);
        let mut scratch = Scratch::for_game(self.game());
        let mut profile = vec![0usize; n];
        let mut per_player: Vec<Vec<f64>> = vec![Vec::new(); players.len()];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            for (&player, probs) in players.iter().zip(per_player.iter_mut()) {
                self.update_distribution_into(player, &mut profile, &mut scratch);
                probs.clear();
                probs.extend_from_slice(scratch.probs());
            }
            'targets: for y in 0..size {
                let mut prob = 1.0;
                for i in 0..n {
                    if !in_class[i] && space.strategy_of(y, i) != profile[i] {
                        continue 'targets;
                    }
                }
                for (&player, probs) in players.iter().zip(per_player.iter()) {
                    prob *= probs[space.strategy_of(y, player)];
                    if prob == 0.0 {
                        break;
                    }
                }
                p[(x, y)] = prob;
            }
        }
        p
    }

    /// The exact transition matrix of one full coloured **round** — every
    /// colour class once, in colour order: the ordered block product
    /// `P_{C_0} · P_{C_1} ⋯ P_{C_{m−1}}`. One round equals `n` player
    /// updates, like a systematic sweep (and for a proper colouring of a
    /// `LocalGame` it *is* a sweep in a permuted player order, so the round
    /// chain keeps the Gibbs measure stationary for the reversible rules —
    /// where the all-logit block chain does not).
    pub fn transition_matrix_coloured_round(&self, coloring: &Coloring) -> Matrix {
        let mut p = self.transition_matrix_coloured_block(coloring, 0);
        for class in 1..coloring.num_classes() {
            p = p.matmul(&self.transition_matrix_coloured_block(coloring, class));
        }
        p
    }

    /// The coloured round matrix as a validated Markov chain — the exact
    /// object [`ColouredBlocks`] simulates, in the style of
    /// [`transition_chain_all_logit`](crate::dynamics::DynamicsEngine::transition_chain_all_logit).
    pub fn transition_chain_coloured_round(&self, coloring: &Coloring) -> MarkovChain {
        MarkovChain::new(self.transition_matrix_coloured_round(coloring))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse};
    use crate::runtime::{RuntimeConfig, WorkerPool};
    use crate::schedules::AllLogit;
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, IsingGame};
    use logit_graphs::{greedy_coloring, GraphBuilder};
    use logit_markov::{stationary_distribution, total_variation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring_dynamics(n: usize, beta: f64) -> LogitDynamics<GraphicalCoordinationGame> {
        LogitDynamics::new(
            GraphicalCoordinationGame::new(
                GraphBuilder::ring(n),
                CoordinationGame::from_deltas(2.0, 1.0),
            ),
            beta,
        )
    }

    fn widened(bytes: &[u8]) -> Vec<usize> {
        bytes.iter().map(|&s| s as usize).collect()
    }

    #[test]
    fn random_block_selects_k_distinct_sorted_players() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for k in 1..=6 {
            let schedule = RandomBlock::new(k);
            assert!(schedule.parallel());
            assert_eq!(schedule.block_size(), k);
            for t in 0..50 {
                schedule.select_players(t, 6, &mut rng, &mut out);
                assert_eq!(out.len(), k, "exactly k players per tick");
                assert!(out.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
                assert!(out.iter().all(|&p| p < 6));
            }
        }
        // k = n selects everyone — the AllLogit update set.
        RandomBlock::new(6).select_players(0, 6, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn random_block_consumes_exactly_k_draws() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        RandomBlock::new(3).select_players(0, 10, &mut a, &mut out);
        for j in 7..10usize {
            let _ = b.gen_range(0..j + 1);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams in the same spot");
    }

    #[test]
    #[should_panic(expected = "exceeds the player count")]
    fn oversized_random_block_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        RandomBlock::new(7).select_players(0, 6, &mut rng, &mut out);
    }

    #[test]
    fn coloured_blocks_cycle_classes_and_consume_no_randomness() {
        let coloring = greedy_coloring(&GraphBuilder::ring(6));
        let schedule = ColouredBlocks::new(coloring.clone());
        assert!(schedule.parallel());
        assert_eq!(schedule.name(), "coloured_blocks");
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        for t in 0..6u64 {
            schedule.select_players(t, 6, &mut rng, &mut out);
            assert_eq!(out, coloring.class(coloring.class_of_tick(t)));
        }
        let mut fresh = StdRng::seed_from_u64(5);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "no draws consumed");
    }

    #[test]
    fn coloured_step_paths_are_bit_identical_for_every_worker_count() {
        let d = ring_dynamics(12, 1.3);
        let coloring = coloring_for_game(d.game());
        let mut scratch = Scratch::for_game(d.game());
        let mut pooled_scratch = Scratch::for_game(d.game());
        let seed = 0xC0DE;
        for workers in [0usize, 1, 2, 3, 5] {
            let config = RuntimeConfig {
                workers,
                min_class_size: 0,
                ..RuntimeConfig::default()
            };
            let pool = WorkerPool::new(&config);
            let mut seq = vec![0usize; 12];
            let mut par = vec![0u8; 12];
            for t in 0..40u64 {
                let moved_seq = d.step_coloured(&coloring, t, seed, &mut seq, &mut scratch);
                let moved_par = d.step_coloured_pooled_bytes(
                    &coloring,
                    t,
                    seed,
                    None,
                    &mut par,
                    &mut pooled_scratch,
                    &pool,
                    &config,
                );
                assert_eq!(
                    seq,
                    widened(&par),
                    "diverged at t = {t} with {workers} workers"
                );
                assert_eq!(moved_seq, moved_par);
            }
        }
    }

    #[test]
    fn narrow_classes_bypass_the_pool_entirely() {
        let d = ring_dynamics(12, 1.3);
        let coloring = coloring_for_game(d.game());
        let widest = (0..coloring.num_classes())
            .map(|c| coloring.class(c).len())
            .max()
            .expect("at least one class");

        // Threshold above every class width: all ticks must run the inline
        // sequential sweep, so the pool's dispatch counter stays at zero.
        let narrow = RuntimeConfig {
            workers: 3,
            min_class_size: widest + 1,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&narrow);
        let mut scratch = Scratch::for_game(d.game());
        let mut inline_profile = vec![0u8; 12];
        for t in 0..2 * coloring.num_classes() as u64 {
            d.step_coloured_pooled_bytes(
                &coloring,
                t,
                7,
                None,
                &mut inline_profile,
                &mut scratch,
                &pool,
                &narrow,
            );
        }
        assert_eq!(
            pool.dispatches(),
            0,
            "classes below min_class_size must never reach the pool"
        );

        // Threshold zero: every (multi-player) class must dispatch, and the
        // trajectory must not change — only the execution strategy does.
        let wide = RuntimeConfig {
            workers: 3,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        let mut pooled_profile = vec![0u8; 12];
        for t in 0..2 * coloring.num_classes() as u64 {
            d.step_coloured_pooled_bytes(
                &coloring,
                t,
                7,
                None,
                &mut pooled_profile,
                &mut scratch,
                &pool,
                &wide,
            );
        }
        assert!(
            pool.dispatches() > 0,
            "wide classes above the threshold must engage the pool"
        );
        assert_eq!(
            inline_profile, pooled_profile,
            "the threshold changes the execution strategy, never the trajectory"
        );
    }

    #[test]
    fn coloured_round_hits_every_player_exactly_once() {
        let d = ring_dynamics(9, 0.9);
        let coloring = coloring_for_game(d.game());
        let mut hits = [0usize; 9];
        for t in 0..coloring.num_classes() as u64 {
            for &p in coloring.class(coloring.class_of_tick(t)) {
                hits[p] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn coloured_block_matrix_is_the_product_of_the_class_kernels() {
        // The commutation identity: for a proper colouring of a LocalGame,
        // the frozen-profile block kernel of a class equals the ordered
        // product of its single-player kernels.
        let d = ring_dynamics(4, 1.1);
        let coloring = coloring_for_game(d.game());
        for class in 0..coloring.num_classes() {
            let block = d.transition_matrix_coloured_block(&coloring, class);
            assert!(block.is_row_stochastic(1e-9));
            let players = coloring.class(class);
            let mut product = d.player_kernel(players[0]);
            for &p in &players[1..] {
                product = product.matmul(&d.player_kernel(p));
            }
            assert!(
                block.max_abs_diff(&product) < 1e-12,
                "class {class} block differs from its kernel product"
            );
        }
    }

    #[test]
    fn coloured_round_chain_keeps_gibbs_stationary_where_all_logit_drifts() {
        // Moderate beta: the all-logit drift from Gibbs is clearest here
        // (TV ~ 8e-2 on this game; it shrinks again at high beta).
        let beta = 1.0;
        let d = ring_dynamics(5, beta);
        let coloring = coloring_for_game(d.game());
        let round = d.transition_chain_coloured_round(&coloring);
        assert!(round.is_ergodic());
        let gibbs = d.gibbs();
        let pi_round = stationary_distribution(&round);
        assert!(
            total_variation(&pi_round, &gibbs) < 1e-9,
            "the coloured round must keep Gibbs stationary"
        );
        // The all-logit block chain's stationary law is a different object.
        let pi_block = stationary_distribution(&d.transition_chain_all_logit());
        assert!(total_variation(&pi_block, &gibbs) > 1e-3);
    }

    #[test]
    fn coloured_paths_cover_every_rule_on_an_ising_torus() {
        let game = IsingGame::zero_field(GraphBuilder::torus(3, 4), 0.8);
        let coloring = coloring_for_game(&game);
        assert!(coloring.is_proper(&interaction_graph(&game)));
        fn check<U: UpdateRule>(game: &IsingGame, coloring: &Coloring, rule: U) {
            let config = RuntimeConfig {
                workers: 3,
                min_class_size: 0,
                ..RuntimeConfig::default()
            };
            let pool = WorkerPool::new(&config);
            let d = DynamicsEngine::with_rule(game.clone(), rule, 1.2);
            let mut scratch = Scratch::for_game(game);
            let mut pooled_scratch = Scratch::for_game(game);
            let mut seq = vec![0usize; 12];
            let mut par = vec![0u8; 12];
            for t in 0..3 * coloring.num_classes() as u64 {
                d.step_coloured(coloring, t, 7, &mut seq, &mut scratch);
                d.step_coloured_pooled_bytes(
                    coloring,
                    t,
                    7,
                    None,
                    &mut par,
                    &mut pooled_scratch,
                    &pool,
                    &config,
                );
                assert_eq!(seq, widened(&par), "rule diverged at t = {t}");
            }
        }
        check(&game, &coloring, Logit);
        check(&game, &coloring, MetropolisLogit);
        check(&game, &coloring, NoisyBestResponse::new(0.2));
        check(&game, &coloring, Fermi);
        check(&game, &coloring, ImitateBetter::new(0.1));
    }

    /// The law gate of the counter-keyed draws: `RUNS` sweeps of the pooled
    /// byte engine from all-zeros, run `r` keyed by seed `r`, end one round
    /// (and three rounds) later on each profile with the probability the
    /// exact round chain gives it, up to a TV margin fixed from the exact
    /// row before sampling. The margin bounds `E[TV]` by Jensen,
    /// `½ Σᵢ √(pᵢ(1 − pᵢ)/R)`, and adds McDiarmid's deviation
    /// `√(ln(1/α)/(2R))` (one run moves the TV by at most `1/R`), so a
    /// correct engine fails with probability at most `α`. The same samples
    /// must be rejected against the round law at β = 0.
    #[test]
    fn counter_keyed_rounds_sample_the_exact_round_law() {
        const RUNS: usize = 40_000;
        const ALPHA: f64 = 1e-9;
        fn margin(row: &[f64]) -> f64 {
            let r = RUNS as f64;
            0.5 * row.iter().map(|&p| (p * (1.0 - p) / r).sqrt()).sum::<f64>()
                + ((1.0 / ALPHA).ln() / (2.0 * r)).sqrt()
        }
        fn tv(counts: &[usize], row: &[f64]) -> f64 {
            let r = RUNS as f64;
            0.5 * counts
                .iter()
                .zip(row)
                .map(|(&c, &p)| (c as f64 / r - p).abs())
                .sum::<f64>()
        }
        fn check<G: LocalGame + Clone + Sync, U: UpdateRule + Clone>(game: &G, rule: U, beta: f64) {
            let coloring = coloring_for_game(game);
            let d = DynamicsEngine::with_rule(game.clone(), rule.clone(), beta);
            let space = d.space();
            let n = game.num_players();
            let zeros = space.index_of(&vec![0; n]);
            // The rows of the exact one- and three-round laws from all-zeros.
            let rows = |beta: f64| {
                let round = DynamicsEngine::with_rule(game.clone(), rule.clone(), beta)
                    .transition_matrix_coloured_round(&coloring);
                let three = round.matmul(&round).matmul(&round);
                [round.row(zeros).to_vec(), three.row(zeros).to_vec()]
            };
            let (laws, null_laws) = (rows(beta), rows(0.0));
            let margins = laws.each_ref().map(|row| margin(row));
            let null_margins = null_laws.each_ref().map(|row| margin(row));

            let config = RuntimeConfig {
                workers: 2,
                min_class_size: 1,
                block_players: 1,
            };
            let pool = WorkerPool::new(&config);
            let mut scratch = Scratch::for_game(game);
            let classes = coloring.num_classes() as u64;
            let mut counts = [vec![0usize; space.size()], vec![0usize; space.size()]];
            let mut bytes = vec![0u8; n];
            for run in 0..RUNS as u64 {
                bytes.fill(0);
                for t in 0..3 * classes {
                    d.step_coloured_pooled_bytes(
                        &coloring,
                        t,
                        run,
                        None,
                        &mut bytes,
                        &mut scratch,
                        &pool,
                        &config,
                    );
                    if t + 1 == classes {
                        counts[0][space.index_of(&widened(&bytes))] += 1;
                    }
                }
                counts[1][space.index_of(&widened(&bytes))] += 1;
            }
            for (k, rounds) in [1, 3].into_iter().enumerate() {
                let distance = tv(&counts[k], &laws[k]);
                assert!(
                    distance <= margins[k],
                    "{} after {rounds} round(s): TV {distance:.4} above the margin {:.4}",
                    rule.name(),
                    margins[k]
                );
                let null_distance = tv(&counts[k], &null_laws[k]);
                assert!(
                    null_distance > null_margins[k],
                    "{} after {rounds} round(s): the beta = 0 law was not rejected (TV {null_distance:.4}, margin {:.4})",
                    rule.name(),
                    null_margins[k]
                );
            }
        }
        let ring = GraphicalCoordinationGame::new(
            GraphBuilder::ring(6),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        check(&ring, Logit, 1.0);
        check(&ring, MetropolisLogit, 1.0);
        // Odd, so three classes.
        let ising = IsingGame::new(GraphBuilder::ring(7), 0.8, 0.25);
        assert_eq!(coloring_for_game(&ising).num_classes(), 3);
        check(&ising, Logit, 1.0);
    }

    #[test]
    fn scheduled_coloured_blocks_freeze_the_other_classes() {
        let d = ring_dynamics(8, 60.0);
        let schedule = ColouredBlocks::for_game(d.game());
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = Scratch::for_game(d.game());
        let mut profile = vec![0usize; 8];
        for t in 0..16u64 {
            let class: std::collections::BTreeSet<usize> = schedule
                .coloring()
                .class(schedule.coloring().class_of_tick(t))
                .iter()
                .copied()
                .collect();
            let before = profile.clone();
            d.step_scheduled(&schedule, t, &mut profile, &mut scratch, &mut rng);
            for i in 0..8 {
                if !class.contains(&i) {
                    assert_eq!(profile[i], before[i], "tick {t} moved off-class player {i}");
                }
            }
        }
    }

    #[test]
    fn random_block_runs_through_the_scheduled_engine_at_large_n() {
        use crate::observables::StrategyFraction;
        use crate::simulate::Simulator;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(400),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(23, 4);
        let obs = StrategyFraction::new(0, "zeros");
        // k = 40 players per tick: 200 ticks = 8000 updates.
        let schedule = RandomBlock::new(40);
        let start = vec![1usize; 400];
        let result = sim.run_profiles(&d, &schedule, &start, 200, 50, &obs);
        assert_eq!(result.final_values.len(), 4);
        assert!(result.law().mean() > 0.1, "risk-dominant zeros spread");
        // And the farmed runner is bit-identical through the same schedule.
        let pipelined = sim
            .run_profiles_pipelined(&d, &schedule, &start, 200, 50, &obs, None)
            .expect("uncancelled runs complete");
        assert_eq!(result.final_values, pipelined.final_values);
    }

    #[test]
    fn coloured_blocks_run_through_simulator_pipeline_and_tempering() {
        use crate::observables::PotentialObservable;
        use crate::simulate::Simulator;
        use crate::tempering::TemperingEnsemble;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::torus(3, 3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let schedule = ColouredBlocks::for_game(&game);
        let d = LogitDynamics::new(game.clone(), 1.0);
        let sim = Simulator::new(17, 8);
        let obs = PotentialObservable::new(game.clone());
        let start = vec![0usize; 9];
        let sequential = sim.run_profiles(&d, &schedule, &start, 30, 10, &obs);
        let pipelined = sim
            .run_profiles_pipelined(&d, &schedule, &start, 30, 10, &obs, None)
            .expect("uncancelled runs complete");
        assert_eq!(sequential.final_values, pipelined.final_values);
        assert_eq!(sequential.times, pipelined.times);
        // run_tempered accepts the schedule unchanged (Arc<G> is a LocalGame
        // too, so even the coloured engine paths exist on the rungs).
        let ensemble = TemperingEnsemble::new(game, Logit, &[0.5, 1.0]);
        let tempered = sim
            .run_tempered(&ensemble, &schedule, &start, 10, 3, 5, &obs, None)
            .expect("uncancelled runs complete");
        assert_eq!(tempered.final_values.len(), 8);
        let again = sim
            .run_tempered(&ensemble, &schedule, &start, 10, 3, 5, &obs, None)
            .expect("uncancelled runs complete");
        assert_eq!(tempered.final_values, again.final_values);
    }

    #[test]
    fn player_tick_seeds_do_not_collide_locally() {
        let mut seen = std::collections::HashSet::new();
        for player in 0..64 {
            for t in 0..64 {
                assert!(
                    seen.insert(player_tick_seed(0xABCD, player, t)),
                    "seed collision at player {player}, tick {t}"
                );
            }
        }
    }

    #[test]
    fn coloring_for_game_colours_the_implicit_congestion_graph() {
        let game = logit_games::CongestionGame::load_balancing(5, 2, 1.0);
        // Load balancing couples every pair: the interaction graph is K5,
        // so the colouring needs 5 classes of one player each.
        let coloring = coloring_for_game(&game);
        assert_eq!(coloring.num_classes(), 5);
        assert!(coloring.classes().all(|c| c.len() == 1));
    }

    #[test]
    fn all_logit_remains_a_different_dynamics_than_coloured_rounds() {
        // Sanity cross-check of the module claim: at huge beta the
        // mismatched two-colour profile oscillates under all-logit but
        // settles under coloured blocks (each class sees the other frozen).
        let d = ring_dynamics(4, 60.0);
        let coloring = coloring_for_game(d.game());
        let mut rng = StdRng::seed_from_u64(6);
        let mut scratch = Scratch::for_game(d.game());
        let mut all_logit = vec![0usize, 1, 0, 1];
        d.step_scheduled(&AllLogit, 0, &mut all_logit, &mut scratch, &mut rng);
        assert_eq!(all_logit, vec![1, 0, 1, 0], "all-logit anti-coordinates");
        let mut coloured = vec![0usize, 1, 0, 1];
        let schedule = ColouredBlocks::new(coloring);
        for t in 0..2 {
            d.step_scheduled(&schedule, t, &mut coloured, &mut scratch, &mut rng);
        }
        let consensus = coloured.iter().all(|&s| s == coloured[0]);
        assert!(
            consensus,
            "a coloured round reaches consensus: {coloured:?}"
        );
    }
}
