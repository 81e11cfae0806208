//! Property-based tests for the logit dynamics itself.

use logit_core::observables::PotentialObservable;
use logit_core::parallel::{coloring_for_game, ColouredBlocks, RandomBlock};
use logit_core::rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, UpdateRule};
use logit_core::schedules::{AllLogit, SelectionSchedule, SystematicSweep, UniformSingle};
use logit_core::{
    gibbs_distribution, zeta, zeta_brute_force, DynamicsEngine, LogitDynamics, Scratch, Simulator,
    TemperingEnsemble,
};
use logit_games::{
    interaction_graph, CoordinationGame, Game, GraphicalCoordinationGame, IsingGame, LocalGame,
    PotentialGame, TablePotentialGame,
};
use logit_graphs::GraphBuilder;
use logit_markov::{stationary_distribution, total_variation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A verbatim copy of the pre-refactor `LogitDynamics::step_profile` hot
/// path (softmax via log-sum-exp, inverse-CDF sampling), used to pin the
/// refactored engine to the exact trajectories the old engine produced.
///
/// A sibling reference copy lives in `crates/bench/src/bin/bench_engines.rs`
/// (`legacy_logit_steps_per_sec`): that one pins *throughput parity*, this
/// one pins *bit-identical trajectories*; keep both in sync with the
/// historical hot path.
fn legacy_step_profile<G: Game, R: Rng + ?Sized>(
    game: &G,
    beta: f64,
    profile: &mut [usize],
    rng: &mut R,
) {
    let n = game.num_players();
    let player = rng.gen_range(0..n);
    let m = game.num_strategies(player);
    let mut utils = vec![0.0; m];
    game.utilities_for(player, profile, &mut utils);
    let max = utils
        .iter()
        .map(|&u| beta * u)
        .fold(f64::NEG_INFINITY, f64::max);
    let probs: Vec<f64> = utils.iter().map(|&u| (beta * u - max).exp()).collect();
    let total: f64 = probs.iter().sum();
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut chosen = m - 1;
    for (s, &p) in probs.iter().enumerate() {
        acc += p / total;
        if u < acc {
            chosen = s;
            break;
        }
    }
    profile[player] = chosen;
}

/// Steps the `Logit` engine and the legacy loop side by side from `start`
/// on one seed: the profiles must agree after every step, and the RNG
/// streams must end in the same position.
fn check_legacy_replay<G: Game + Clone>(
    game: &G,
    beta: f64,
    start: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    let d = LogitDynamics::new(game.clone(), beta);
    let mut rng_new = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut rng_old = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut scratch = Scratch::for_game(game);
    let mut prof_new = start.to_vec();
    let mut prof_old = start.to_vec();
    for t in 0..150 {
        d.step_profile(&mut prof_new, &mut scratch, &mut rng_new);
        legacy_step_profile(game, beta, &mut prof_old, &mut rng_old);
        prop_assert_eq!(
            &prof_new,
            &prof_old,
            "diverged from legacy engine at step {}",
            t
        );
    }
    prop_assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The transition matrix of eq. (3) is row-stochastic and ergodic for every
    /// random potential game and every β.
    #[test]
    fn transition_matrix_is_valid(seed in 0u64..10_000, beta in 0.0f64..4.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3], 3.0, &mut rng);
        let d = LogitDynamics::new(game, beta);
        let chain = d.transition_chain();
        prop_assert!(chain.is_ergodic());
    }

    /// For potential games the Gibbs measure is stationary and the chain is
    /// reversible with respect to it (eq. 4 + the detailed-balance remark).
    #[test]
    fn gibbs_is_stationary_and_reversible(seed in 0u64..10_000, beta in 0.0f64..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2, 2], 2.0, &mut rng);
        let d = LogitDynamics::new(game.clone(), beta);
        let chain = d.transition_chain();
        let gibbs = gibbs_distribution(&game, beta);
        let linear = stationary_distribution(&chain);
        prop_assert!(total_variation(&gibbs, &linear) < 1e-7);
        prop_assert!(chain.is_reversible(&gibbs, 1e-7));
    }

    /// Theorem 3.1: every eigenvalue of the logit chain of a potential game is
    /// non-negative, hence λ* = λ₂ and t_rel = 1/(1-λ₂).
    #[test]
    fn theorem_3_1_nonnegative_spectrum(seed in 0u64..10_000, beta in 0.0f64..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2, 2], 2.0, &mut rng);
        let m = logit_core::exact_mixing_time(&game, beta, 0.25, 1 << 20);
        prop_assert!(m.lambda_min >= -1e-8, "negative eigenvalue {}", m.lambda_min);
    }

    /// The update distribution is a proper distribution and favours higher
    /// utility strategies (for β > 0).
    #[test]
    fn update_distribution_is_monotone_in_utility(seed in 0u64..10_000, beta in 0.01f64..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![3, 2], 2.0, &mut rng);
        let d = LogitDynamics::new(game.clone(), beta);
        let space = game.profile_space();
        for idx in space.indices() {
            let profile = space.profile_of(idx);
            let probs = d.update_distribution(0, &profile);
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Higher-utility strategies get (weakly) higher probabilities.
            let mut utils = Vec::new();
            for s in 0..3 {
                let mut p = profile.clone();
                p[0] = s;
                utils.push(game.utility(0, &p));
            }
            for a in 0..3 {
                for b in 0..3 {
                    if utils[a] > utils[b] {
                        prop_assert!(probs[a] >= probs[b] - 1e-12);
                    }
                }
            }
        }
    }

    /// The union-find ζ always matches the brute-force reference.
    #[test]
    fn zeta_union_find_is_correct(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2, 2], 3.0, &mut rng);
        let fast = zeta(&game).zeta;
        let slow = zeta_brute_force(&game);
        prop_assert!((fast - slow).abs() < 1e-9);
        // ζ is at most ΔΦ and at least 0.
        prop_assert!(fast >= -1e-12);
        prop_assert!(fast <= game.max_global_variation() + 1e-9);
    }

    /// Engine equivalence, trajectory level: the in-place profile engine and
    /// the flat-index engine consume the RNG stream identically, so from the
    /// same seed they walk the same trajectory — on any random potential
    /// game, any β, any start profile.
    #[test]
    fn engines_walk_identical_trajectories(
        seed in 0u64..10_000,
        beta in 0.0f64..4.0,
        start_raw in 0usize..1000,
    ) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2], 3.0, &mut game_rng);
        let d = LogitDynamics::new(game, beta);
        let space = d.space().clone();
        let start = start_raw % space.size();

        let mut rng_flat = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut rng_prof = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut scratch = Scratch::for_game(d.game());
        let mut state = start;
        let mut profile = space.profile_of(start);
        for _ in 0..120 {
            state = d.step(state, &mut rng_flat);
            d.step_profile(&mut profile, &mut scratch, &mut rng_prof);
            prop_assert_eq!(space.index_of(&profile), state);
        }
    }

    /// Engine equivalence, ensemble level: `Simulator::run` (flat) and
    /// `Simulator::run_profiles` (in-place) derive identical per-replica
    /// streams, so the final-time empirical observable laws agree exactly —
    /// a far stronger property than the sampling-tolerance agreement any
    /// correct pair of engines would show.
    #[test]
    fn ensemble_empirical_laws_agree(seed in 0u64..10_000, beta in 0.0f64..3.0) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2, 3], 2.0, &mut game_rng);
        let d = LogitDynamics::new(game.clone(), beta);
        let space = d.space().clone();
        let sim = Simulator::new(seed ^ 0x5117, 32);

        let flat = sim.run(&d, 0, 40, |idx| game.potential(&space.profile_of(idx)));
        let obs = PotentialObservable::new(game.clone());
        let start = space.profile_of(0);
        let prof = sim.run_profiles(&d, &UniformSingle, &start, 40, 10, &obs);

        let flat_finals: Vec<f64> = flat
            .final_states
            .iter()
            .map(|&idx| game.potential(&space.profile_of(idx)))
            .collect();
        prop_assert_eq!(&flat_finals, &prof.final_values);
        // And through the law abstraction: KS distance exactly zero.
        let flat_law = logit_core::EmpiricalLaw::from_samples(flat_finals);
        prop_assert!(prof.law().ks_distance(&flat_law) == 0.0);
    }

    /// The batch utilities hook agrees with per-strategy utility calls on
    /// arbitrary games (the default implementation and any override).
    #[test]
    fn utilities_for_matches_pointwise_utilities(seed in 0u64..10_000, profile_raw in 0usize..1000) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![3, 2, 2], 2.0, &mut game_rng);
        let space = game.profile_space();
        let mut profile = space.profile_of(profile_raw % space.size());
        for player in 0..game.num_players() {
            let m = game.num_strategies(player);
            let mut out = vec![0.0; m];
            let before = profile.clone();
            game.utilities_for(player, &mut profile, &mut out);
            prop_assert_eq!(&before, &profile, "profile must be restored");
            for (s, &u) in out.iter().enumerate() {
                let mut varied = profile.clone();
                varied[player] = s;
                prop_assert!((u - game.utility(player, &varied)).abs() < 1e-12);
            }
        }
    }

    /// The streamed time series of the profile ensemble is internally
    /// consistent: one stat per recorded time, every stat over all replicas,
    /// and the last series entry matches the final-value law.
    #[test]
    fn streaming_series_is_consistent(seed in 0u64..10_000, beta in 0.0f64..2.0) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2, 2], 2.0, &mut game_rng);
        let d = LogitDynamics::new(game.clone(), beta);
        let obs = PotentialObservable::new(game.clone());
        let sim = Simulator::new(seed, 16);
        let result = sim.run_profiles(&d, &UniformSingle, &[0, 0, 0], 33, 10, &obs);
        prop_assert_eq!(&result.times, &vec![10u64, 20, 30, 33]);
        prop_assert_eq!(result.series.len(), result.times.len());
        for stats in &result.series {
            prop_assert_eq!(stats.count(), 16);
        }
        let last = result.series.last().unwrap();
        let law = result.law();
        prop_assert!((last.mean() - law.mean()).abs() < 1e-12);
        prop_assert!((last.min() - law.min()).abs() < 1e-12);
        prop_assert!((last.max() - law.max()).abs() < 1e-12);
    }

    /// Detailed balance, satellite check: on small random potential games the
    /// `Logit` and `MetropolisLogit` uniform-selection chains both have
    /// stationary distribution equal to `gibbs()` — verified exactly on the
    /// sparse transition matrix, entrywise (`π_x P_{xy} = π_y P_{yx}`) and as
    /// a fixed point (`π P = π`).
    #[test]
    fn logit_and_metropolis_satisfy_detailed_balance_wrt_gibbs(
        seed in 0u64..10_000,
        beta in 0.0f64..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut rng);
        let pi = gibbs_distribution(&game, beta);

        fn check<G, U>(d: &DynamicsEngine<G, U>, pi: &logit_linalg::Vector) -> Result<(), TestCaseError>
        where
            G: PotentialGame,
            U: UpdateRule,
        {
            let sparse = d.transition_sparse();
            prop_assert!(sparse.is_row_stochastic(1e-9));
            let p = sparse.to_dense();
            let size = p.nrows();
            // Entrywise detailed balance w.r.t. the Gibbs measure...
            for x in 0..size {
                for y in 0..size {
                    prop_assert!(
                        (pi[x] * p[(x, y)] - pi[y] * p[(y, x)]).abs() < 1e-9,
                        "detailed balance fails at ({x}, {y})"
                    );
                }
            }
            // ...hence Gibbs is a fixed point of the chain.
            let pi_next = sparse.vecmat(pi);
            prop_assert!(total_variation(&pi_next, pi) < 1e-9);
            Ok(())
        }

        check(&LogitDynamics::new(game.clone(), beta), &pi)?;
        check(&DynamicsEngine::with_rule(game.clone(), MetropolisLogit, beta), &pi)?;
        // The Fermi pairwise-comparison rule shares the acceptance ratio
        // e^{βΔ}, hence the same reversibility (its satellite pin).
        check(&DynamicsEngine::with_rule(game, Fermi, beta), &pi)?;
    }

    /// Backward-compatibility pin, satellite check: the `Logit` rule's
    /// trajectories through the refactored generic engine are bit-identical
    /// to the pre-refactor engine (verbatim reference implementation above)
    /// from the same seed — same player draws, same strategy draws, step by
    /// step, on any random potential game and any β. The graph games take
    /// the engine's count table, so they pin it too: a graphical game with
    /// non-dyadic payoffs, and an Ising model with a field on an irregular
    /// graph that may leave players isolated.
    #[test]
    fn logit_rule_is_bit_identical_to_the_pre_refactor_engine(
        seed in 0u64..10_000,
        beta in 0.0f64..5.0,
        start_raw in 0usize..1000,
        n in 2usize..16,
        p in 0.05f64..0.8,
        payoff in 0.01f64..3.0,
    ) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2], 3.0, &mut game_rng);
        let space = game.profile_space();
        let start = space.profile_of(start_raw % space.size());
        check_legacy_replay(&game, beta, &start, seed)?;

        let graph = GraphBuilder::erdos_renyi(n, p, &mut game_rng);
        let start: Vec<usize> = (0..n).map(|i| (start_raw >> (i % 10)) & 1).collect();
        let base = CoordinationGame::new(1.3 + payoff, 0.7 + payoff / 3.0, 0.1 * payoff, 0.2);
        let graphical = GraphicalCoordinationGame::new(graph.clone(), base);
        check_legacy_replay(&graphical, beta, &start, seed)?;
        let ising = IsingGame::new(graph, 0.5 + payoff, payoff - 1.5);
        check_legacy_replay(&ising, beta, &start, seed)?;
    }

    /// Tempering swap kernel, satellite check: for a two-rung ladder on a
    /// random tiny potential game, the exact swap kernel and the exact tensor
    /// sweep are both entrywise reversible w.r.t. the *product* Gibbs measure
    /// `π(x, y) ∝ e^{−β_hot Φ(x) − β_cold Φ(y)}`, and the composed tempering
    /// round fixes it — for the logit and the Metropolis rule alike. This is
    /// the game-level twin of the chain-level proptests in
    /// `crates/markov/tests/proptest_product.rs`.
    #[test]
    fn tempering_swap_kernel_satisfies_detailed_balance_wrt_product_gibbs(
        seed in 0u64..10_000,
        beta_hot in 0.0f64..1.0,
        beta_gap in 0.1f64..2.0,
        sweep_ticks in 1u64..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2], 2.0, &mut rng);
        let ladder = [beta_hot, beta_hot + beta_gap];

        fn check<U: UpdateRule>(
            ens: &TemperingEnsemble<TablePotentialGame, U>,
            sweep_ticks: u64,
        ) -> Result<(), TestCaseError> {
            let pi = ens.product_gibbs();
            prop_assert!(pi.is_distribution(1e-9));
            // Entrywise detailed balance of the swap kernel...
            let swap = ens.swap_chain_exact();
            let size = pi.len();
            for s in 0..size {
                for t in 0..size {
                    let forward = pi[s] * swap.prob(s, t);
                    let backward = pi[t] * swap.prob(t, s);
                    prop_assert!(
                        (forward - backward).abs() < 1e-10,
                        "swap detailed balance fails at ({s}, {t})"
                    );
                }
            }
            // ...and of the tensor sweep (both marginal chains are reversible).
            prop_assert!(ens.tensor_chain_exact().is_reversible(&pi, 1e-9));
            // The composed round keeps the product Gibbs measure stationary.
            let round = ens.round_chain_exact(sweep_ticks);
            let stepped = round.step_distribution(&pi);
            prop_assert!(total_variation(&stepped, &pi) < 1e-9);
            Ok(())
        }

        check(&TemperingEnsemble::new(game.clone(), Logit, &ladder), sweep_ticks)?;
        check(&TemperingEnsemble::new(game, MetropolisLogit, &ladder), sweep_ticks)?;
    }

    /// Bit-identity regression, satellite check: a `K = 1` tempering ladder is
    /// a no-op wrapper — its single replica walks exactly the trajectory of
    /// the plain `step_scheduled` engine from the same seed (the tempering
    /// replica stream for rung 0 is the master seed itself, and the swap RNG
    /// is a separate stream that a one-rung ladder never touches).
    #[test]
    fn k1_tempering_ladder_is_bit_identical_to_the_plain_engine(
        seed in 0u64..10_000,
        beta in 0.0f64..4.0,
        sweep_ticks in 1u64..6,
    ) {
        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2], 3.0, &mut game_rng);
        let ens = TemperingEnsemble::new(game.clone(), Logit, &[beta]);
        let mut state = ens.init_state(&[0, 0, 0], seed);

        let plain = LogitDynamics::new(game.clone(), beta);
        // Replica 0's stream seed is `seed ^ 0·odd = seed`.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = Scratch::for_game(&game);
        let mut profile = vec![0usize; 3];

        for round in 0..30u64 {
            let swaps = ens.round(&UniformSingle, &mut state, sweep_ticks);
            prop_assert_eq!(swaps, 0);
            for t in round * sweep_ticks..(round + 1) * sweep_ticks {
                plain.step_scheduled(&UniformSingle, t, &mut profile, &mut scratch, &mut rng);
            }
            prop_assert_eq!(state.cold_profile(), &profile[..], "diverged in round {}", round);
        }
    }

    /// Selection-schedule invariants, satellite check: each schedule updates
    /// exactly the set of players it claims. `UniformSingle` selects one
    /// in-range player per tick and `step_scheduled` moves no one else; a
    /// `SystematicSweep` round of `n` consecutive ticks selects every player
    /// exactly once; `AllLogit` selects all `n` players, in order, every tick.
    #[test]
    fn selection_schedules_update_the_players_they_claim(
        seed in 0u64..10_000,
        beta in 0.0f64..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2, 2], 2.0, &mut rng);
        let n = game.num_players();
        let d = LogitDynamics::new(game.clone(), beta);
        let mut step_rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let mut sel_rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let mut scratch = Scratch::for_game(&game);
        let mut selected = Vec::new();

        // UniformSingle: one in-range player; everyone else frozen. The
        // schedule draws its player from the same stream the step consumes,
        // so probe the selection on a clone of the stepping RNG.
        let mut profile = vec![0usize; n];
        for t in 0..40u64 {
            UniformSingle.select_players(t, n, &mut step_rng.clone(), &mut selected);
            prop_assert_eq!(selected.len(), 1);
            prop_assert!(selected[0] < n);
            let before = profile.clone();
            d.step_scheduled(&UniformSingle, t, &mut profile, &mut scratch, &mut step_rng);
            for i in 0..n {
                if i != selected[0] {
                    prop_assert_eq!(profile[i], before[i], "tick {} froze player {}", t, i);
                }
            }
        }

        // SystematicSweep: every player exactly once per n-tick round, and a
        // tick only ever moves its scheduled player.
        let mut profile = vec![0usize; n];
        for round in 0..6u64 {
            let mut hits = vec![0usize; n];
            for t in round * n as u64..(round + 1) * n as u64 {
                SystematicSweep.select_players(t, n, &mut sel_rng, &mut selected);
                prop_assert_eq!(selected.len(), 1);
                hits[selected[0]] += 1;
                let before = profile.clone();
                d.step_scheduled(&SystematicSweep, t, &mut profile, &mut scratch, &mut step_rng);
                for i in 0..n {
                    if i != selected[0] {
                        prop_assert_eq!(profile[i], before[i]);
                    }
                }
            }
            prop_assert!(hits.iter().all(|&h| h == 1), "sweep round must hit every player once");
        }

        // AllLogit: the full player set, in order, every tick.
        for t in 0..5u64 {
            AllLogit.select_players(t, n, &mut sel_rng, &mut selected);
            prop_assert_eq!(&selected, &(0..n).collect::<Vec<_>>());
        }
    }

    /// Pipelined-runner bit-identity, satellite check (the PR-3 K = 1 ladder
    /// contract style): `run_profiles_pipelined` produces exactly the same
    /// `EmpiricalLaw` samples and `RunningStats` bytes as `run_profiles` —
    /// for every update rule × selection schedule combination, under fixed
    /// per-replica seeds, whatever the chunking, channel capacity and worker
    /// count of the pipeline.
    #[test]
    fn pipelined_ensembles_are_bit_identical_for_every_rule_and_schedule(
        seed in 0u64..10_000,
        beta in 0.0f64..3.0,
        chunk_ticks in 1u64..40,
        channel_capacity in 1usize..6,
        workers in 1usize..5,
    ) {
        use logit_core::{PipelineConfig, RuntimeConfig};

        let mut game_rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut game_rng);
        // Worker count now lives on the Simulator's RuntimeConfig (the farm
        // draws its participants from the persistent pool).
        let runtime = RuntimeConfig { workers, ..RuntimeConfig::default() };
        let sim = Simulator::with_runtime(seed ^ 0x9192, 16, runtime);
        let obs = PotentialObservable::new(game.clone());
        let config = PipelineConfig { chunk_ticks, channel_capacity };

        fn assert_identical(
            a: &logit_core::ProfileEnsembleResult,
            b: &logit_core::ProfileEnsembleResult,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(&a.times, &b.times);
            // Exactly the same EmpiricalLaw samples...
            prop_assert_eq!(&a.final_values, &b.final_values);
            prop_assert!(a.law().ks_distance(&b.law()) == 0.0);
            // ...and exactly the same RunningStats, byte for byte.
            for (sa, sb) in a.series.iter().zip(&b.series) {
                prop_assert_eq!(sa.count(), sb.count());
                prop_assert_eq!(sa.mean(), sb.mean());
                prop_assert_eq!(sa.variance(), sb.variance());
                prop_assert_eq!(sa.min(), sb.min());
                prop_assert_eq!(sa.max(), sb.max());
            }
            Ok(())
        }

        fn check_rule<U: UpdateRule>(
            game: &TablePotentialGame,
            rule: U,
            beta: f64,
            sim: &Simulator,
            obs: &PotentialObservable<TablePotentialGame>,
            config: &logit_core::PipelineConfig,
        ) -> Result<(), TestCaseError> {
            let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
            let start = [0usize, 0, 0];
            // The paper's uniform single-player schedule, farmed with a live
            // (never cancelled) token: the call shape the job server uses.
            let token = logit_core::CancelToken::new();
            assert_identical(
                &sim.run_profiles(&d, &UniformSingle, &start, 33, 10, obs),
                &sim.run_profiles_pipelined(&d, &UniformSingle, &start, 33, 10, obs, config, Some(&token))
                    .expect("an uncancelled token lets the run complete"),
            )?;
            // Every other schedule through the same tick path.
            assert_identical(
                &sim.run_profiles(&d, &SystematicSweep, &start, 33, 10, obs),
                &sim.run_profiles_pipelined(&d, &SystematicSweep, &start, 33, 10, obs, config, None)
                    .expect("uncancelled runs complete"),
            )?;
            assert_identical(
                &sim.run_profiles(&d, &AllLogit, &start, 21, 7, obs),
                &sim.run_profiles_pipelined(&d, &AllLogit, &start, 21, 7, obs, config, None)
                    .expect("uncancelled runs complete"),
            )?;
            // The coloured-revision block schedules ride the same seam.
            let block = RandomBlock::new(2);
            assert_identical(
                &sim.run_profiles(&d, &block, &start, 33, 10, obs),
                &sim.run_profiles_pipelined(&d, &block, &start, 33, 10, obs, config, None)
                    .expect("uncancelled runs complete"),
            )?;
            let coloured = ColouredBlocks::new(logit_graphs::Coloring::from_colors(vec![0, 1, 0]));
            assert_identical(
                &sim.run_profiles(&d, &coloured, &start, 21, 7, obs),
                &sim.run_profiles_pipelined(&d, &coloured, &start, 21, 7, obs, config, None)
                    .expect("uncancelled runs complete"),
            )?;
            Ok(())
        }

        check_rule(&game, Logit, beta, &sim, &obs, &config)?;
        check_rule(&game, MetropolisLogit, beta, &sim, &obs, &config)?;
        check_rule(&game, logit_core::NoisyBestResponse::new(0.15), beta, &sim, &obs, &config)?;
    }

    /// Reducer partition invariance, satellite check: folding observable
    /// sample batches in *any* chunking/arrival order through the
    /// order-restoring `OrderedSeriesReducer` yields exactly (bitwise) the
    /// `RunningStats` and final values of a one-shot replica-major fold.
    #[test]
    fn streamed_reduction_is_partition_invariant(
        seed in 0u64..10_000,
        replicas in 1usize..9,
        num_times in 1usize..6,
    ) {
        use logit_core::{OrderedSeriesReducer, SeriesAccumulator};

        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A57);
        let values: Vec<Vec<f64>> = (0..replicas)
            .map(|_| (0..num_times).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();

        // One-shot reference: the sequential replica-major fold of
        // `run_profiles` (per recorded time, replicas in index order).
        let mut one_shot = SeriesAccumulator::new(num_times);
        for (replica, row) in values.iter().enumerate() {
            for (sample, &v) in row.iter().enumerate() {
                one_shot.record(sample, replica, v);
            }
        }

        // Arbitrary arrival order through the ordered frontier: shuffle all
        // (sample, replica) cells and offer them one by one.
        let mut cells: Vec<(usize, usize)> = (0..num_times)
            .flat_map(|k| (0..replicas).map(move |r| (k, r)))
            .collect();
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.gen_range(0..i + 1));
        }
        let mut reducer = OrderedSeriesReducer::new(num_times, replicas);
        for &(sample, replica) in &cells {
            reducer.offer(sample, replica, values[replica][sample]);
        }
        let streamed = reducer.finish();
        prop_assert_eq!(streamed.final_values(), one_shot.final_values());
        for (a, b) in streamed.series().iter().zip(one_shot.series()) {
            // Bitwise: the frontier replays the exact sequential fold order.
            prop_assert_eq!(a.count(), b.count());
            prop_assert_eq!(a.mean(), b.mean());
            prop_assert_eq!(a.variance(), b.variance());
            prop_assert_eq!(a.min(), b.min());
            prop_assert_eq!(a.max(), b.max());
        }
    }

    /// Schedule update-set invariants, extended to the coloured
    /// parallel-revision schedules (satellite check): `RandomBlock(k)`
    /// selects exactly `k` distinct in-range players per tick and moves no
    /// one else; `ColouredBlocks`' classes partition the player set, every
    /// class is an independent set of the interaction graph, and a round of
    /// `num_classes` ticks hits every player exactly once.
    #[test]
    fn block_schedules_update_the_players_they_claim(
        seed in 0u64..10_000,
        n in 4usize..10,
        k in 1usize..10,
        p in 0.15f64..0.9,
        beta in 0.0f64..3.0,
    ) {
        let k = 1 + (k - 1) % n; // block size in 1..=n
        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::connected_erdos_renyi(n, p, &mut graph_rng, 20);
        let game = GraphicalCoordinationGame::new(
            graph.clone(),
            logit_games::CoordinationGame::from_deltas(2.0, 1.0),
        );
        let d = LogitDynamics::new(game.clone(), beta);
        let mut scratch = Scratch::for_game(&game);
        let mut selected = Vec::new();

        // RandomBlock(k): k distinct players, ascending; the engine freezes
        // everyone outside the block. The schedule draws from the stream the
        // step consumes, so probe the selection on a clone of the step RNG.
        let schedule = RandomBlock::new(k);
        let mut step_rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        let mut profile = vec![0usize; n];
        for t in 0..25u64 {
            schedule.select_players(t, n, &mut step_rng.clone(), &mut selected);
            prop_assert_eq!(selected.len(), k, "exactly k players per tick");
            prop_assert!(selected.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
            prop_assert!(selected.iter().all(|&i| i < n));
            let before = profile.clone();
            d.step_scheduled(&schedule, t, &mut profile, &mut scratch, &mut step_rng);
            for i in 0..n {
                if !selected.contains(&i) {
                    prop_assert_eq!(profile[i], before[i], "tick {} moved player {}", t, i);
                }
            }
        }

        // ColouredBlocks: a partition into independent sets, each player hit
        // exactly once per round.
        let coloring = coloring_for_game(&game);
        prop_assert!(coloring.is_proper(&graph));
        prop_assert!(coloring.num_classes() <= graph.max_degree() + 1);
        let schedule = ColouredBlocks::new(coloring.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC010);
        let mut hits = vec![0usize; n];
        for t in 0..coloring.num_classes() as u64 {
            schedule.select_players(t, n, &mut rng, &mut selected);
            for window in selected.windows(2) {
                prop_assert!(window[0] < window[1]);
            }
            for (a_idx, &a) in selected.iter().enumerate() {
                hits[a] += 1;
                for &b in &selected[a_idx + 1..] {
                    prop_assert!(
                        !graph.has_edge(a, b),
                        "class {} contains the edge ({a}, {b})", coloring.class_of_tick(t)
                    );
                }
            }
        }
        prop_assert!(hits.iter().all(|&h| h == 1), "one update per player per round");
    }

    /// Coloured-engine bit-identity, the tentpole pin (satellite proptest):
    /// `step_coloured_pooled` (persistent worker pool) — frozen-profile
    /// staged block, per-player RNG streams, any worker count, any
    /// narrow-class threshold — walks exactly the trajectory of the
    /// sequential in-place class sweep `step_coloured`, for every update
    /// rule on random graph topologies. This is the non-neighbours-commute
    /// argument made executable.
    #[test]
    fn coloured_par_is_bit_identical_to_the_sequential_class_sweep(
        seed in 0u64..10_000,
        n in 4usize..12,
        p in 0.2f64..0.9,
        beta in 0.0f64..4.0,
        workers in 1usize..5,
        min_class_size in 0usize..8,
    ) {
        use logit_core::{RuntimeConfig, WorkerPool};

        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::connected_erdos_renyi(n, p, &mut graph_rng, 20);
        let game = GraphicalCoordinationGame::new(
            graph,
            logit_games::CoordinationGame::from_deltas(2.0, 1.0),
        );
        let coloring = coloring_for_game(&game);
        // Random chunking: the threshold decides which classes stay inline,
        // the worker count decides the chunk granularity of the rest.
        let config = RuntimeConfig {
            workers,
            min_class_size,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);

        #[allow(clippy::too_many_arguments)]
        fn check<U: UpdateRule>(
            game: &GraphicalCoordinationGame,
            coloring: &logit_graphs::Coloring,
            rule: U,
            beta: f64,
            seed: u64,
            workers: usize,
            pool: &WorkerPool,
            config: &RuntimeConfig,
        ) -> Result<(), TestCaseError> {
            let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
            let n = game.num_players();
            let mut scratch = Scratch::for_game(game);
            let mut pooled_scratch = Scratch::for_game(game);
            let mut pooled_staged = Vec::new();
            let mut seq = vec![0usize; n];
            let mut pooled = vec![0usize; n];
            for t in 0..2 * coloring.num_classes() as u64 + 3 {
                let moved_seq = d.step_coloured(coloring, t, seed, &mut seq, &mut scratch);
                let moved_pooled = d.step_coloured_pooled(
                    coloring,
                    t,
                    seed,
                    &mut pooled,
                    &mut pooled_scratch,
                    &mut pooled_staged,
                    pool,
                    config,
                );
                prop_assert_eq!(
                    &seq, &pooled,
                    "pooled diverged at t = {} ({} workers, threshold {})",
                    t, workers, config.min_class_size
                );
                prop_assert_eq!(moved_seq, moved_pooled);
            }
            Ok(())
        }

        check(&game, &coloring, Logit, beta, seed, workers, &pool, &config)?;
        check(&game, &coloring, MetropolisLogit, beta, seed, workers, &pool, &config)?;
        check(
            &game,
            &coloring,
            logit_core::NoisyBestResponse::new(0.15),
            beta,
            seed,
            workers,
            &pool,
            &config,
        )?;
        check(&game, &coloring, Fermi, beta, seed, workers, &pool, &config)?;
        check(&game, &coloring, ImitateBetter::new(0.1), beta, seed, workers, &pool, &config)?;
    }

    /// Relabelled-engine bit-identity (memory-locality layer): the byte
    /// engine on the RCM-relabelled game — sequential
    /// (`step_coloured_bytes`) and pooled (`step_coloured_pooled_bytes`),
    /// any worker count, any narrow-class threshold, any cache-block size —
    /// replays the unrelabelled sequential class sweep `step_coloured`
    /// exactly after the inverse permutation, for every update rule on
    /// random connected topologies. This pins the whole locality stack at
    /// once: colour-class transport through the permutation, byte (SoA)
    /// utility kernels, original-id draw keys, and blocked chunking.
    #[test]
    fn relabelled_csr_engine_is_bit_identical_to_the_unrelabelled_sweep(
        seed in 0u64..10_000,
        n in 4usize..12,
        p in 0.2f64..0.9,
        beta in 0.0f64..4.0,
        workers in 1usize..5,
        min_class_size in 0usize..8,
        block in 1usize..8,
    ) {
        use logit_core::{LocalityLayout, RuntimeConfig, WorkerPool};

        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::connected_erdos_renyi(n, p, &mut graph_rng, 20);
        let base = logit_games::CoordinationGame::from_deltas(2.0, 1.0);
        let game = GraphicalCoordinationGame::new(graph.clone(), base);
        let coloring = coloring_for_game(&game);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        // The same game, players renamed along the RCM ordering; the layout
        // carries the colouring and the original-id draw keys across.
        let relabelled = GraphicalCoordinationGame::new(layout.relabel_graph(&graph), base);
        let config = RuntimeConfig {
            workers,
            min_class_size,
            block_players: block,
        };
        let pool = WorkerPool::new(&config);

        #[allow(clippy::too_many_arguments)]
        fn check<U: UpdateRule + Clone>(
            game: &GraphicalCoordinationGame,
            relabelled: &GraphicalCoordinationGame,
            coloring: &logit_graphs::Coloring,
            layout: &LocalityLayout,
            rule: U,
            beta: f64,
            seed: u64,
            pool: &WorkerPool,
            config: &RuntimeConfig,
        ) -> Result<(), TestCaseError> {
            let reference = DynamicsEngine::with_rule(game.clone(), rule.clone(), beta);
            let engine = DynamicsEngine::with_rule(relabelled.clone(), rule, beta);
            let n = game.num_players();
            let mut ref_scratch = Scratch::for_game(game);
            let mut seq_scratch = Scratch::for_game(relabelled);
            let mut pooled_scratch = Scratch::for_game(relabelled);
            let mut reference_profile = vec![0usize; n];
            let mut seq = Vec::new();
            layout.pack_profile(&reference_profile, &mut seq);
            let mut pooled = seq.clone();
            let mut unpacked = Vec::new();
            for t in 0..2 * coloring.num_classes() as u64 + 3 {
                let moved_ref = reference.step_coloured(
                    coloring, t, seed, &mut reference_profile, &mut ref_scratch,
                );
                let moved_seq = engine.step_coloured_bytes(
                    layout.coloring(), t, seed, Some(layout.labels()), &mut seq, &mut seq_scratch,
                );
                let moved_pooled = engine.step_coloured_pooled_bytes(
                    layout.coloring(),
                    t,
                    seed,
                    Some(layout.labels()),
                    &mut pooled,
                    &mut pooled_scratch,
                    pool,
                    config,
                );
                layout.unpack_profile(&seq, &mut unpacked);
                prop_assert_eq!(
                    &unpacked, &reference_profile,
                    "sequential byte sweep diverged at t = {}", t
                );
                layout.unpack_profile(&pooled, &mut unpacked);
                prop_assert_eq!(
                    &unpacked, &reference_profile,
                    "pooled byte sweep diverged at t = {} ({} workers, block {})",
                    t, config.workers, config.block_players
                );
                prop_assert_eq!(moved_ref, moved_seq);
                prop_assert_eq!(moved_ref, moved_pooled);
            }
            Ok(())
        }

        check(&game, &relabelled, &coloring, &layout, Logit, beta, seed, &pool, &config)?;
        check(&game, &relabelled, &coloring, &layout, MetropolisLogit, beta, seed, &pool, &config)?;
        check(
            &game,
            &relabelled,
            &coloring,
            &layout,
            logit_core::NoisyBestResponse::new(0.15),
            beta,
            seed,
            &pool,
            &config,
        )?;
        check(&game, &relabelled, &coloring, &layout, Fermi, beta, seed, &pool, &config)?;
        check(
            &game,
            &relabelled,
            &coloring,
            &layout,
            ImitateBetter::new(0.1),
            beta,
            seed,
            &pool,
            &config,
        )?;
    }

    /// Coloured-round exactness, satellite check: on small random graphical
    /// games the coloured round chain (ordered block product over the
    /// classes) keeps the Gibbs measure stationary for every
    /// Gibbs-reversible rule — pinned against the exact chain by a linear
    /// solve, the `transition_chain_all_logit`-style theory check of the new
    /// schedule.
    #[test]
    fn coloured_round_chain_fixes_gibbs_for_reversible_rules(
        seed in 0u64..10_000,
        p in 0.2f64..0.9,
        beta in 0.0f64..2.5,
    ) {
        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::connected_erdos_renyi(4, p, &mut graph_rng, 20);
        let game = GraphicalCoordinationGame::new(
            graph,
            logit_games::CoordinationGame::from_deltas(2.0, 1.0),
        );
        let coloring = coloring_for_game(&game);
        prop_assert!(coloring.is_proper(&interaction_graph(&game)));
        let pi = gibbs_distribution(&game, beta);

        fn check<U: UpdateRule>(
            game: &GraphicalCoordinationGame,
            coloring: &logit_graphs::Coloring,
            rule: U,
            beta: f64,
            pi: &logit_linalg::Vector,
        ) -> Result<(), TestCaseError> {
            let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
            let round = d.transition_chain_coloured_round(coloring);
            prop_assert!(round.is_ergodic());
            let stepped = round.step_distribution(pi);
            prop_assert!(
                total_variation(&stepped, pi) < 1e-9,
                "the coloured round must fix the Gibbs measure"
            );
            prop_assert!(total_variation(&stationary_distribution(&round), pi) < 1e-7);
            Ok(())
        }

        check(&game, &coloring, Logit, beta, &pi)?;
        check(&game, &coloring, MetropolisLogit, beta, &pi)?;
        check(&game, &coloring, Fermi, beta, &pi)?;
    }

    /// Monotonicity of the Gibbs measure: raising β can only move mass towards
    /// the minimum-potential profile.
    #[test]
    fn gibbs_concentrates_with_beta(seed in 0u64..10_000, beta in 0.1f64..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let game = TablePotentialGame::random(vec![2, 2], 3.0, &mut rng);
        let space = game.profile_space();
        let argmin = space
            .indices()
            .min_by(|&a, &b| {
                game.potential(&space.profile_of(a))
                    .partial_cmp(&game.potential(&space.profile_of(b)))
                    .unwrap()
            })
            .unwrap();
        let low = gibbs_distribution(&game, beta);
        let high = gibbs_distribution(&game, beta * 2.0);
        prop_assert!(high[argmin] >= low[argmin] - 1e-12);
    }
}

/// A coloured schedule built on a shared colouring keeps sharing it
/// through `clone()`.
#[test]
fn coloured_blocks_and_their_clones_share_one_colouring() {
    let coloring = std::sync::Arc::new(logit_graphs::greedy_coloring(&GraphBuilder::ring(6)));
    let schedule = ColouredBlocks::new(std::sync::Arc::clone(&coloring));
    assert!(std::ptr::eq(schedule.coloring(), &*coloring));
    assert!(std::ptr::eq(schedule.clone().coloring(), &*coloring));
}

/// Steps `engine` through `ticks` ticks of `schedule` twice from `start`,
/// once untracked and once keeping the game's tally with `retally` (fed
/// the mover's count-row length and ones, read off the profile), and
/// checks after every tick that the trajectories agree, that the tally is
/// the full count of the profile, and that its potential is
/// `potential(profile)` bit for bit.
fn check_tally_under<G, U, S>(
    engine: &DynamicsEngine<G, U>,
    schedule: &S,
    start: &[usize],
    seed: u64,
    ticks: u64,
) -> Result<(), TestCaseError>
where
    G: PotentialGame,
    U: UpdateRule,
    S: SelectionSchedule,
{
    let game = engine.game();
    let kernel = game
        .count_kernel()
        .expect("graph games expose a count kernel");
    let mut profile = start.to_vec();
    let mut plain = start.to_vec();
    let mut tally = game.tally(start).expect("graph games keep a tally");
    let mut scratch = Scratch::for_game(game);
    let mut plain_scratch = Scratch::for_game(game);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut plain_rng = ChaCha8Rng::seed_from_u64(seed);
    for t in 0..ticks {
        engine.step_scheduled_tracked(
            schedule,
            t,
            &mut profile,
            &mut scratch,
            &mut rng,
            |p, old, x| {
                let row = kernel.count_row(p);
                let ones = row.iter().map(|&j| x[j as usize]).sum();
                game.retally(&mut tally, old, row.len(), ones)
            },
        );
        engine.step_scheduled(schedule, t, &mut plain, &mut plain_scratch, &mut plain_rng);
        prop_assert_eq!(
            &profile,
            &plain,
            "tracking changed the trajectory at t = {}",
            t
        );
        prop_assert_eq!(
            Some(tally),
            game.tally(&profile),
            "{} at t = {}",
            schedule.name(),
            t
        );
        prop_assert_eq!(
            game.potential_of_tally(&tally).to_bits(),
            game.potential(&profile).to_bits(),
            "{} at t = {}",
            schedule.name(),
            t
        );
    }
    Ok(())
}

fn check_tally_for_every_rule_and_schedule<G>(
    game: &G,
    start: &[usize],
    beta: f64,
    seed: u64,
) -> Result<(), TestCaseError>
where
    G: PotentialGame + logit_games::LocalGame + Clone,
{
    fn rule<G: PotentialGame + logit_games::LocalGame + Clone, U: UpdateRule>(
        game: &G,
        rule: U,
        start: &[usize],
        beta: f64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let engine = DynamicsEngine::with_rule(game.clone(), rule, beta);
        let n = game.num_players() as u64;
        check_tally_under(&engine, &UniformSingle, start, seed, 4 * n)?;
        check_tally_under(&engine, &SystematicSweep, start, seed, 4 * n)?;
        check_tally_under(&engine, &AllLogit, start, seed, 8)?;
        check_tally_under(&engine, &ColouredBlocks::for_game(game), start, seed, 16)
    }
    rule(game, Logit, start, beta, seed)?;
    rule(game, MetropolisLogit, start, beta, seed)?;
    rule(
        game,
        logit_core::NoisyBestResponse::new(0.15),
        start,
        beta,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental Φ is exact: under every rule × schedule (uniform, sweep,
    /// all-logit, coloured) a tally updated from each mover's neighbour row
    /// equals the full count after every tick, and reads the potential bit
    /// for bit — on graphical games with random non-dyadic payoffs and on
    /// Ising games with and without a field, over random graphs that may
    /// have isolated players or no edges at all.
    #[test]
    fn tallies_track_the_potential_bit_for_bit(
        seed in 0u64..10_000,
        n in 1usize..14,
        p in 0.0f64..0.6,
        beta in 0.0f64..3.0,
        d0 in 0.1f64..3.0,
        d1 in 0.1f64..3.0,
        coupling in 0.1f64..2.0,
        field in -1.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::erdos_renyi(n, p, &mut rng);
        let start: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
        let coord = GraphicalCoordinationGame::new(
            graph.clone(),
            logit_games::CoordinationGame::from_deltas(d0, d1),
        );
        check_tally_for_every_rule_and_schedule(&coord, &start, beta, seed)?;
        let ising = logit_games::IsingGame::new(graph.clone(), coupling, field);
        check_tally_for_every_rule_and_schedule(&ising, &start, beta, seed)?;
        let zero_field = logit_games::IsingGame::zero_field(graph, coupling);
        check_tally_for_every_rule_and_schedule(&zero_field, &start, beta, seed)?;
    }

    /// Samples read from a tally are full evaluations: on both runners the
    /// tallied potential observable gives the bytes of an observable that
    /// evaluates `potential(profile)` at every sample, for every schedule,
    /// whatever the farm's chunking, channel and worker count.
    #[test]
    fn tallied_samples_equal_full_evaluations_on_both_runners(
        seed in 0u64..10_000,
        beta in 0.0f64..3.0,
        d0 in 0.1f64..3.0,
        d1 in 0.1f64..3.0,
        field in -1.0f64..1.0,
        chunk_ticks in 1u64..40,
        workers in 1usize..4,
    ) {
        use logit_core::{NamedObservable, PipelineConfig, RuntimeConfig};

        fn check<G: PotentialGame + logit_games::LocalGame + Clone + Sync, S: SelectionSchedule>(
            game: &G,
            schedule: &S,
            beta: f64,
            sim: &Simulator,
            config: &PipelineConfig,
        ) -> Result<(), TestCaseError> {
            let d = LogitDynamics::new(game.clone(), beta);
            let start = vec![0usize; game.num_players()];
            let tallied = PotentialObservable::new(game.clone());
            let full = NamedObservable::new("potential", |x: &[usize]| game.potential(x));
            let reference = sim.run_profiles(&d, schedule, &start, 40, 3, &full);
            let sequential = sim.run_profiles(&d, schedule, &start, 40, 3, &tallied);
            let farmed = sim
                .run_profiles_pipelined(&d, schedule, &start, 40, 3, &tallied, config, None)
                .expect("uncancelled runs complete");
            let bytes = |r: &logit_core::ProfileEnsembleResult| format!("{:?} {:?}", r.series, r.final_values);
            prop_assert_eq!(bytes(&reference), bytes(&sequential), "{}", schedule.name());
            prop_assert_eq!(bytes(&reference), bytes(&farmed), "{}", schedule.name());
            Ok(())
        }

        let runtime = RuntimeConfig { workers, ..RuntimeConfig::default() };
        let sim = Simulator::with_runtime(seed, 6, runtime);
        let config = PipelineConfig { chunk_ticks, channel_capacity: 2 };
        let graph = GraphBuilder::circulant(10, 2);
        let coord = GraphicalCoordinationGame::new(
            graph.clone(),
            logit_games::CoordinationGame::from_deltas(d0, d1),
        );
        let ising = logit_games::IsingGame::new(graph, 0.7, field);
        check(&coord, &UniformSingle, beta, &sim, &config)?;
        check(&coord, &SystematicSweep, beta, &sim, &config)?;
        check(&coord, &AllLogit, beta, &sim, &config)?;
        check(&coord, &ColouredBlocks::for_game(&coord), beta, &sim, &config)?;
        check(&ising, &UniformSingle, beta, &sim, &config)?;
        check(&ising, &SystematicSweep, beta, &sim, &config)?;
        check(&ising, &AllLogit, beta, &sim, &config)?;
        check(&ising, &ColouredBlocks::for_game(&ising), beta, &sim, &config)?;
    }
}

/// A count game behind a newtype that forwards everything but
/// [`Game::count_kernel`]: its engines take the per-update
/// `utilities_for` → `fill_probs` path, the reference the count table must
/// replay.
#[derive(Clone)]
struct TableFree<G>(G);

impl<G: Game> Game for TableFree<G> {
    fn num_players(&self) -> usize {
        self.0.num_players()
    }
    fn num_strategies(&self, player: usize) -> usize {
        self.0.num_strategies(player)
    }
    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        self.0.utility(player, profile)
    }
    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        self.0.utilities_for(player, profile, out)
    }
}

impl<G: LocalGame> LocalGame for TableFree<G> {
    fn neighbors_of(&self, player: usize) -> &[u32] {
        self.0.neighbors_of(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        self.0.utilities_for_frozen(player, profile, out)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        self.0.utilities_for_frozen_bytes(player, profile, out)
    }
}

/// Every profile each engine kernel walks through from `start`, labelled
/// by kernel and tick: uniform, sweep and all-logit ticks on one stream,
/// then the sequential and pooled coloured sweeps on `usize` and on byte
/// profiles.
fn walk_every_kernel<G: LocalGame + Sync, U: UpdateRule>(
    d: &DynamicsEngine<G, U>,
    coloring: &logit_graphs::Coloring,
    start: &[usize],
    seed: u64,
    pool: &logit_core::WorkerPool,
    config: &logit_core::RuntimeConfig,
) -> Vec<(&'static str, u64, Vec<usize>)> {
    let n = start.len();
    let mut walked = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = Scratch::for_game(d.game());
    let mut x = start.to_vec();
    for t in 0..3 * n as u64 {
        d.step_scheduled(&UniformSingle, t, &mut x, &mut scratch, &mut rng);
        walked.push(("uniform", t, x.clone()));
    }
    for t in 0..2 * n as u64 {
        d.step_scheduled(&SystematicSweep, t, &mut x, &mut scratch, &mut rng);
        walked.push(("sweep", t, x.clone()));
    }
    for t in 0..4 {
        d.step_scheduled(&AllLogit, t, &mut x, &mut scratch, &mut rng);
        walked.push(("all-logit", t, x.clone()));
    }
    let ticks = 2 * coloring.num_classes() as u64 + 3;
    let (mut seq, mut pooled, mut staged) = (start.to_vec(), start.to_vec(), Vec::new());
    let mut bytes: Vec<u8> = start.iter().map(|&s| s as u8).collect();
    let mut pooled_bytes = bytes.clone();
    for t in 0..ticks {
        d.step_coloured(coloring, t, seed, &mut seq, &mut scratch);
        walked.push(("coloured", t, seq.clone()));
        d.step_coloured_pooled(
            coloring,
            t,
            seed,
            &mut pooled,
            &mut scratch,
            &mut staged,
            pool,
            config,
        );
        walked.push(("pooled", t, pooled.clone()));
        d.step_coloured_bytes(coloring, t, seed, None, &mut bytes, &mut scratch);
        walked.push(("bytes", t, bytes.iter().map(|&s| s as usize).collect()));
        d.step_coloured_pooled_bytes(
            coloring,
            t,
            seed,
            None,
            &mut pooled_bytes,
            &mut scratch,
            pool,
            config,
        );
        walked.push((
            "pooled bytes",
            t,
            pooled_bytes.iter().map(|&s| s as usize).collect(),
        ));
    }
    walked
}

/// The count table of `game` under `rule` against the per-update path:
/// every player's tabulated distribution has the bits of
/// `fill_probs(utilities_for(..))` on random profiles, and every kernel
/// walks the trajectory of the same game with the table hidden.
#[allow(clippy::too_many_arguments)]
fn check_count_table<G: LocalGame + Clone + Sync, U: UpdateRule>(
    game: &G,
    rule: U,
    beta: f64,
    start: &[usize],
    seed: u64,
    coloring: &logit_graphs::Coloring,
    pool: &logit_core::WorkerPool,
    config: &logit_core::RuntimeConfig,
) -> Result<(), TestCaseError> {
    prop_assert!(
        game.count_kernel().is_some(),
        "a count game exposes its kernel"
    );
    let tabulated = DynamicsEngine::with_rule(game.clone(), rule.clone(), beta);
    let table_free = DynamicsEngine::with_rule(TableFree(game.clone()), rule.clone(), beta);
    let bits = |probs: &[f64]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7AB1E);
    for _ in 0..4 {
        let mut x: Vec<usize> = (0..start.len()).map(|_| rng.gen_range(0..2usize)).collect();
        for player in 0..x.len() {
            let mut utils = vec![0.0; 2];
            game.utilities_for(player, &mut x, &mut utils);
            let mut expected = Vec::new();
            rule.fill_probs(beta, x[player], &utils, &mut expected);
            let got = tabulated.update_distribution(player, &x);
            prop_assert_eq!(
                bits(&got),
                bits(&expected),
                "{} at player {}",
                rule.name(),
                player
            );
        }
    }
    let reference = walk_every_kernel(&table_free, coloring, start, seed, pool, config);
    let walked = walk_every_kernel(&tabulated, coloring, start, seed, pool, config);
    prop_assert_eq!(walked, reference, "{}", rule.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The count table replays the per-update path bit for bit, for all
    /// five rules at β = 0, a random β and β = 10³⁰⁸ (where the logit
    /// weights overflow), on graphical games with non-dyadic payoffs and
    /// Ising games with a field, over random graphs with isolated players
    /// and mixed degrees, on every kernel that reads the table.
    #[test]
    fn count_table_replays_fill_probs_and_the_table_free_engine(
        seed in 0u64..10_000,
        n in 2usize..14,
        p in 0.05f64..0.8,
        beta_kind in 0usize..3,
        beta_raw in 0.0f64..6.0,
        payoff in 0.01f64..3.0,
        workers in 1usize..4,
    ) {
        use logit_core::{NoisyBestResponse, RuntimeConfig, WorkerPool};

        let beta = [0.0, beta_raw, 1e308][beta_kind];
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = GraphBuilder::erdos_renyi(n, p, &mut rng);
        let start: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
        let base = CoordinationGame::new(1.3 + payoff, 0.7 + payoff / 3.0, 0.1 * payoff, 0.2);
        let graphical = GraphicalCoordinationGame::new(graph.clone(), base);
        let ising = IsingGame::new(graph, 0.5 + payoff, payoff - 1.5);
        let coloring = coloring_for_game(&graphical);
        let config = RuntimeConfig {
            workers,
            min_class_size: 1,
            block_players: 2,
        };
        let pool = WorkerPool::new(&config);

        fn every_rule<G: LocalGame + Clone + Sync>(
            game: &G,
            beta: f64,
            start: &[usize],
            seed: u64,
            coloring: &logit_graphs::Coloring,
            pool: &WorkerPool,
            config: &RuntimeConfig,
        ) -> Result<(), TestCaseError> {
            check_count_table(game, Logit, beta, start, seed, coloring, pool, config)?;
            check_count_table(game, MetropolisLogit, beta, start, seed, coloring, pool, config)?;
            let nbr = NoisyBestResponse::new(0.15);
            check_count_table(game, nbr, beta, start, seed, coloring, pool, config)?;
            check_count_table(game, Fermi, beta, start, seed, coloring, pool, config)?;
            let imitate = ImitateBetter::new(0.1);
            check_count_table(game, imitate, beta, start, seed, coloring, pool, config)
        }

        every_rule(&graphical, beta, &start, seed, &coloring, &pool, &config)?;
        every_rule(&ising, beta, &start, seed, &coloring, &pool, &config)?;
    }
}
