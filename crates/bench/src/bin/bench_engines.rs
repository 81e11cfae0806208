//! Engine-throughput baseline: steps/sec of the flat-index engine vs the
//! in-place profile engine on ring coordination games, one row-set per
//! update rule, emitted as JSON (the committed `BENCH_step_throughput.json`
//! is this binary's output).
//!
//! The flat engine needs the profile space to fit a `usize`, which caps it at
//! 63 binary players; beyond that its column is `null`. The in-place engine
//! is measured up to n = 100000. Every `UpdateRule` runs through the same
//! generic `DynamicsEngine`; on the ring game it reads each update's
//! distribution from the engine's count table, so the per-rule rows show
//! the table. The `legacy_parity` row hides the game's count kernel and so
//! tracks whether the pluggable-rule seam costs throughput (it must not:
//! the rule is a monomorphised generic, not a dynamic dispatch).

use logit_anneal::BetaLadder;
use logit_core::observables::{NamedObservable, StrategyFraction};
use logit_core::parallel::{coloring_for_game, coloring_for_graph};
use logit_core::rules::{Logit, MetropolisLogit, NoisyBestResponse, UpdateRule};
use logit_core::schedules::UniformSingle;
use logit_core::{
    DynamicsEngine, LocalityLayout, LogitDynamics, RuntimeConfig, Scratch, Simulator,
    TemperingEnsemble, WorkerPool,
};
use logit_games::{CoordinationGame, Game, GraphicalCoordinationGame};
use logit_graphs::{Coloring, Graph, GraphBuilder, VertexOrdering};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Binary-profile rings stop fitting a flat `usize` index past this size.
const FLAT_LIMIT: usize = 63;

/// Updates per measurement of the full run; `--fast` takes a tenth.
const FULL_STEPS: u64 = 2_000_000;

fn ring_game(n: usize) -> GraphicalCoordinationGame {
    GraphicalCoordinationGame::new(
        GraphBuilder::ring(n),
        CoordinationGame::from_deltas(1.0, 2.0),
    )
}

fn ring_dynamics<U: UpdateRule>(n: usize, rule: U) -> DynamicsEngine<GraphicalCoordinationGame, U> {
    DynamicsEngine::with_rule(ring_game(n), rule, 1.5)
}

/// A game with its count kernel hidden: an engine on it computes every
/// update through `utilities_for` and `fill_probs`, as the legacy loop does.
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

fn flat_steps_per_sec<U: UpdateRule>(n: usize, rule: U, steps: u64) -> f64 {
    let dynamics = ring_dynamics(n, rule);
    let mut rng = StdRng::seed_from_u64(1);
    let mut scratch = Scratch::for_game(dynamics.game());
    let mut state = 0usize;
    let clock = std::time::Instant::now();
    for _ in 0..steps {
        state = dynamics.step_indexed(state, &mut scratch, &mut rng);
    }
    std::hint::black_box(state);
    steps as f64 / clock.elapsed().as_secs_f64()
}

fn profile_steps_per_sec<U: UpdateRule>(n: usize, rule: U, steps: u64) -> f64 {
    engine_steps_per_sec(&ring_dynamics(n, rule), steps)
}

fn engine_steps_per_sec<G: Game, U: UpdateRule>(
    dynamics: &DynamicsEngine<G, U>,
    steps: u64,
) -> f64 {
    let n = dynamics.game().num_players();
    let mut rng = StdRng::seed_from_u64(1);
    let mut scratch = Scratch::for_game(dynamics.game());
    let mut profile = vec![0usize; n];
    let clock = std::time::Instant::now();
    for _ in 0..steps {
        dynamics.step_profile(&mut profile, &mut scratch, &mut rng);
    }
    std::hint::black_box(&profile);
    steps as f64 / clock.elapsed().as_secs_f64()
}

/// The verbatim pre-refactor logit hot path (inline softmax, inverse-CDF
/// sampling, reused buffers), measured in the same process so the committed
/// baseline certifies on the emitting host that the pluggable-rule seam is
/// free — absolute steps/sec vary across hosts, the engine/legacy ratio must
/// not.
///
/// A sibling reference copy lives in `crates/core/tests/proptest_core.rs`
/// (`legacy_step_profile`): that one pins *bit-identical trajectories*, this
/// one pins *throughput*; keep both in sync with the historical hot path.
fn legacy_logit_steps_per_sec(n: usize, steps: u64) -> f64 {
    let game = ring_game(n);
    let beta = 1.5;
    let mut rng = StdRng::seed_from_u64(1);
    let mut utils: Vec<f64> = Vec::with_capacity(2);
    let mut probs: Vec<f64> = Vec::with_capacity(2);
    let mut profile = vec![0usize; n];
    let clock = std::time::Instant::now();
    for _ in 0..steps {
        let player = rng.gen_range(0..n);
        let m = game.num_strategies(player);
        utils.clear();
        utils.resize(m, 0.0);
        game.utilities_for(player, &mut profile, &mut utils);
        let max = utils
            .iter()
            .map(|&u| beta * u)
            .fold(f64::NEG_INFINITY, f64::max);
        probs.clear();
        probs.extend(utils.iter().map(|&u| (beta * u - max).exp()));
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = probs.len() - 1;
        for (s, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = s;
                break;
            }
        }
        profile[player] = chosen;
    }
    std::hint::black_box(&profile);
    steps as f64 / clock.elapsed().as_secs_f64()
}

/// Per-update throughput of the tempering ensemble: `K` replicas stepping
/// under uniform selection with a Metropolis swap phase every `n` ticks. The
/// sweep phase is the same monomorphised hot loop as the single engine plus
/// an `O(deg)` potential-tally update per applied move, and the swap phase
/// reads the `K` potentials from the tallies in `O(K)`, so per-update cost
/// must match the profile engine up to the tally updates.
fn tempered_updates_per_sec(n: usize, rungs: usize, updates: u64) -> f64 {
    let game = ring_game(n);
    let ladder = BetaLadder::geometric(0.5, 1.5, rungs);
    let ensemble = TemperingEnsemble::new(game, Logit, ladder.betas());
    let mut state = ensemble.init_state(&vec![0usize; n], 1);
    let sweep_ticks = n as u64;
    let rounds = (updates / (sweep_ticks * rungs as u64)).max(1);
    let clock = std::time::Instant::now();
    for _ in 0..rounds {
        ensemble.round(&UniformSingle, &mut state, sweep_ticks);
    }
    std::hint::black_box(state.cold_profile());
    (rounds * sweep_ticks * rungs as u64) as f64 / clock.elapsed().as_secs_f64()
}

fn tempered_rows(rungs: usize, sizes: &[usize], steps: u64) -> String {
    let mut rows = Vec::new();
    for &n in sizes {
        let tempered = tempered_updates_per_sec(n, rungs, steps);
        // The apples-to-apples baseline is the K = 1 ladder: the same stack
        // (step_scheduled loop, ChaCha replica streams) with no swaps, which
        // the bit-identity regression test pins to the plain engine. The
        // per-rule rows above keep the raw profile-engine numbers (StdRng, a
        // cheaper generator), so the two baselines are not comparable to each
        // other — the tempered invariant is this in-stack ratio.
        let single = tempered_updates_per_sec(n, 1, steps);
        rows.push(format!(
            "        {{\"n\": {n}, \"tempered_updates_per_sec\": {tempered:.0}, \"single_chain_updates_per_sec\": {single:.0}, \"tempered_over_single\": {:.3}}}",
            tempered / single
        ));
        eprintln!(
            "   tempered(K={rungs}) n = {n:>6}: tempered = {tempered:.3e}, K=1 = {single:.3e}, ratio = {:.3}",
            tempered / single
        );
    }
    format!(
        "  \"tempered\": {{\n    \"what\": \"TemperingEnsemble (Logit, K = {rungs} geometric ladder 0.5..1.5), per player-update, swap phase every n ticks, vs the K = 1 ladder through the same stack; the ratio is the orchestration-overhead invariant (swaps amortise to noise)\",\n    \"rows\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    )
}

/// Draw-cost row-set: ns per `next_u64` and per `gen::<f64>()` of the
/// `ChaCha8Rng` stream every `Simulator` replica, tempering rung and server
/// job draws from, with the refill kernel the dispatch chose on this host. Gated on the stream pin: the
/// mixed-draw hash must equal `rand_chacha::MIXED_DRAW_HASH` in-process,
/// so a kernel that changed a word can never emit a row.
fn rng_rows(draws: u64) -> String {
    assert_eq!(
        rand_chacha::mixed_draw_hash(1_000_000),
        rand_chacha::MIXED_DRAW_HASH,
        "ChaCha8Rng no longer yields its pinned stream"
    );
    let kernel = rand_chacha::kernel();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let clock = std::time::Instant::now();
    let mut words = 0u64;
    for _ in 0..draws {
        words ^= rng.next_u64();
    }
    std::hint::black_box(words);
    let ns_u64 = clock.elapsed().as_secs_f64() * 1e9 / draws as f64;
    let clock = std::time::Instant::now();
    let mut bits = 0u64;
    for _ in 0..draws {
        bits ^= rng.gen::<f64>().to_bits();
    }
    std::hint::black_box(bits);
    let ns_f64 = clock.elapsed().as_secs_f64() * 1e9 / draws as f64;
    eprintln!(
        "rng: kernel = {kernel}, {ns_u64:.2} ns per next_u64, {ns_f64:.2} ns per gen::<f64>() over {draws} draws each"
    );
    format!(
        "  \"rng\": {{\n    \"what\": \"ChaCha8Rng draw cost, one thread: ns per next_u64 and per gen::<f64>() over {draws} draws each; kernel is the eight-block refill kernel the run-time dispatch chose (avx2 or scalar). Emitted only after mixed_draw_hash(10^6) equals the pinned MIXED_DRAW_HASH in-process, so every stream still yields its pinned words\",\n    \"kernel\": \"{kernel}\",\n    \"host_cores\": {host_cores},\n    \"draws\": {draws},\n    \"ns_per_next_u64\": {ns_u64:.3},\n    \"ns_per_gen_f64\": {ns_f64:.3}\n  }}"
    )
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    values[values.len() / 2]
}

/// One committed `coloured` row: the coloured independent-set engine paths
/// against per-player sequential stepping, one rule per row, on a large-n
/// dense-degree circulant. Three measurements share the instance:
///
/// * `uniform` — per-player sequential stepping (`step_profile`, one random
///   player per update) through the same ChaCha stream stack the ensembles
///   use: the per-player baseline the coloured paths are judged against,
///   median over the interleaved gate rounds;
/// * `coloured_seq` — the sequential byte class sweep
///   (`step_coloured_bytes`, per-player counter-derived draws, in-place
///   updates), median over the interleaved gate rounds;
/// * `coloured_pooled` — the persistent-pool byte sweep
///   (`step_coloured_pooled_bytes`), median over the interleaved gate
///   rounds.
///
/// Two **in-process gates** run before any number is emitted:
///
/// 1. *Bit-identity* — one full colour round through the pooled path must
///    reproduce the sequential reference sweep `step_coloured` exactly.
/// 2. *Throughput* — over five interleaved (uniform, sequential, pooled)
///    rounds the best pooled/sequential ratio must reach 1.0 (the pool must
///    not tax the sweep: with one effective worker the pooled path *is* the
///    sequential sweep, so only measurement noise is tolerated away), and
///    the median same-round pooled/uniform ratio must clear the committed
///    1.5 band.
#[allow(clippy::too_many_arguments)]
fn coloured_row<U: UpdateRule>(
    rule: U,
    game: &GraphicalCoordinationGame,
    coloring: &Coloring,
    rounds: u64,
    workers: usize,
    pool: &WorkerPool,
    config: &RuntimeConfig,
) -> String {
    let n = game.num_players();
    let d = DynamicsEngine::with_rule(game.clone(), rule.clone(), 1.5);
    let classes = coloring.num_classes();

    // Gate 1, bit-identity: a full colour round through the pooled path
    // must reproduce the sequential class sweep exactly before any
    // throughput number is emitted.
    {
        let mut seq = vec![0usize; n];
        let mut pooled = vec![0u8; n];
        let mut scratch = Scratch::for_game(game);
        let mut pooled_scratch = Scratch::for_game(game);
        for t in 0..classes as u64 {
            d.step_coloured(coloring, t, 0x0C01_C4ED, &mut seq, &mut scratch);
            d.step_coloured_pooled_bytes(
                coloring,
                t,
                0x0C01_C4ED,
                None,
                &mut pooled,
                &mut pooled_scratch,
                pool,
                config,
            );
            assert!(
                seq.iter().zip(&pooled).all(|(&s, &b)| s == b as usize),
                "pooled coloured path diverged ({} at tick {t})",
                rule.name()
            );
        }
    }

    // Gate 2, throughput: five interleaved (uniform, sequential, pooled)
    // rounds so scheduler drift hits every path alike; the committed rates
    // are the medians, the pool-tax assertion uses the best pairwise
    // pooled/seq ratio and the uniform band uses the median same-round
    // pooled/uniform ratio. The uniform leg used to be a single measurement
    // taken minutes before the gate loop, which let the 1-vCPU emitting
    // host's ±15% drift land entirely on one side of the quotient —
    // same-binary reruns swung pooled/uniform 1.3–2.3 on identical code;
    // paired rounds cancel the drift the same way the legacy-parity and
    // large-n measurements already do.
    let gate_rounds = 5u64;
    let sub_rounds = (rounds / gate_rounds).max(1);
    let sub_ticks = sub_rounds * classes as u64;
    let sub_updates = (sub_rounds * n as u64) as f64;
    let mut uniform_rates = Vec::new();
    let mut seq_rates = Vec::new();
    let mut pooled_rates = Vec::new();
    let mut ratios = Vec::new();
    let mut uniform_ratios = Vec::new();
    {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut uniform_scratch = Scratch::for_game(game);
        let mut scratch = Scratch::for_game(game);
        let mut pooled_scratch = Scratch::for_game(game);
        let mut uniform_profile = vec![0usize; n];
        let mut seq_profile = vec![0u8; n];
        let mut pooled_profile = vec![0u8; n];
        for _ in 0..gate_rounds {
            let clock = std::time::Instant::now();
            for _ in 0..sub_rounds * n as u64 {
                d.step_profile(&mut uniform_profile, &mut uniform_scratch, &mut rng);
            }
            std::hint::black_box(&uniform_profile);
            let uniform_rate = sub_updates / clock.elapsed().as_secs_f64();

            let clock = std::time::Instant::now();
            for t in 0..sub_ticks {
                d.step_coloured_bytes(coloring, t, 2, None, &mut seq_profile, &mut scratch);
            }
            std::hint::black_box(&seq_profile);
            let seq_rate = sub_updates / clock.elapsed().as_secs_f64();

            let clock = std::time::Instant::now();
            for t in 0..sub_ticks {
                d.step_coloured_pooled_bytes(
                    coloring,
                    t,
                    2,
                    None,
                    &mut pooled_profile,
                    &mut pooled_scratch,
                    pool,
                    config,
                );
            }
            std::hint::black_box(&pooled_profile);
            let pooled_rate = sub_updates / clock.elapsed().as_secs_f64();

            ratios.push(pooled_rate / seq_rate);
            uniform_ratios.push(pooled_rate / uniform_rate);
            uniform_rates.push(uniform_rate);
            seq_rates.push(seq_rate);
            pooled_rates.push(pooled_rate);
        }
    }
    let uniform = median(uniform_rates);
    let coloured_seq = median(seq_rates);
    let coloured_pooled = median(pooled_rates);
    let best_pooled_over_seq = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let pooled_over_seq = coloured_pooled / coloured_seq;
    let pooled_over_uniform = median(uniform_ratios);
    assert!(
        best_pooled_over_seq >= 1.0,
        "pooled coloured path taxes the sequential sweep ({}: best pooled/seq = {best_pooled_over_seq:.3} over {gate_rounds} rounds)",
        rule.name()
    );
    assert!(
        pooled_over_uniform > 1.5,
        "pooled coloured path fell out of the committed band ({}: pooled/uniform = {pooled_over_uniform:.3}, band > 1.5)",
        rule.name()
    );

    eprintln!(
        "   coloured {:>17} n = {n}: uniform = {uniform:.3e}, seq sweep = {coloured_seq:.3e}, pooled({workers}) = {coloured_pooled:.3e}, pooled/uniform = {pooled_over_uniform:.3}, pooled/seq = {pooled_over_seq:.3} (best {best_pooled_over_seq:.3})",
        rule.name()
    );
    format!(
        "        {{\"rule\": \"{}\", \"n\": {n}, \"degree\": {}, \"classes\": {classes}, \"workers\": {workers}, \"uniform_updates_per_sec\": {uniform:.0}, \"coloured_seq_updates_per_sec\": {coloured_seq:.0}, \"coloured_pooled_updates_per_sec\": {coloured_pooled:.0}, \"pooled_over_uniform\": {pooled_over_uniform:.3}, \"pooled_over_seq\": {pooled_over_seq:.3}, \"best_pooled_over_seq\": {best_pooled_over_seq:.3}}}",
        rule.name(),
        game.csr().max_degree()
    )
}

/// The coloured row-set. Both modes time the full run's legs: at
/// `--fast`'s step count each timed leg would be one colour round, so a
/// single scheduler hiccup decided the throughput gate.
fn coloured_rows() -> String {
    // Large-n dense-degree instance: a circulant ring with 64 chords per
    // side (degree 128, adjacency ≈ 50 MB — far beyond cache). At this
    // size coloring_for_game picks first-fit greedy (O(n + m)): 80 classes
    // of ≤ 769 players, between the clique bound k + 1 = 65 and
    // Δ + 1 = 129 (the wrap-around window costs the extra classes when
    // k + 1 does not divide n) — wide independent sets, exactly the shape
    // the parallel path is built for.
    let n = 50_000usize;
    let k = 64usize;
    eprintln!("   building circulant(n = {n}, k = {k}) + colouring ...");
    let graph = GraphBuilder::circulant(n, k);
    let game = GraphicalCoordinationGame::new(graph, CoordinationGame::from_deltas(1.0, 2.0));
    let coloring = coloring_for_game(&game);
    let config = RuntimeConfig::from_env();
    let pool = WorkerPool::new(&config);
    let workers = config.resolved_workers();
    let rounds = FULL_STEPS / n as u64;
    let rows = [
        coloured_row(Logit, &game, &coloring, rounds, workers, &pool, &config),
        coloured_row(
            MetropolisLogit,
            &game,
            &coloring,
            rounds,
            workers,
            &pool,
            &config,
        ),
        coloured_row(
            NoisyBestResponse::new(0.1),
            &game,
            &coloring,
            rounds,
            workers,
            &pool,
            &config,
        ),
    ];
    let scaling = worker_scaling_rows(&game, &coloring, rounds, 2 * k);
    format!(
        "  \"coloured\": {{\n    \"what\": \"coloured independent-set revision on a dense-degree circulant (n = {n}, degree {}, first-fit classes via the scale-aware coloring_for_game) vs per-player sequential stepping through the same engine; coloured_seq is the sequential byte class sweep (step_coloured_bytes) and coloured_pooled the pooled byte sweep (step_coloured_pooled_bytes), both on a u8 profile with counter-keyed draws; two in-process gates must pass before rows are emitted: bit-identity (one full colour round, pooled == the sequential reference sweep step_coloured) and throughput (best pooled/seq over 5 interleaved rounds >= 1.0 — the persistent pool must not tax the byte sweep — and median pooled/uniform > 1.5). Committed invariants: the gates plus the ratios — pooled_over_uniform pins the coloured path beating per-player sequential stepping (the ascending class sweep streams the DRAM-resident adjacency where random-player stepping cache-misses, and counter-derived per-player draws replace stream draws; band to hold: > 1.5), pooled_over_seq pins the persistent-pool orchestration overhead; coloured_pooled additionally scales with cores (the emitting host resolved workers = {workers}; per-player sequential stepping cannot use more than one)\",\n    \"rows\": [\n{}\n    ]\n  }},\n{scaling}",
        2 * k,
        rows.join(",\n")
    )
}

/// The worker-scaling row-set: the pooled and sequential byte sweeps at
/// explicit worker counts on the same circulant instance. Recorded,
/// not gated — on hosts with fewer cores than the row's worker count the
/// extra workers oversubscribe and the ratios document that, which is
/// exactly the information the row-set exists to commit.
fn worker_scaling_rows(
    game: &GraphicalCoordinationGame,
    coloring: &Coloring,
    rounds: u64,
    degree: usize,
) -> String {
    let n = game.num_players();
    let d = DynamicsEngine::with_rule(game.clone(), Logit, 1.5);
    let classes = coloring.num_classes() as u64;
    let rounds = (rounds / 2).max(2);
    let ticks = rounds * classes;
    let updates = (rounds * n as u64) as f64;

    let seq_rate = {
        let mut scratch = Scratch::for_game(game);
        let mut profile = vec![0u8; n];
        let clock = std::time::Instant::now();
        for t in 0..ticks {
            d.step_coloured_bytes(coloring, t, 2, None, &mut profile, &mut scratch);
        }
        std::hint::black_box(&profile);
        updates / clock.elapsed().as_secs_f64()
    };

    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = RuntimeConfig {
            workers,
            ..RuntimeConfig::from_env()
        };
        let pool = WorkerPool::new(&config);

        let pooled_rate = {
            let mut scratch = Scratch::for_game(game);
            let mut profile = vec![0u8; n];
            let clock = std::time::Instant::now();
            for t in 0..ticks {
                d.step_coloured_pooled_bytes(
                    coloring,
                    t,
                    2,
                    None,
                    &mut profile,
                    &mut scratch,
                    &pool,
                    &config,
                );
            }
            std::hint::black_box(&profile);
            updates / clock.elapsed().as_secs_f64()
        };

        let pooled_over_seq = pooled_rate / seq_rate;
        eprintln!(
            "   scaling  workers = {workers}: seq = {seq_rate:.3e}, pooled = {pooled_rate:.3e}, pooled/seq = {pooled_over_seq:.3}"
        );
        rows.push(format!(
            "        {{\"workers\": {workers}, \"coloured_seq_updates_per_sec\": {seq_rate:.0}, \"coloured_pooled_updates_per_sec\": {pooled_rate:.0}, \"pooled_over_seq\": {pooled_over_seq:.3}}}"
        ));
    }
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    format!(
        "  \"coloured_worker_scaling\": {{\n    \"what\": \"the pooled vs sequential byte sweeps (step_coloured_pooled_bytes vs step_coloured_bytes, Logit) at explicit worker counts on the same circulant (n = {n}, degree {degree}); recorded, not gated — worker counts above the emitting host's cores ({host_cores} here) oversubscribe, and the committed ratios document how gracefully the pool degrades (near-linear scaling is the expectation only up to the core count)\",\n    \"rows\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    )
}

/// One timed leg of the stateless table path: `updates` uniform
/// `step_scheduled` ticks from all-zeros on the ChaCha stream of seed
/// `seed`. Returns ns per update, the moves made and the final profile.
fn stateless_leg(
    d: &LogitDynamics<GraphicalCoordinationGame>,
    seed: u64,
    updates: u64,
) -> (f64, u64, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut scratch = Scratch::for_game(d.game());
    let mut profile = vec![0usize; d.game().num_players()];
    let mut moves = 0u64;
    let clock = std::time::Instant::now();
    for t in 0..updates {
        moves += d.step_scheduled(&UniformSingle, t, &mut profile, &mut scratch, &mut rng) as u64;
    }
    let ns = clock.elapsed().as_secs_f64() * 1e9 / updates as f64;
    (ns, moves, profile)
}

/// One timed leg of the word path: `Simulator::run_profiles` with one
/// replica on one worker, whose stream is the one of seed `seed`, from
/// all-zeros. Its one sample, at the last tick, reads 1 only if the profile
/// equals `expected`, the stateless leg's final profile; the leg panics
/// otherwise. Returns ns per update.
fn word_leg(
    d: &LogitDynamics<GraphicalCoordinationGame>,
    seed: u64,
    updates: u64,
    expected: &[usize],
) -> f64 {
    let runtime = RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::from_env()
    };
    let sim = Simulator::with_runtime(seed, 1, runtime);
    let same = NamedObservable::new("same_profile", |x: &[usize]| {
        f64::from(u8::from(x == expected))
    });
    let start = vec![0usize; expected.len()];
    let clock = std::time::Instant::now();
    let result = sim.run_profiles(d, &UniformSingle, &start, updates, updates, &same);
    let ns = clock.elapsed().as_secs_f64() * 1e9 / updates as f64;
    assert_eq!(
        result.final_values,
        vec![1.0],
        "the word path left the stateless trajectory"
    );
    ns
}

/// The `words` row-set: ns per update of the stateless table path (a
/// `step_scheduled` loop, which counts each player's neighbours on 1 at
/// every update) against the word path (`run_profiles`, which keeps one
/// neighbour-count word per player and reads a row only on a move), on one
/// thread and one ChaCha stream. Graphical 2/1, logit, uniform selection,
/// from all-zeros: a move-rich row and two null-dominated ones. Each row
/// is the median of 5 interleaved rounds, and every word leg asserts
/// in-process that it ends on the stateless leg's profile.
fn word_rows(updates: u64) -> String {
    let instances = [
        ("ring", GraphBuilder::ring(100_000), 0.5),
        ("ring", GraphBuilder::ring(100_000), 2.0),
        ("torus", GraphBuilder::torus(316, 316), 1.0),
    ];
    let seed = 0x30D5;
    let mut rows = Vec::new();
    for (name, graph, beta) in instances {
        let game = GraphicalCoordinationGame::new(graph, CoordinationGame::from_deltas(2.0, 1.0));
        let n = game.num_players();
        let d = LogitDynamics::new(game, beta);
        let (mut stateless, mut words, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        let mut move_fraction = 0.0;
        for _ in 0..5 {
            let (ns, moves, expected) = stateless_leg(&d, seed, updates);
            let word_ns = word_leg(&d, seed, updates, &expected);
            move_fraction = moves as f64 / updates as f64;
            stateless.push(ns);
            words.push(word_ns);
            ratios.push(ns / word_ns);
        }
        let (stateless, words, ratio) = (median(stateless), median(words), median(ratios));
        eprintln!(
            "   words {name:>5} n = {n} beta = {beta}: moves {move_fraction:.4}, stateless = {stateless:.1} ns, words = {words:.1} ns, stateless/words = {ratio:.2}"
        );
        rows.push(format!(
            "        {{\"graph\": \"{name}\", \"n\": {n}, \"beta\": {beta}, \"move_fraction\": {move_fraction:.5}, \"stateless_ns_per_update\": {stateless:.2}, \"words_ns_per_update\": {words:.2}, \"stateless_over_words\": {ratio:.3}}}"
        ));
    }
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    format!(
        "  \"words\": {{\n    \"what\": \"ns per update of the stateless table path (step_scheduled loop: counts the player's neighbours on 1 at every update) vs the word path (Simulator::run_profiles, 1 replica, 1 worker: one u32 neighbour-count word per player, a row read only on a move), same ChaCha seed, graphical 2/1, logit, uniform selection, from all-zeros, {updates} updates per leg; each ns figure is the median of 5 interleaved rounds and stateless_over_words the median same-round ratio; move_fraction is the share of updates that changed a strategy. In-process gate: every word leg ends on the stateless leg's final profile\",\n    \"host_cores\": {host_cores},\n    \"rows\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    )
}

/// A circulant with its player labels scrambled by a seeded random
/// permutation — the worst-case-locality instance the `large_n` rows run
/// on: the interaction structure is a narrow band, but the labelling hides
/// it, so the unrelabelled engine gathers from all over an `O(n)` array
/// while the RCM layout recovers bandwidth ≈ `2k` and turns every gather
/// into a near-neighbour load.
fn shuffled_circulant(n: usize, k: usize, seed: u64) -> Graph {
    let graph = GraphBuilder::circulant(n, k);
    let mut rng = StdRng::seed_from_u64(seed);
    let shuffle = VertexOrdering::random(n, &mut rng);
    graph.relabelled(&shuffle)
}

/// Nonzero entries of [`Graph::degree_histogram`] as a compact
/// `"degree:count"` string — the per-row record that the instance's degree
/// profile is what the row claims (uniform `2k` for the circulants here).
fn degree_histogram_summary(graph: &Graph) -> String {
    graph
        .degree_histogram()
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(d, &count)| format!("{d}:{count}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One timed leg of the relabelled CSR byte engine: `rounds` full colour
/// rounds of `step_coloured_pooled_bytes`, returning updates per second.
#[allow(clippy::too_many_arguments)]
fn csr_leg<U: UpdateRule>(
    engine: &DynamicsEngine<GraphicalCoordinationGame, U>,
    layout: &LocalityLayout,
    rounds: u64,
    bytes: &mut [u8],
    scratch: &mut Scratch,
    pool: &WorkerPool,
    config: &RuntimeConfig,
) -> f64 {
    let classes = layout.coloring().num_classes() as u64;
    let updates = rounds * bytes.len() as u64;
    let clock = std::time::Instant::now();
    for t in 0..rounds * classes {
        engine.step_coloured_pooled_bytes(
            layout.coloring(),
            t,
            2,
            Some(layout.labels()),
            bytes,
            scratch,
            pool,
            config,
        );
    }
    std::hint::black_box(&bytes);
    updates as f64 / clock.elapsed().as_secs_f64()
}

/// One committed `large_n` row: the memory-locality engine (RCM-relabelled
/// game, CSR adjacency, byte SoA profile, cache-blocked pooled sweeps,
/// draws keyed by original player ids) against the same pooled byte sweep
/// on the unrelabelled, label-shuffled circulant. Two in-process gates run
/// before any number is emitted:
///
/// 1. *Bit-identity* — one full colour round of the relabelled byte pooled
///    path, unpacked through the inverse permutation, must reproduce the
///    unrelabelled sequential class sweep exactly (moved counts included).
/// 2. *Throughput* — at `n ≥ 10⁵` (adjacency past L2) the best
///    csr_relabelled/pooled ratio over the interleaved rounds must reach
///    1.0: the relabelling must never tax the engine where it matters.
///
/// `rate_vs_n1e4` (the tentpole's ≥ 0.70-at-`10⁶` win condition) is
/// measured as a **paired** ratio: csr-only legs on this instance alternate
/// with equal-update legs on a same-rule `n = 10⁴` reference instance, and
/// the committed number is the median of the per-pair ratios — so host
/// throughput drift (the emitting host is a 1-core VM whose sustained rate
/// wanders ±15% over minutes) cancels instead of landing in the quotient.
fn large_n_row<U: UpdateRule>(
    rule: U,
    n: usize,
    k: usize,
    rounds: u64,
    pool: &WorkerPool,
    config: &RuntimeConfig,
) -> String {
    let shuffled = shuffled_circulant(n, k, 0x0BAD_C0DE ^ n as u64);
    let histogram = degree_histogram_summary(&shuffled);
    let coloring = coloring_for_graph(&shuffled);
    let layout = LocalityLayout::from_graph(&shuffled, &coloring);
    let base = CoordinationGame::from_deltas(1.0, 2.0);
    let game = GraphicalCoordinationGame::new(shuffled.clone(), base);
    let relabelled = GraphicalCoordinationGame::new(layout.relabel_graph(&shuffled), base);
    drop(shuffled);
    let classes = coloring.num_classes();
    let d = DynamicsEngine::with_rule(game, rule.clone(), 1.5);
    let dl = DynamicsEngine::with_rule(relabelled, rule.clone(), 1.5);

    // Gate 1, bit-identity: a full colour round of the relabelled byte
    // pooled path must replay the unrelabelled sequential class sweep
    // exactly after the inverse permutation.
    {
        let mut reference = vec![0usize; n];
        let mut ref_scratch = Scratch::for_game(d.game());
        let mut bytes = Vec::new();
        layout.pack_profile(&reference, &mut bytes);
        let mut byte_scratch = Scratch::for_game(dl.game());
        let mut unpacked = Vec::new();
        for t in 0..classes as u64 {
            let moved_ref =
                d.step_coloured(&coloring, t, 0x10CA_117F, &mut reference, &mut ref_scratch);
            let moved_csr = dl.step_coloured_pooled_bytes(
                layout.coloring(),
                t,
                0x10CA_117F,
                Some(layout.labels()),
                &mut bytes,
                &mut byte_scratch,
                pool,
                config,
            );
            assert_eq!(
                moved_ref,
                moved_csr,
                "relabelled moved count diverged ({} at n = {n}, tick {t})",
                rule.name()
            );
            layout.unpack_profile(&bytes, &mut unpacked);
            assert_eq!(
                unpacked,
                reference,
                "relabelled CSR path diverged ({} at n = {n}, tick {t})",
                rule.name()
            );
        }
    }

    // Interleaved throughput rounds so scheduler drift hits both paths
    // alike; committed rates are the medians, the gate uses the best ratio.
    let gate_rounds = 3u64;
    let sub_rounds = rounds.max(1);
    let sub_ticks = sub_rounds * classes as u64;
    let sub_updates = (sub_rounds * n as u64) as f64;
    let mut pooled_rates = Vec::new();
    let mut csr_rates = Vec::new();
    let mut ratios = Vec::new();
    {
        let mut pooled_profile = vec![0u8; n];
        let mut pooled_scratch = Scratch::for_game(d.game());
        let mut bytes = vec![0u8; n];
        let mut byte_scratch = Scratch::for_game(dl.game());
        for _ in 0..gate_rounds {
            let clock = std::time::Instant::now();
            for t in 0..sub_ticks {
                d.step_coloured_pooled_bytes(
                    &coloring,
                    t,
                    2,
                    None,
                    &mut pooled_profile,
                    &mut pooled_scratch,
                    pool,
                    config,
                );
            }
            std::hint::black_box(&pooled_profile);
            let pooled_rate = sub_updates / clock.elapsed().as_secs_f64();

            let clock = std::time::Instant::now();
            for t in 0..sub_ticks {
                dl.step_coloured_pooled_bytes(
                    layout.coloring(),
                    t,
                    2,
                    Some(layout.labels()),
                    &mut bytes,
                    &mut byte_scratch,
                    pool,
                    config,
                );
            }
            std::hint::black_box(&bytes);
            let csr_rate = sub_updates / clock.elapsed().as_secs_f64();

            ratios.push(csr_rate / pooled_rate);
            pooled_rates.push(pooled_rate);
            csr_rates.push(csr_rate);
        }
    }
    let pooled = median(pooled_rates);
    let csr = median(csr_rates);
    let csr_over_pooled = csr / pooled;
    let best_csr_over_pooled = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    // Steady-state rate and the size-vs-size ratio. Two separate defects of
    // the naive protocol are handled here:
    //
    // * The interleaved rounds above are the fair csr-vs-pooled head-to-head
    //   (both paths eat the same scheduler drift), but they also make each
    //   csr leg restart with a cache full of the pooled leg's shuffled
    //   adjacency — a tax no sustained simulation pays. The committed
    //   steady rate is therefore the median of csr-only legs.
    // * Dividing this instance's rate by an `n = 10⁴` rate measured minutes
    //   earlier bakes host throughput drift into the quotient (the emitting
    //   1-core VM wanders ±15% over minutes). So each csr leg is *paired*
    //   with an equal-update leg on a same-rule `n = 10⁴` reference
    //   instance run seconds before it, and `rate_vs_n1e4` is the median of
    //   the per-pair ratios.
    let steady_pairs = 5;
    let mut reference_1e4 = (n > 10_000).then(|| {
        let ref_graph = shuffled_circulant(10_000, k, 0x0BAD_C0DE ^ 10_000);
        let ref_coloring = coloring_for_graph(&ref_graph);
        let ref_layout = LocalityLayout::from_graph(&ref_graph, &ref_coloring);
        let ref_game = GraphicalCoordinationGame::new(ref_layout.relabel_graph(&ref_graph), base);
        let engine = DynamicsEngine::with_rule(ref_game, rule.clone(), 1.5);
        let bytes = vec![0u8; 10_000];
        let scratch = Scratch::for_game(engine.game());
        (engine, ref_layout, bytes, scratch)
    });
    let ref_rounds = sub_rounds * (n as u64 / 10_000);
    let (csr_steady, rate_vs_n1e4) = {
        let zeros = vec![0usize; n];
        let mut bytes = Vec::new();
        layout.pack_profile(&zeros, &mut bytes);
        let mut byte_scratch = Scratch::for_game(dl.game());
        let mut steady_rates = Vec::new();
        let mut paired_ratios = Vec::new();
        for _ in 0..steady_pairs {
            let ref_rate = reference_1e4
                .as_mut()
                .map(|(engine, l, b, s)| csr_leg(engine, l, ref_rounds, b, s, pool, config));
            let rate = csr_leg(
                &dl,
                &layout,
                sub_rounds,
                &mut bytes,
                &mut byte_scratch,
                pool,
                config,
            );
            steady_rates.push(rate);
            if let Some(ref_rate) = ref_rate {
                paired_ratios.push(rate / ref_rate);
            }
        }
        let ratio = (!paired_ratios.is_empty()).then(|| median(paired_ratios));
        (median(steady_rates), ratio)
    };

    // Gate 2, throughput: once the adjacency is past L2 the locality layer
    // must pay for itself on the emitting host.
    if n >= 100_000 {
        assert!(
            best_csr_over_pooled >= 1.0,
            "relabelled CSR path taxes the unrelabelled pooled byte sweep ({}: best csr/pooled = {best_csr_over_pooled:.3} at n = {n})",
            rule.name()
        );
    }

    let rate_vs_field = rate_vs_n1e4
        .map(|r| format!("{r:.3}"))
        .unwrap_or_else(|| "null".to_string());
    eprintln!(
        "   large_n {:>17} n = {n:>8}: bandwidth {} -> {}, pooled = {pooled:.3e}, csr_relabelled = {csr:.3e} (steady {csr_steady:.3e}), csr/pooled = {csr_over_pooled:.3} (best {best_csr_over_pooled:.3}), vs n=1e4: {rate_vs_field}",
        rule.name(),
        layout.bandwidth_before(),
        layout.bandwidth_after(),
    );
    let row = format!(
        "        {{\"rule\": \"{}\", \"n\": {n}, \"degree_histogram\": \"{histogram}\", \"classes\": {classes}, \"bandwidth_shuffled\": {}, \"bandwidth_rcm\": {}, \"block_players\": {}, \"pooled_updates_per_sec\": {pooled:.0}, \"csr_relabelled_updates_per_sec\": {csr:.0}, \"csr_steady_updates_per_sec\": {csr_steady:.0}, \"csr_over_pooled\": {csr_over_pooled:.3}, \"best_csr_over_pooled\": {best_csr_over_pooled:.3}, \"rate_vs_n1e4\": {rate_vs_field}}}",
        rule.name(),
        layout.bandwidth_before(),
        layout.bandwidth_after(),
        config.block_players,
    );
    row
}

fn large_n_rows(steps: u64, full: bool) -> String {
    let k = 4usize;
    let config = RuntimeConfig::from_env();
    let pool = WorkerPool::new(&config);
    let sizes: &[usize] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };
    let mut rows = Vec::new();
    // A named runner per rule: (n, rounds) -> row.
    type LargeNRunner<'a> = Box<dyn Fn(usize, u64) -> String + 'a>;
    let rules: [(&str, LargeNRunner); 3] = [
        (
            "logit",
            Box::new(|n, r| large_n_row(Logit, n, k, r, &pool, &config)),
        ),
        (
            "metropolis-logit",
            Box::new(|n, r| large_n_row(MetropolisLogit, n, k, r, &pool, &config)),
        ),
        (
            "noisy-best-response",
            Box::new(|n, r| large_n_row(NoisyBestResponse::new(0.1), n, k, r, &pool, &config)),
        ),
    ];
    for (name, run) in &rules {
        for &n in sizes {
            eprintln!(
                "   building shuffled circulant(n = {n}, k = {k}) + RCM layout for {name} ..."
            );
            // Every leg gets ~`steps` updates regardless of size, so every
            // rate is measured over the same wall-clock scale.
            let rounds = (steps / n as u64).max(1);
            rows.push(run(n, rounds));
        }
        // The 10⁷ tail is measured for the logit rule only: the other rules
        // share the kernel shape, and the instance build dominates the run.
        if *name == "logit" && full {
            eprintln!(
                "   building shuffled circulant(n = 10000000, k = {k}) + RCM layout for logit ..."
            );
            rows.push(run(10_000_000, 1));
        }
    }
    format!(
        "  \"large_n\": {{\n    \"what\": \"memory-locality engine (reverse-Cuthill-McKee relabelled game, CSR adjacency, byte SoA strategy profile, cache-blocked pooled sweeps of at most block_players players, draws keyed by original ids) vs the same pooled byte sweep (step_coloured_pooled_bytes) on the unrelabelled label-shuffled circulant (degree {}); pooled_updates_per_sec is that unrelabelled leg; two in-process gates before emission: bit-identity (one full colour round of the relabelled byte path, unpacked through the inverse permutation, == the unrelabelled sequential class sweep, moved counts included) and throughput (best csr_relabelled/pooled over 3 interleaved rounds >= 1.0 at n >= 1e5). Committed invariants: the gates, bandwidth_shuffled >> bandwidth_rcm (the relabelling recovers the hidden band), and rate_vs_n1e4 — each size's csr rate against the same rule's n = 1e4 reference, measured as the median of paired ratios (each csr-only steady leg runs seconds after an equal-update leg on a same-rule n = 1e4 reference instance, so host throughput drift cancels in the quotient instead of being committed); the tentpole win condition is >= 0.70 at n = 1e6 (the locality layer holds most of the in-cache rate at 100x the size). csr_steady_updates_per_sec is the median of the csr-only legs — the rate a sustained run sees, without the interleaved rounds' cache-repollution tax\",\n    \"rows\": [\n{}\n    ]\n  }}",
        2 * k,
        rows.join(",\n")
    )
}

/// Aggregate stepping throughput of a replica ensemble through either the
/// sequential `run_profiles` path (every replica at once, end-of-run fold)
/// or the farmed runner (whole replicas claimed per dispatch, or waves of
/// replicas in segments, folded after each segment). Both evaluate the
/// observable on the threads that step, so the gap is the cost of the
/// dispatches and the per-segment fold.
/// Returns the rate and the full result so the caller can pin the
/// bit-identity contract in-process.
fn ensemble_steps_per_sec<U: UpdateRule>(
    n: usize,
    rule: U,
    replicas: usize,
    steps_per_replica: u64,
    pipelined: bool,
) -> (f64, logit_core::ProfileEnsembleResult) {
    let dynamics = ring_dynamics(n, rule);
    let sim = Simulator::new(0xB1BE, replicas);
    let observable = StrategyFraction::new(1, "adopters");
    let start = vec![0usize; n];
    let sample_every = (steps_per_replica / 8).max(1);
    let clock = std::time::Instant::now();
    let result = if pipelined {
        sim.run_profiles_pipelined(
            &dynamics,
            &UniformSingle,
            &start,
            steps_per_replica,
            sample_every,
            &observable,
            None,
        )
        .expect("uncancelled runs complete")
    } else {
        sim.run_profiles(
            &dynamics,
            &UniformSingle,
            &start,
            steps_per_replica,
            sample_every,
            &observable,
        )
    };
    let total = steps_per_replica * replicas as u64;
    let rate = total as f64 / clock.elapsed().as_secs_f64();
    std::hint::black_box(&result.final_values);
    (rate, result)
}

/// The in-process bit-identity gate: final observable values *and* every
/// per-time `RunningStats` must match exactly — a fold-order regression at
/// an intermediate sample index cannot hide behind matching finals.
fn assert_bit_identical(
    seq: &logit_core::ProfileEnsembleResult,
    pipe: &logit_core::ProfileEnsembleResult,
    context: &str,
) {
    assert_eq!(
        seq.final_values, pipe.final_values,
        "pipelined ensemble diverged from the sequential path ({context})"
    );
    assert_eq!(seq.times, pipe.times, "time grids diverged ({context})");
    for (k, (s, p)) in seq.series.iter().zip(&pipe.series).enumerate() {
        assert!(
            s.count() == p.count()
                && s.mean() == p.mean()
                && s.variance() == p.variance()
                && s.min() == p.min()
                && s.max() == p.max(),
            "pipelined series stats diverged at sample {k} ({context})"
        );
    }
}

/// One committed `pipelined` row: median-of-3 interleaved sequential vs
/// pipelined rounds for one rule, with the bit-identity contract asserted on
/// every round (the pipelined runner must reproduce the sequential ensemble
/// exactly, not just at matching speed).
fn pipelined_row<U: UpdateRule>(
    rule: U,
    n: usize,
    replicas: usize,
    steps_per_replica: u64,
) -> String {
    let mut rounds: Vec<(f64, f64)> = (0..3)
        .map(|_| {
            let (seq, seq_result) =
                ensemble_steps_per_sec(n, rule.clone(), replicas, steps_per_replica, false);
            let (pipe, pipe_result) =
                ensemble_steps_per_sec(n, rule.clone(), replicas, steps_per_replica, true);
            assert_bit_identical(
                &seq_result,
                &pipe_result,
                &format!("{} at n = {n}", rule.name()),
            );
            (seq, pipe)
        })
        .collect();
    rounds.sort_by(|a, b| {
        (a.1 / a.0)
            .partial_cmp(&(b.1 / b.0))
            .expect("finite ratios")
    });
    let (seq, pipe) = rounds[1];
    let ratio = pipe / seq;
    eprintln!(
        "  pipelined {:>17} n = {n:>6}: sequential = {seq:.3e}, pipelined = {pipe:.3e}, ratio = {ratio:.3}",
        rule.name()
    );
    format!(
        "        {{\"rule\": \"{}\", \"n\": {n}, \"replicas\": {replicas}, \"sequential_steps_per_sec\": {seq:.0}, \"pipelined_steps_per_sec\": {pipe:.0}, \"pipelined_over_sequential\": {ratio:.3}}}",
        rule.name()
    )
}

fn pipelined_rows(n: usize, steps: u64) -> String {
    let replicas = 8usize;
    let steps_per_replica = (steps / replicas as u64).max(1);
    let rows = [
        pipelined_row(Logit, n, replicas, steps_per_replica),
        pipelined_row(MetropolisLogit, n, replicas, steps_per_replica),
        pipelined_row(NoisyBestResponse::new(0.1), n, replicas, steps_per_replica),
    ];
    format!(
        "  \"pipelined\": {{\n    \"what\": \"Simulator::run_profiles_pipelined (resumable segments of at most SEGMENT_UPDATES updates per replica over waves of farm_workers(replicas) live replicas, one pool dispatch per segment, samples folded in replica order on the caller after each segment; here every replica's whole run fits in a segment, so each dispatch runs whole replicas claimed one at a time by farm_workers(replicas) participants, at most that many live) vs run_profiles through the same engine, {replicas} replicas, StrategyFraction sampled 8x per run; bit-identity of the final observable values and every per-time series statistic is asserted in-process every round, and the committed per-rule ratio is the invariant (stepping throughput must stay within 10% of the sequential baseline)\",\n    \"rows\": [\n{}\n    ]\n  }}",
        rows.join(",\n")
    )
}

fn rule_rows<U: UpdateRule>(rule: U, sizes: &[usize], steps: u64) -> String {
    let mut rows = Vec::new();
    for &n in sizes {
        let flat = if n <= FLAT_LIMIT {
            format!("{:.0}", flat_steps_per_sec(n, rule.clone(), steps))
        } else {
            "null".to_string()
        };
        let profile = profile_steps_per_sec(n, rule.clone(), steps);
        rows.push(format!(
            "        {{\"n\": {n}, \"flat_steps_per_sec\": {flat}, \"profile_steps_per_sec\": {profile:.0}}}"
        ));
        eprintln!(
            "{:>19} n = {n:>6}: flat = {flat:>12}, profile = {profile:.3e} steps/sec",
            rule.name()
        );
    }
    format!(
        "    {{\n      \"rule\": \"{}\",\n      \"rows\": [\n{}\n      ]\n    }}",
        rule.name(),
        rows.join(",\n")
    )
}

/// Service row-set: the `logit-server` job server under a concurrent mixed
/// batch, measured as admission-to-DONE latency per job plus aggregate
/// throughput. The in-process gate is the service's whole contract: every
/// streamed series must be **byte-identical** (as wire frames, i.e. f64 bit
/// patterns) to an offline `run_direct` replay of the same description on a
/// fresh `Simulator` — across cache hits, concurrent tenants and a
/// cancellation racing the batch. A diverging stream panics before any row
/// is emitted.
fn service_rows(steps: u64) -> String {
    use logit_server::{
        prepare, run_direct, submit_job, ArtifactCache, ClientOutcome, JobSpec, RunningServer,
        ServerConfig,
    };
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;

    let steps = steps.min(200_000);
    let job_text = |seed: u64, flavour: usize| -> String {
        match flavour {
            0 => format!(
                "game=graphical\ntopology=ring\nn=1000\ndelta0=2.0\ndelta1=1.0\n\
                 rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.2\nsteps={steps}\n\
                 sample_every={}\nobservable=fraction1\nreplicas=8\nseed={seed}",
                steps / 8
            ),
            1 => format!(
                "game=ising\ntopology=torus\nrows=24\ncols=24\ncoupling=0.8\n\
                 rule=metropolis\nschedule=sweep\nmode=pipelined\nbeta=0.9\nsteps={steps}\n\
                 sample_every={}\nobservable=potential\nreplicas=6\nseed={seed}",
                steps / 8
            ),
            _ => format!(
                "game=ising\ntopology=circulant\nn=600\nk=3\ncoupling=1.0\n\
                 rule=logit\nschedule=coloured\nmode=pipelined\nbeta=1.5\nsteps={}\n\
                 sample_every={}\nobservable=fraction0\nreplicas=4\nseed={seed}",
                steps / 4,
                steps / 16
            ),
        }
    };

    let server = RunningServer::start(0, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let jobs = 12usize;
    let clients = 4usize;
    let next = Arc::new(AtomicUsize::new(0));
    let started = std::time::Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = Arc::clone(&next);
                scope.spawn(move || {
                    let mut secs = Vec::new();
                    loop {
                        let j = next.fetch_add(1, AtomicOrdering::Relaxed);
                        if j >= jobs {
                            return secs;
                        }
                        let text = job_text(j as u64, j % 3);
                        let (outcome, timing) =
                            submit_job(addr, &text, None).expect("service bench client io");
                        let streamed = match outcome {
                            ClientOutcome::Done(s) => s,
                            other => panic!("service bench job must complete, got {other:?}"),
                        };
                        // The gate: streamed bytes == offline replay bytes.
                        let spec = JobSpec::parse(&text).expect("bench job parses");
                        let offline_cache = ArtifactCache::new(4);
                        let direct =
                            run_direct(&prepare(spec, &offline_cache).expect("bench job admits"));
                        assert_eq!(
                            streamed.wire_text(),
                            direct.wire_text(),
                            "service stream diverged from the offline replay"
                        );
                        secs.push(timing.total_secs);
                    }
                })
            })
            .collect();
        // A cancellation in flight alongside the measured batch: it must
        // end cleanly without disturbing any measured job.
        let cancel_text = job_text(999, 0);
        let cancelled = submit_job(addr, &cancel_text, Some(0)).expect("cancel client io");
        assert!(
            matches!(
                cancelled.0,
                ClientOutcome::Cancelled(_) | ClientOutcome::Done(_)
            ),
            "in-flight cancel must end the stream cleanly"
        );
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("service bench client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0, "no job may panic a pool worker");
    assert_eq!(latencies.len(), jobs);
    assert!(
        stats.artifact_cache.hits >= 1,
        "repeated game descriptions must hit the artifact cache"
    );

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = latencies[latencies.len() / 2];
    let p95 = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
    let jobs_per_sec = jobs as f64 / wall;
    eprintln!(
        "service: {jobs} jobs / {clients} clients, {jobs_per_sec:.2} jobs/s, p50 = {:.1} ms, p95 = {:.1} ms, cache {} hits / {} misses",
        p50 * 1e3,
        p95 * 1e3,
        stats.artifact_cache.hits,
        stats.artifact_cache.misses
    );
    format!(
        "  \"service\": {{\n    \"what\": \"logit-serve job server: {jobs} mixed jobs (graphical-uniform, ising-sweep, coloured-circulant) over {clients} concurrent clients with one cancellation in flight, {steps} steps per pipelined job; every streamed series asserted byte-identical (f64 bit patterns) to an offline run_direct replay before emission; latency is client-side submit-to-DONE\",\n    \"jobs\": {jobs},\n    \"concurrent_clients\": {clients},\n    \"jobs_per_sec\": {jobs_per_sec:.2},\n    \"latency_p50_ms\": {:.1},\n    \"latency_p95_ms\": {:.1},\n    \"artifact_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n    \"accepted\": {},\n    \"completed\": {},\n    \"cancelled\": {}\n  }}",
        p50 * 1e3,
        p95 * 1e3,
        stats.artifact_cache.hits,
        stats.artifact_cache.misses,
        stats.artifact_cache.evictions,
        stats.accepted,
        stats.completed,
        stats.cancelled,
    )
}

/// Escapes `text` for embedding as a JSON string value.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    // Force recording on (a no-op without the `telemetry` feature): the
    // committed row-sets below then travel with the registry dump of the
    // run that produced them.
    logit_telemetry::enable();
    let fast = std::env::args().any(|a| a == "--fast");
    let steps: u64 = if fast { FULL_STEPS / 10 } else { FULL_STEPS };
    let sizes = [16usize, 48, 1_000, 10_000, 100_000];

    let rule_sets = [
        rule_rows(Logit, &sizes, steps),
        rule_rows(MetropolisLogit, &sizes, steps),
        rule_rows(NoisyBestResponse::new(0.1), &sizes, steps),
    ];

    // Same-host parity certificate: generic engine vs the verbatim
    // pre-refactor loop at a representative size, both computing every
    // update (the engine runs on the ring game with its count kernel
    // hidden). Absolute throughput varies
    // with the host; this ratio is the invariant the baseline pins. Five
    // interleaved rounds, median ratio: three proved too few — a single
    // frequency-scaling or scheduler event during one leg skews a
    // median-of-3 enough to drift the committed ratio below the 10% band
    // (the 0.895 episode), while the engine and legacy loops are the same
    // hot path and genuinely at parity.
    let parity_n = 1_000;
    let mut ratios: Vec<(f64, f64, f64)> = (0..5)
        .map(|_| {
            let legacy = legacy_logit_steps_per_sec(parity_n, steps);
            let table_free = LogitDynamics::new(TableFree(ring_game(parity_n)), 1.5);
            let engine = engine_steps_per_sec(&table_free, steps);
            (engine / legacy, legacy, engine)
        })
        .collect();
    ratios.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ratios"));
    let (ratio, legacy, engine) = ratios[ratios.len() / 2];
    eprintln!(
        "parity (n = {parity_n}, median of 5): legacy = {legacy:.3e}, engine = {engine:.3e}, ratio = {ratio:.3}"
    );

    // Draw-cost rows: the ChaCha8 stream behind every replica ensemble,
    // gated on its pinned hash.
    let rng = rng_rows(if fast { 10_000_000 } else { 100_000_000 });

    // Tempered-engine rows: measured at the sizes where the ensemble is the
    // interesting tool (large-n in-place replicas; the tiny sizes only add
    // noise). The in-process ratio against the single profile engine is the
    // committed invariant.
    let tempered = tempered_rows(4, &[1_000, 10_000, 100_000], steps);

    // Pipelined-ensemble rows: the farmed runner's segments against the
    // sequential ensemble, per rule, at a size where a sample's evaluation
    // costs real time. Bit-identity is asserted inside, so a diverging
    // runner can never emit a baseline.
    let pipelined = pipelined_rows(10_000, steps);

    // Word rows: the ensembles' neighbour-count words against the
    // stateless table path, gated on equal final profiles.
    let words = word_rows(5 * steps);

    // Coloured independent-set rows: the parallel-revision engine paths on
    // a dense-degree circulant, gated on the in-process bit-identity check.
    let coloured = coloured_rows();

    // Memory-locality rows: the RCM-relabelled CSR byte engine against the
    // unrelabelled pooled byte sweep on label-shuffled circulants up to n = 10⁷,
    // gated on relabelled bit-identity. `--fast` stops at n = 10⁵ (the
    // larger instances exist to measure DRAM behaviour, not to smoke-test).
    let large_n = large_n_rows(steps, !fast);

    // Service rows: the job server end-to-end, gated on streamed-vs-direct
    // bit-identity for every completed job.
    let service = service_rows(steps);

    // The metrics-registry dump of this very run (span histograms, pool
    // and farm counters), attached beside the committed row-sets. In a
    // build without the `telemetry` feature this is the one-line
    // "disabled" snapshot.
    let telemetry = json_escape(&logit_telemetry::global().render());

    println!(
        "{{\n  \"benchmark\": \"revision-dynamics step throughput, ring coordination game (delta0=1, delta1=2, beta=1.5)\",\n  \"engines\": {{\n    \"flat\": \"decode flat usize index, step, re-encode (capped at n = {FLAT_LIMIT} binary players)\",\n    \"profile\": \"in-place profile update with reused Scratch buffers\"\n  }},\n  \"steps_per_measurement\": {steps},\n  \"legacy_parity\": {{\n    \"what\": \"generic engine (Logit rule) on the ring game with its count kernel hidden, so it computes every update as the loop does, vs verbatim pre-refactor inline loop, same host, same process, n = {parity_n}, median of 5 interleaved rounds\",\n    \"legacy_steps_per_sec\": {legacy:.0},\n    \"engine_steps_per_sec\": {engine:.0},\n    \"engine_over_legacy\": {ratio:.3}\n  }},\n{rng},\n{tempered},\n{pipelined},\n{words},\n{coloured},\n{large_n},\n{service},\n  \"telemetry\": \"{telemetry}\",\n  \"rules\": [\n{}\n  ]\n}}",
        rule_sets.join(",\n")
    );
}
