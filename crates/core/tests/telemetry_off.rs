//! The telemetry-off guard: a default build (no `telemetry` feature)
//! must be *provably* unobservable — zero-sized instrument handles, an
//! empty registry whatever the engines do, and bit-identical pipelined
//! and coloured-pooled trajectories under fixed seeds even with
//! `LOGIT_TELEMETRY=1` in the environment (the runtime switch cannot
//! conjure instruments the build left out).
//!
//! The whole file is compiled out of feature builds: the equivalent
//! live-path assertions live in `telemetry_on.rs`.

#![cfg(not(feature = "telemetry"))]

use logit_core::observables::PotentialObservable;
use logit_core::parallel::coloring_for_game;
use logit_core::rules::{Logit, MetropolisLogit};
use logit_core::{DynamicsEngine, RuntimeConfig, Scratch, Simulator, UniformSingle, WorkerPool};
use logit_games::{Game, GraphicalCoordinationGame, TablePotentialGame};
use logit_graphs::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The compile-time pin of the "no telemetry feature = no cost" claim:
/// every handle an instrumented struct embeds (pool, farm sender,
/// lag controller, cache) occupies zero bytes, so the instrumented
/// layouts are byte-for-byte what they were before instrumentation.
#[test]
fn instrument_handles_are_zero_sized_in_the_default_build() {
    assert_eq!(std::mem::size_of::<logit_telemetry::Counter>(), 0);
    assert_eq!(std::mem::size_of::<logit_telemetry::Gauge>(), 0);
    assert_eq!(std::mem::size_of::<logit_telemetry::Histogram>(), 0);
    assert_eq!(std::mem::size_of::<logit_telemetry::Span>(), 0);
    assert!(!logit_telemetry::enabled());
    assert!(
        !logit_telemetry::enable(),
        "the runtime switch needs the feature"
    );
}

/// Driving every instrumented engine layer must leave the no-op registry
/// empty: no instrument names, no allocations, nothing to render.
#[test]
fn engines_never_register_instruments_without_the_feature() {
    let runtime = RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    };
    let sim = Simulator::with_runtime(0xAB, 4, runtime);
    let mut rng = StdRng::seed_from_u64(7);
    let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut rng);
    let d = DynamicsEngine::with_rule(game.clone(), Logit, 1.1);
    let obs = PotentialObservable::new(game);
    let _ = sim.run_profiles_pipelined(&d, &UniformSingle, &[0, 0, 0], 40, 8, &obs, None);
    assert_eq!(
        logit_telemetry::global().instrument_count(),
        0,
        "a feature-off build may never allocate registry entries"
    );
    assert!(logit_telemetry::global()
        .render()
        .contains("telemetry disabled"));
}

/// Fixed-seed bit-identity with `LOGIT_TELEMETRY=1` exported: pipelined
/// against sequential. The env switch is set *inside* the test process
/// (reads are per-process cached, so this test also pins that a no-op
/// build never even consults the variable).
#[test]
fn pipelined_runs_stay_bit_identical_with_the_env_switch_set() {
    std::env::set_var("LOGIT_TELEMETRY", "1");
    let mut rng = StdRng::seed_from_u64(2024);
    let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut rng);
    let runtime = RuntimeConfig {
        workers: 3,
        ..RuntimeConfig::default()
    };
    let sim = Simulator::with_runtime(2024 ^ 0x9192, 16, runtime);
    let obs = PotentialObservable::new(game.clone());
    for beta in [0.4, 1.7] {
        let d = DynamicsEngine::with_rule(game.clone(), Logit, beta);
        let start = [0usize, 0, 0];
        let sequential = sim.run_profiles(&d, &UniformSingle, &start, 33, 10, &obs);
        let pipelined = sim
            .run_profiles_pipelined(&d, &UniformSingle, &start, 33, 10, &obs, None)
            .expect("uncancelled runs complete");
        assert_eq!(sequential.times, pipelined.times);
        assert_eq!(sequential.final_values, pipelined.final_values);
        assert_eq!(sequential.law().ks_distance(&pipelined.law()), 0.0);
    }
    assert_eq!(logit_telemetry::global().instrument_count(), 0);
}

/// Fixed-seed bit-identity, the pooled byte sweep against the sequential
/// class sweep — the same contract the proptests sweep, pinned here under
/// the no-op build with the env switch set.
#[test]
fn coloured_pooled_runs_stay_bit_identical_with_the_env_switch_set() {
    std::env::set_var("LOGIT_TELEMETRY", "1");
    let mut graph_rng = StdRng::seed_from_u64(4242);
    let graph = GraphBuilder::connected_erdos_renyi(9, 0.5, &mut graph_rng, 20);
    let game =
        GraphicalCoordinationGame::new(graph, logit_games::CoordinationGame::from_deltas(2.0, 1.0));
    let coloring = coloring_for_game(&game);
    let config = RuntimeConfig {
        workers: 3,
        min_class_size: 0,
        ..RuntimeConfig::default()
    };
    let pool = WorkerPool::new(&config);
    let d = DynamicsEngine::with_rule(game.clone(), MetropolisLogit, 1.3);
    let n = game.num_players();
    let mut scratch = Scratch::for_game(&game);
    let mut pooled_scratch = Scratch::for_game(&game);
    let mut seq = vec![0usize; n];
    let mut pooled = vec![0u8; n];
    for t in 0..2 * coloring.num_classes() as u64 + 3 {
        let moved_seq = d.step_coloured(&coloring, t, 4242, &mut seq, &mut scratch);
        let moved_pooled = d.step_coloured_pooled_bytes(
            &coloring,
            t,
            4242,
            None,
            &mut pooled,
            &mut pooled_scratch,
            &pool,
            &config,
        );
        let widened: Vec<usize> = pooled.iter().map(|&s| s as usize).collect();
        assert_eq!(seq, widened, "pooled diverged at t = {t}");
        assert_eq!(moved_seq, moved_pooled);
    }
    assert_eq!(logit_telemetry::global().instrument_count(), 0);
}
