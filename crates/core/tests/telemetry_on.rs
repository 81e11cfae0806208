//! The live-telemetry counterpart of `telemetry_off.rs`: with the
//! `telemetry` feature compiled in and recording force-enabled, the
//! engines must (a) stay bit-identical to their sequential baselines —
//! instruments observe, they never steer — and (b) actually populate the
//! global registry with the runtime/pipeline instrument families the
//! observability docs promise.

#![cfg(feature = "telemetry")]

use logit_core::observables::PotentialObservable;
use logit_core::parallel::coloring_for_game;
use logit_core::rules::{Logit, MetropolisLogit};
use logit_core::{
    DynamicsEngine, RuntimeConfig, Scratch, Simulator, TemperingEnsemble, UniformSingle, WorkerPool,
};
use logit_games::{CoordinationGame, Game, GraphicalCoordinationGame, TablePotentialGame};
use logit_graphs::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The registry is global, so the engine families are checked in this one
/// test, free of inter-test ordering races; the tempering counters have a
/// test of their own, the only one in this binary that runs tempering.
#[test]
fn live_recording_observes_without_steering() {
    assert!(logit_telemetry::enable(), "feature builds honour enable()");
    assert!(logit_telemetry::enabled());

    // Farmed ensembles stay bit-identical to the sequential run while the
    // pool records a dispatch span per segment.
    let mut rng = StdRng::seed_from_u64(2024);
    let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut rng);
    let runtime = RuntimeConfig {
        workers: 3,
        ..RuntimeConfig::default()
    };
    let sim = Simulator::with_runtime(2024 ^ 0x9192, 16, runtime);
    let obs = PotentialObservable::new(game.clone());
    let d = DynamicsEngine::with_rule(game.clone(), Logit, 1.1);
    let start = [0usize, 0, 0];
    let sequential = sim.run_profiles(&d, &UniformSingle, &start, 33, 10, &obs);
    let pipelined = sim
        .run_profiles_pipelined(&d, &UniformSingle, &start, 33, 10, &obs, None)
        .expect("uncancelled runs complete");
    assert_eq!(sequential.times, pipelined.times);
    assert_eq!(sequential.final_values, pipelined.final_values);
    assert_eq!(sequential.law().ks_distance(&pipelined.law()), 0.0);

    // The pooled byte sweep stays bit-identical to the sequential class
    // sweep while the pool records dispatch spans and steal counts.
    let mut graph_rng = StdRng::seed_from_u64(4242);
    let graph = GraphBuilder::connected_erdos_renyi(9, 0.5, &mut graph_rng, 20);
    let coord =
        GraphicalCoordinationGame::new(graph, logit_games::CoordinationGame::from_deltas(2.0, 1.0));
    let coloring = coloring_for_game(&coord);
    let pool_config = RuntimeConfig {
        workers: 3,
        min_class_size: 0,
        ..RuntimeConfig::default()
    };
    let pool = WorkerPool::new(&pool_config);
    let engine = DynamicsEngine::with_rule(coord.clone(), MetropolisLogit, 1.3);
    let n = coord.num_players();
    let mut scratch = Scratch::for_game(&coord);
    let mut pooled_scratch = Scratch::for_game(&coord);
    let mut seq = vec![0usize; n];
    let mut pooled = vec![0u8; n];
    for t in 0..2 * coloring.num_classes() as u64 + 3 {
        let moved_seq = engine.step_coloured(&coloring, t, 4242, &mut seq, &mut scratch);
        let moved_pooled = engine.step_coloured_pooled_bytes(
            &coloring,
            t,
            4242,
            None,
            &mut pooled,
            &mut pooled_scratch,
            &pool,
            &pool_config,
        );
        let widened: Vec<usize> = pooled.iter().map(|&s| s as usize).collect();
        assert_eq!(
            seq, widened,
            "pooled diverged at t = {t} under live telemetry"
        );
        assert_eq!(moved_seq, moved_pooled);
    }

    // Both layers must have left their instrument families behind.
    assert!(logit_telemetry::global().instrument_count() > 0);
    let snapshot = logit_telemetry::global().render();
    for family in ["runtime_dispatch_ns", "runtime_chunks_stolen"] {
        assert!(
            snapshot.contains(family),
            "live registry must carry `{family}`; snapshot:\n{snapshot}"
        );
    }
    let samples = logit_telemetry::parse_prometheus(&snapshot)
        .expect("live snapshot must round-trip through the parser");
    assert!(
        samples
            .get("runtime_dispatch_ns_count")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "the pool recorded at least one dispatch span"
    );
}

/// Per-pair swap counters add up across concurrent ensembles: over one run
/// of several tempering ensembles on three workers, each pair's attempted
/// and accepted counters move by exactly the result's merged `SwapStats`,
/// and the unlabelled totals by their sums.
#[test]
fn per_pair_swap_counters_add_up_to_the_merged_swap_stats() {
    assert!(logit_telemetry::enable());
    let registry = logit_telemetry::global();
    let pairs = 3;
    let read = |name: &str| -> Vec<u64> {
        (0..pairs)
            .map(|pair| {
                registry
                    .counter_labelled(name, ("pair", &pair.to_string()))
                    .value()
            })
            .collect()
    };
    let totals = || {
        (
            registry.counter("tempering.swaps_attempted").value(),
            registry.counter("tempering.swaps_accepted").value(),
        )
    };
    let (attempted_before, accepted_before) = (
        read("tempering.pair_swaps_attempted"),
        read("tempering.pair_swaps_accepted"),
    );
    let totals_before = totals();

    let game = GraphicalCoordinationGame::new(
        GraphBuilder::ring(16),
        CoordinationGame::from_deltas(1.5, 0.7),
    );
    let ensemble = TemperingEnsemble::new(game.clone(), Logit, &[0.2, 0.6, 1.2, 2.0]);
    let runtime = RuntimeConfig {
        workers: 3,
        ..RuntimeConfig::default()
    };
    let sim = Simulator::with_runtime(77, 6, runtime);
    let result = sim
        .run_tempered(
            &ensemble,
            &UniformSingle,
            &[0; 16],
            50,
            8,
            10,
            &PotentialObservable::new(game),
            None,
        )
        .expect("uncancelled runs complete");

    let stats = &result.swap_stats;
    let attempted = read("tempering.pair_swaps_attempted");
    let accepted = read("tempering.pair_swaps_accepted");
    for pair in 0..pairs {
        assert_eq!(
            attempted[pair] - attempted_before[pair],
            stats.attempts(pair)
        );
        assert_eq!(accepted[pair] - accepted_before[pair], stats.accepts(pair));
    }
    let attempts: u64 = (0..pairs).map(|p| stats.attempts(p)).sum();
    let accepts: u64 = (0..pairs).map(|p| stats.accepts(p)).sum();
    assert_eq!(
        attempts,
        6 * 50 * 3,
        "every ensemble proposes every pair each round"
    );
    assert!(accepts > 0, "this ladder exchanges: {stats:?}");
    let (attempted_total, accepted_total) = totals();
    assert_eq!(attempted_total - totals_before.0, attempts);
    assert_eq!(accepted_total - totals_before.1, accepts);
}
