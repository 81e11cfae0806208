//! The replica spare list end to end. The list is process-wide, so this
//! file holds one test: run alone in its process, no other test's runs take
//! or give buffers between the steps it checks.

use logit_core::observables::PotentialObservable;
use logit_core::rules::Logit;
use logit_core::{
    spare, spare_stats, AllLogit, DynamicsEngine, ProfileEnsembleResult, RuntimeConfig, Simulator,
    SpareStats, TemperingEnsemble, UniformSingle,
};
use logit_games::{CoordinationGame, GraphicalCoordinationGame};
use logit_graphs::GraphBuilder;

fn bytes(result: &ProfileEnsembleResult) -> Vec<u64> {
    let series = result.series.iter().flat_map(|s| [s.mean(), s.variance()]);
    series
        .chain(result.final_values.iter().copied())
        .map(f64::to_bits)
        .collect()
}

fn bounded(stats: SpareStats) -> SpareStats {
    assert!(stats.held <= stats.bound, "{stats:?}");
    stats
}

#[test]
fn later_runs_build_their_replicas_from_earlier_runs_buffers_within_the_bound() {
    let n = 2_000;
    let game = GraphicalCoordinationGame::new(
        GraphBuilder::ring(n),
        CoordinationGame::from_deltas(2.0, 1.0),
    );
    let dynamics = DynamicsEngine::with_rule(game.clone(), Logit, 0.8);
    let observable = PotentialObservable::new(game.clone());
    let start = vec![0; n];
    let workers = |workers| RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let farmed = |sim: &Simulator| {
        sim.run_profiles_pipelined(&dynamics, &AllLogit, &start, 6, 1, &observable, None)
            .expect("an uncancelled run completes")
    };
    assert_eq!(spare_stats(), SpareStats::default(), "no run yet");

    // On one worker one replica is live at a time: the first run builds
    // one replica on new buffers, the next three on the buffers the one
    // before dropped, and keeps them with its start copy.
    let base = Simulator::with_runtime(7, 4, workers(1));
    let first = farmed(&base);
    let after_first = bounded(spare_stats());
    assert_eq!(after_first.bound, 2, "one replica live, plus the start");
    assert_eq!((after_first.fresh, after_first.reused), (1, 3));
    assert_eq!(after_first.held, 2);

    // A second run with the same n, on a fresh simulator and on a
    // reseeded one, builds every replica from those buffers, overwritten
    // from its own start: the stream is the first run's.
    let second = farmed(&Simulator::with_runtime(7, 4, workers(1)));
    let third = farmed(&base.reseeded(7, 4));
    let after_third = bounded(spare_stats());
    assert_eq!(after_third.fresh, 1, "no new buffers");
    assert_eq!(after_third.reused, 3 + 8);
    assert_eq!(bytes(&first), bytes(&second));
    assert_eq!(bytes(&first), bytes(&third));
    // Two workers: the bound rises to two live replicas and the start,
    // and the streams stay the same, sequential runner included.
    let wide = Simulator::with_runtime(7, 4, workers(2));
    assert_eq!(bytes(&first), bytes(&farmed(&wide)));
    let sequential = wide.run_profiles(&dynamics, &AllLogit, &start, 6, 1, &observable);
    assert_eq!(bytes(&first), bytes(&sequential));
    let wide = bounded(spare_stats());
    assert_eq!(wide.bound, 3);
    assert!(wide.fresh <= 2);

    // A tempered run keeps two ensembles of three rungs live: the bound
    // rises to seven, and the buffers held are reused.
    let ensemble = TemperingEnsemble::new(game, Logit, &[0.3, 0.6, 1.2]);
    Simulator::with_runtime(3, 2, workers(2))
        .run_tempered(
            &ensemble,
            &UniformSingle,
            &start,
            4,
            500,
            1,
            &observable,
            None,
        )
        .expect("an uncancelled run completes");
    let tempered = bounded(spare_stats());
    assert_eq!(tempered.bound, 7);
    assert_eq!(
        tempered.reused + tempered.fresh - wide.reused - wide.fresh,
        6
    );
    assert!(tempered.reused > wide.reused);

    // A smaller run afterwards keeps the bound, and finds its buffers.
    farmed(&Simulator::with_runtime(7, 4, workers(1)));
    let after = bounded(spare_stats());
    assert_eq!((after.bound, after.fresh), (7, tempered.fresh));
    // So does a start profile built for a run.
    let held = after.held;
    let ones = spare::profile(n, 1);
    assert_eq!((ones.len(), ones.iter().sum::<usize>()), (n, n));
    assert_eq!(spare_stats().held, held - 1);
}
