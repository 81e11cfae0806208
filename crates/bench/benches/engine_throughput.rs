//! Criterion benches: single-step cost of the flat-index engine vs the
//! in-place profile engine on ring coordination games.
//!
//! The flat engine stops existing at n = 64 (the state index overflows
//! `usize`), so the comparison runs where both engines live and the profile
//! engine continues alone up to n = 100000 — the point of the in-place
//! refactor is that its per-step cost stays flat while n grows by four
//! orders of magnitude.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logit_core::rules::{Logit, MetropolisLogit, NoisyBestResponse, UpdateRule};
use logit_core::schedules::{AllLogit, UniformSingle};
use logit_core::{DynamicsEngine, LogitDynamics, PipelineConfig, Scratch};
use logit_games::{CoordinationGame, Game, GraphicalCoordinationGame};
use logit_graphs::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring_dynamics(n: usize) -> LogitDynamics<GraphicalCoordinationGame> {
    LogitDynamics::new(
        GraphicalCoordinationGame::new(
            GraphBuilder::ring(n),
            CoordinationGame::from_deltas(1.0, 2.0),
        ),
        1.5,
    )
}

fn bench_flat_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_engine_step");
    for n in [16usize, 48] {
        let dynamics = ring_dynamics(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n={n}")),
            &dynamics,
            |b, d| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut scratch = Scratch::for_game(d.game());
                let mut state = 0usize;
                b.iter(|| {
                    state = d.step_indexed(state, &mut scratch, &mut rng);
                    state
                })
            },
        );
    }
    group.finish();
}

fn bench_profile_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_engine_step");
    group.sample_size(10);
    for n in [16usize, 48, 1_000, 10_000, 100_000] {
        let dynamics = ring_dynamics(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n={n}")),
            &dynamics,
            |b, d| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut scratch = Scratch::for_game(d.game());
                let mut profile = vec![0usize; d.game().num_players()];
                b.iter(|| d.step_profile(&mut profile, &mut scratch, &mut rng))
            },
        );
    }
    group.finish();
}

fn bench_legacy_alloc_step(c: &mut Criterion) {
    // The pre-refactor hot path: a fresh Scratch (hence fresh buffers) per
    // step, as `LogitDynamics::step` still provides for one-off callers.
    let mut group = c.benchmark_group("legacy_alloc_per_step");
    for n in [16usize, 48] {
        let dynamics = ring_dynamics(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n={n}")),
            &dynamics,
            |b, d| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut state = 0usize;
                b.iter(|| {
                    state = d.step(state, &mut rng);
                    state
                })
            },
        );
    }
    group.finish();
}

fn bench_rules_profile_engine(c: &mut Criterion) {
    // The pluggable-rule seam must be free: every rule is a monomorphised
    // generic inside the same in-place engine, so per-rule cost differences
    // reflect the rule's arithmetic, not dispatch overhead.
    fn bench_rule<U: UpdateRule>(group: &mut criterion::BenchmarkGroup<'_>, rule: U, n: usize) {
        let dynamics = DynamicsEngine::with_rule(
            GraphicalCoordinationGame::new(
                GraphBuilder::ring(n),
                CoordinationGame::from_deltas(1.0, 2.0),
            ),
            rule,
            1.5,
        );
        let name = dynamics.rule().name();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{name}/n={n}")),
            &dynamics,
            |b, d| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut scratch = Scratch::for_game(d.game());
                let mut profile = vec![0usize; d.game().num_players()];
                b.iter(|| d.step_profile(&mut profile, &mut scratch, &mut rng))
            },
        );
    }
    let mut group = c.benchmark_group("rule_profile_step");
    for n in [1_000usize, 100_000] {
        bench_rule(&mut group, Logit, n);
        bench_rule(&mut group, MetropolisLogit, n);
        bench_rule(&mut group, NoisyBestResponse::new(0.1), n);
    }
    group.finish();
}

fn bench_all_logit_block(c: &mut Criterion) {
    // One all-logit tick = n player updates against the frozen profile.
    let mut group = c.benchmark_group("all_logit_block_tick");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        let dynamics = ring_dynamics(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n={n}")),
            &dynamics,
            |b, d| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut scratch = Scratch::for_game(d.game());
                let mut profile = vec![0usize; d.game().num_players()];
                let mut t = 0u64;
                b.iter(|| {
                    let moved =
                        d.step_scheduled(&AllLogit, t, &mut profile, &mut scratch, &mut rng);
                    t += 1;
                    moved
                })
            },
        );
    }
    group.finish();
}

fn bench_tempered_round(c: &mut Criterion) {
    // One tempering round = K·n player updates plus one swap phase (K
    // potential evaluations and K−1 Metropolis coin flips). The per-update
    // cost must track the single profile engine: the sweep phase is the same
    // monomorphised loop, the swap phase amortises over n ticks.
    use logit_anneal::BetaLadder;
    use logit_core::schedules::UniformSingle;
    use logit_core::TemperingEnsemble;

    let mut group = c.benchmark_group("tempered_round");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        for rungs in [1usize, 4] {
            let game = GraphicalCoordinationGame::new(
                GraphBuilder::ring(n),
                CoordinationGame::from_deltas(1.0, 2.0),
            );
            let ladder = BetaLadder::geometric(0.5, 1.5, rungs);
            let ensemble = TemperingEnsemble::new(game, Logit, ladder.betas());
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("K={rungs}/n={n}")),
                &ensemble,
                |b, ens| {
                    let mut state = ens.init_state(&vec![0usize; n], 1);
                    b.iter(|| ens.round(&UniformSingle, &mut state, n as u64))
                },
            );
        }
    }
    group.finish();
}

fn bench_pipelined_ensemble(c: &mut Criterion) {
    // The whole ensemble runner, sequential fold vs the pipelined
    // farm/reducer stages, same seeds and therefore (by the bit-identity
    // contract) the same result — the delta is pure orchestration cost:
    // channel traffic + profile snapshots vs in-line observable evaluation
    // and the end-of-run barrier.
    use logit_core::observables::StrategyFraction;
    use logit_core::Simulator;

    let mut group = c.benchmark_group("ensemble_runner");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        let dynamics = ring_dynamics(n);
        let sim = Simulator::new(7, 8);
        let obs = StrategyFraction::new(1, "adopters");
        let start = vec![0usize; n];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sequential/n={n}")),
            &dynamics,
            |b, d| b.iter(|| sim.run_profiles(d, &UniformSingle, &start, 5_000, 1_250, &obs)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("pipelined/n={n}")),
            &dynamics,
            |b, d| {
                b.iter(|| {
                    sim.run_profiles_pipelined(
                        d,
                        &UniformSingle,
                        &start,
                        5_000,
                        1_250,
                        &obs,
                        &PipelineConfig::default(),
                        None,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_engine,
    bench_profile_engine,
    bench_rules_profile_engine,
    bench_all_logit_block,
    bench_legacy_alloc_step,
    bench_tempered_round,
    bench_pipelined_ensemble
);
criterion_main!(benches);
