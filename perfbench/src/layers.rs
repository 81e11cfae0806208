//! The traced run's per-layer metrics.
//!
//! Everything is taken from outside the program: by timing the
//! benchmark's own calls into public functions (`JobSpec::parse`,
//! `prepare`, the graph builders, `coloring_for_graph`,
//! `LocalityLayout::for_game`, the game constructors, `evaluate_profile`,
//! `wire_text`, `run_prepared`, `run_direct`) and by reading public
//! surfaces: the server's ground-truth counters and the registry's exact
//! `_sum` / `_count` samples and counters over the timed window. The log₂
//! `_p50`/`_p95` gauges are never read.

use crate::check::{Check, KINDS};
use crate::client::Outcome;
use crate::record::WindowRun;
use crate::report::Metric;
use logit_core::{
    coloring_for_graph, LocalityLayout, PotentialObservable, ProfileObservable, StrategyFraction,
};
use logit_games::{
    CoordinationGame, GraphicalCoordinationGame, IsingGame, LocalGame, PotentialGame,
};
use logit_graphs::{Graph, GraphBuilder};
use logit_server::{prepare, ArtifactCache, GameFamily, JobSpec, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct game descriptions timed per run (in order of first use).
const DESCRIPTIONS: usize = 12;
/// Warm-cache `prepare` calls averaged per description.
const HIT_REPS: usize = 20;
/// Minimum time spent timing one observable at one description.
const EVAL_BUDGET: Duration = Duration::from_millis(20);

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64())
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Job-weighted mean of `(value, weight)` pairs.
fn weighted(values: &[(f64, f64)]) -> f64 {
    let total: f64 = values.iter().map(|(_, w)| w).sum();
    values.iter().map(|(v, w)| v * w).sum::<f64>() / total
}

fn build_graph(topology: Topology) -> Graph {
    match topology {
        Topology::Ring { n } => GraphBuilder::ring(n),
        Topology::Clique { n } => GraphBuilder::clique(n),
        Topology::Torus { rows, cols } => GraphBuilder::torus(rows, cols),
        Topology::Grid { rows, cols } => GraphBuilder::grid(rows, cols),
        Topology::Hypercube { dim } => GraphBuilder::hypercube(dim),
        Topology::Circulant { n, k } => GraphBuilder::circulant(n, k),
    }
}

/// Seconds per evaluation of `observable` on `profile`, repeated until
/// [`EVAL_BUDGET`] has passed.
fn eval_secs(observable: &impl ProfileObservable, profile: &[usize]) -> f64 {
    let started = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || started.elapsed() < EVAL_BUDGET {
        black_box(observable.evaluate_profile(black_box(profile)));
        reps += 1;
    }
    started.elapsed().as_secs_f64() / reps as f64
}

/// Layers timed on one game description.
struct DescriptionTimes {
    prepare_miss_s: f64,
    prepare_hit_s: f64,
    graph_s: f64,
    coloring_s: f64,
    game_s: f64,
    layout_s: f64,
    potential_s: f64,
    fraction_s: f64,
}

fn game_layers<G>(game: &G, n: usize) -> (f64, f64, f64)
where
    G: LocalGame + PotentialGame + Clone,
{
    let (_, layout_s) = secs(|| LocalityLayout::for_game(game));
    let profile = vec![0usize; n];
    let potential_s = eval_secs(&PotentialObservable::new(game.clone()), &profile);
    let fraction_s = eval_secs(&StrategyFraction::new(1, "fraction_1"), &profile);
    (layout_s, potential_s, fraction_s)
}

fn time_description(spec: &JobSpec) -> DescriptionTimes {
    let cache = ArtifactCache::new(1);
    let (job, prepare_miss_s) = secs(|| prepare(spec.clone(), &cache).expect("admitted before"));
    drop(job);
    let prepare_hit_s = mean(
        (0..HIT_REPS).map(|_| secs(|| prepare(spec.clone(), &cache).expect("admitted before")).1),
    );
    drop(cache);

    let (graph, graph_s) = secs(|| build_graph(spec.topology));
    let (_, coloring_s) = secs(|| coloring_for_graph(&graph));
    let n = graph.num_vertices();
    // The per-job rebuild the executor pays: clone the cached graph, then
    // construct the game (which builds its CSR).
    let (game_s, (layout_s, potential_s, fraction_s)) = match spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            let base = CoordinationGame::try_from_deltas(delta0, delta1).expect("admitted before");
            let (game, s) = secs(|| GraphicalCoordinationGame::new(graph.clone(), base));
            (s, game_layers(&game, n))
        }
        GameFamily::Ising { coupling, field } => {
            let (game, s) = secs(|| {
                IsingGame::try_new(graph.clone(), coupling, field).expect("admitted before")
            });
            (s, game_layers(&game, n))
        }
    };
    DescriptionTimes {
        prepare_miss_s,
        prepare_hit_s,
        graph_s,
        coloring_s,
        game_s,
        layout_s,
        potential_s,
        fraction_s,
    }
}

/// A registry sample over the window (0 when the instrument never fired).
fn sample(registry: &BTreeMap<String, f64>, name: &str) -> f64 {
    registry.get(name).copied().unwrap_or(0.0)
}

/// `_sum / _count` of a histogram over the window.
fn hist_mean(registry: &BTreeMap<String, f64>, family: &str) -> f64 {
    sample(registry, &format!("{family}_sum")) / sample(registry, &format!("{family}_count"))
}

pub fn measure(run: &WindowRun, check: &Check) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value,
        })
    };
    let done: Vec<_> = run.records.iter().filter(|r| r.done()).collect();

    // job: parse every job text of the window once.
    let parse_s = mean(
        run.records
            .iter()
            .map(|r| secs(|| JobSpec::parse(black_box(&r.job.text))).1),
    );
    push("job.parse_us", "us", parse_s * 1e6);

    // Distinct descriptions in order of first use, with their job counts.
    let mut descriptions: Vec<(u64, JobSpec, f64)> = Vec::new();
    for record in &done {
        let spec = JobSpec::parse(&record.job.text).expect("completed jobs parse");
        let key = spec.content_key();
        match descriptions.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, jobs)) => *jobs += 1.0,
            None => descriptions.push((key, spec, 1.0)),
        }
    }
    let timed: Vec<(DescriptionTimes, f64)> = descriptions
        .iter()
        .take(DESCRIPTIONS)
        .map(|(_, spec, jobs)| (time_description(spec), *jobs))
        .collect();
    let per_description = |f: fn(&DescriptionTimes) -> f64| mean(timed.iter().map(|(t, _)| f(t)));
    let per_job = |f: fn(&DescriptionTimes) -> f64| {
        weighted(&timed.iter().map(|(t, w)| (f(t), *w)).collect::<Vec<_>>())
    };
    push(
        "admission.prepare_hit_us",
        "us",
        per_description(|t| t.prepare_hit_s) * 1e6,
    );
    push(
        "admission.prepare_miss_ms",
        "ms",
        per_description(|t| t.prepare_miss_s) * 1e3,
    );
    push(
        "graphs.build_ms",
        "ms",
        per_description(|t| t.graph_s) * 1e3,
    );
    push(
        "graphs.coloring_ms",
        "ms",
        per_description(|t| t.coloring_s) * 1e3,
    );
    push(
        "locality.layout_ms",
        "ms",
        per_description(|t| t.layout_s) * 1e3,
    );
    push("games.build_ms", "ms", per_job(|t| t.game_s) * 1e3);
    push(
        "observables.eval_us.potential",
        "us",
        per_job(|t| t.potential_s) * 1e6,
    );
    push(
        "observables.eval_us.fraction",
        "us",
        per_job(|t| t.fraction_s) * 1e6,
    );

    // cache: the window's own hits and misses.
    let lookups = (run.cache.hits + run.cache.misses) as f64;
    push("cache.hit_ratio", "ratio", run.cache.hits as f64 / lookups);
    push("cache.evictions", "count", run.cache.evictions as f64);

    // protocol: encoding each completed result.
    let encode_s = mean(done.iter().filter_map(|r| match &r.outcome {
        Outcome::Done(result) => Some(secs(|| result.wire_text()).1),
        Outcome::Failed(_) => None,
    }));
    push("protocol.encode_us", "us", encode_s * 1e6);

    // server stages. The offline path has no server: there the same
    // names carry its own stages (wall = call → result, exec =
    // run_prepared on a fresh simulator, stream = encode, wait =
    // admission, client overhead = the caller's own work).
    let latency_ms = mean(done.iter().map(|r| r.latency_s)) * 1e3;
    let (wall, exec, stream, wait) = if run.server.is_some() {
        let r = &run.registry;
        let wall = hist_mean(r, "server_job_wall_ns") / 1e6;
        let exec = hist_mean(r, "server_job_exec_ns") / 1e6;
        let stream = hist_mean(r, "server_job_stream_ns") / 1e6;
        (wall, exec, stream, wall - exec - stream)
    } else {
        let stages: Vec<_> = done.iter().filter_map(|r| r.stages).collect();
        let exec = mean(stages.iter().map(|s| s.exec_s)) * 1e3;
        let admit = mean(stages.iter().map(|s| s.admit_s)) * 1e3;
        (admit + exec, exec, encode_s * 1e3, admit)
    };
    push("server.wall_ms_mean", "ms", wall);
    push("server.exec_ms_mean", "ms", exec);
    push("server.stream_ms_mean", "ms", stream);
    push("server.wait_ms_mean", "ms", wait);
    push("client.overhead_ms_mean", "ms", latency_ms - wall);

    // exec / pipeline, per job kind.
    for kind in KINDS {
        let of_kind: Vec<_> = check
            .infos
            .iter()
            .filter(|i| i.kind == Some(kind) && i.updates > 0)
            .collect();
        let timed: Vec<_> = of_kind
            .iter()
            .filter_map(|i| i.prepared_s.map(|s| (s, i.updates)))
            .collect();
        let run_s: f64 = timed.iter().map(|(s, _)| s).sum();
        let updates: u64 = timed.iter().map(|(_, u)| u).sum();
        let paired: Vec<_> = of_kind
            .iter()
            .filter_map(|i| Some((i.prepared_s?, i.direct_s?)))
            .collect();
        let farm: f64 = paired.iter().map(|(p, _)| p).sum();
        let seq: f64 = paired.iter().map(|(_, d)| d).sum();
        let name = kind.name();
        push(
            &format!("exec.run_ms.{name}"),
            "ms",
            run_s / timed.len() as f64 * 1e3,
        );
        push(
            &format!("exec.ns_per_update.{name}"),
            "ns",
            run_s / updates as f64 * 1e9,
        );
        push(
            &format!("pipeline.farm_over_seq.{name}"),
            "ratio",
            farm / seq,
        );
    }

    let r = &run.registry;
    let batches: f64 = r
        .iter()
        .filter(|(k, _)| k.starts_with("pipeline_batches_sent"))
        .map(|(_, v)| v)
        .sum();
    push("pipeline.batches_sent", "count", batches);
    push(
        "pipeline.reducer_lag_mean",
        "count",
        hist_mean(r, "pipeline_reducer_lag"),
    );
    push(
        "pipeline.send_throttle_stalls",
        "count",
        sample(r, "pipeline_send_throttle_stalls"),
    );

    push(
        "runtime.dispatch_us_mean",
        "us",
        hist_mean(r, "runtime_dispatch_ns") / 1e3,
    );
    push(
        "runtime.dispatches_per_job",
        "count",
        sample(r, "runtime_dispatch_ns_count") / done.len() as f64,
    );
    push("runtime.parks", "count", sample(r, "runtime_parks"));
    push("runtime.wakes", "count", sample(r, "runtime_wakes"));
    push(
        "runtime.inline_fallbacks",
        "count",
        sample(r, "runtime_inline_fallbacks"),
    );

    let attempted = sample(r, "tempering_swaps_attempted");
    push("tempering.swaps_attempted", "count", attempted);
    push(
        "tempering.swap_accept_ratio",
        "ratio",
        sample(r, "tempering_swaps_accepted") / attempted,
    );
    out
}
