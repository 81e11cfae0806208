//! `perfbench`: drives one workload of the logit-dynamics job server or
//! offline simulator for a fixed time, checks every output, and prints the
//! end-to-end metrics (plus, with `--layers`, the per-layer breakdown) as
//! the last line of standard output.
//!
//! ```text
//! perfbench --workload serve-short|serve-heavy|offline-dense --seed N --seconds S
//!           [--layers] [--setup-only] [--source ID]
//! ```
//!
//! `--layers` needs the `telemetry` feature: it switches recording on and
//! adds the per-layer metrics. `--setup-only` stops after the set-up and
//! prints its duration, so that set-up can be sampled in fresh processes.
//! `perfbench/run.py` builds both flavours and is the command to run.

mod check;
mod client;
mod gen;
mod layers;
mod offline;
mod record;
mod report;
mod serve;

use check::{Check, Replay, KINDS};
use logit_server::{JobSpec, Topology};
use record::WindowRun;
use report::{median, quantile, Json, Metric};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ServeShort,
    ServeHeavy,
    OfflineDense,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-short" => Some(Workload::ServeShort),
            "serve-heavy" => Some(Workload::ServeHeavy),
            "offline-dense" => Some(Workload::OfflineDense),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeShort => "serve-short",
            Workload::ServeHeavy => "serve-heavy",
            Workload::OfflineDense => "offline-dense",
        }
    }

    fn load(self) -> &'static str {
        match self {
            Workload::ServeShort => {
                "closed loop, 2 client threads sharing one job sequence, one connection per job"
            }
            Workload::ServeHeavy => {
                "closed loop, 1 heavy client + 1 probe client, one connection per job"
            }
            Workload::OfflineDense => "closed loop, 1 thread, no server",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::ServeShort => {
                "per-job fixed costs dominate short mixed jobs; fresh descriptions put cache misses in the tail"
            }
            Workload::ServeHeavy => {
                "execution dominates: an L3-sized coloured circulant and K=8 tempering, with probes queued behind them"
            }
            Workload::OfflineDense => {
                "no server layer: snapshots, channel traffic and the dense O(n+m) potential observable dominate"
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    layers: bool,
    setup_only: bool,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut layers = false;
    let mut setup_only = false;
    let mut source = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--layers" => layers = true,
            "--setup-only" => setup_only = true,
            "--source" => source = value("--source")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        layers,
        setup_only,
        source,
    })
}

/// Interaction edges of a topology (as admission counts them).
fn edges(topology: Topology) -> u64 {
    match topology {
        Topology::Ring { n } => n as u64,
        Topology::Clique { n } => (n * (n - 1) / 2) as u64,
        Topology::Torus { rows, cols } => 2 * (rows * cols) as u64,
        Topology::Grid { rows, cols } => (rows * (cols - 1) + cols * (rows - 1)) as u64,
        Topology::Hypercube { dim } => (dim as u64) << (dim - 1),
        Topology::Circulant { n, k } => (n * k) as u64,
    }
}

/// Computed (not measured) working set of the workload's largest game:
/// its u32 CSR adjacency plus one replica's usize profile, against the
/// host's L2 and L3.
fn working_set(run: &WindowRun) -> Json {
    let Some(spec) = run
        .records
        .iter()
        .filter_map(|r| JobSpec::parse(&r.job.text).ok())
        .max_by_key(|s| (s.topology.num_players() as u64, edges(s.topology)))
    else {
        return Json::str("no jobs");
    };
    let n = spec.topology.num_players() as u64;
    let adjacency = 4 * (n + 1) + 8 * edges(spec.topology);
    let profile = 8 * n;
    let total = adjacency + profile;
    let share = |level| {
        report::cache_bytes(level)
            .map_or(Json::str("unknown"), |b| Json::Num(total as f64 / b as f64))
    };
    Json::obj([
        (
            "label",
            Json::str("computed: u32 CSR adjacency + one usize profile"),
        ),
        ("largest_game", Json::str(spec.canonical_game_text())),
        ("adjacency_bytes", Json::Int(adjacency)),
        ("profile_bytes_per_replica", Json::Int(profile)),
        ("bytes", Json::Int(total)),
        ("over_l2_per_core", share(2)),
        ("over_l3", share(3)),
    ])
}

fn end_to_end(run: &WindowRun, check: &Check) -> Vec<Metric> {
    let done: Vec<_> = run.records.iter().filter(|r| r.done()).collect();
    let latency_ms: Vec<f64> = done.iter().map(|r| r.latency_s * 1e3).collect();
    let probe_ms: Vec<f64> = done
        .iter()
        .filter(|r| r.job.probe)
        .map(|r| r.latency_s * 1e3)
        .collect();
    let first_ms: Vec<f64> = done
        .iter()
        .filter_map(|r| r.first_series_s.map(|s| s * 1e3))
        .collect();
    let updates: u64 = check.infos.iter().map(|i| i.updates).sum();
    let metric = |name: &str, unit, value| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    vec![
        metric("setup_s", "s", run.setup_s),
        metric("jobs_per_s", "1/s", done.len() as f64 / run.window_s),
        metric("latency_p50_ms", "ms", median(&latency_ms)),
        metric("latency_p90_ms", "ms", quantile(&latency_ms, 0.9)),
        metric("probe_latency_p50_ms", "ms", median(&probe_ms)),
        metric("first_series_p50_ms", "ms", median(&first_ms)),
        metric("updates_per_s", "1/s", updates as f64 / run.window_s),
        metric("peak_rss_mb", "MB", run.peak_rss_mb),
    ]
}

fn workload_record(args: &Args, run: &WindowRun, check: &Check) -> Json {
    let done = run.records.iter().filter(|r| r.done()).count();
    let by_kind = KINDS
        .iter()
        .map(|k| {
            let n = check.infos.iter().filter(|i| i.kind == Some(*k)).count();
            (k.name().to_string(), Json::Int(n as u64))
        })
        .collect();
    let lookups = run.cache.hits + run.cache.misses;
    let server = run.server.map_or(Json::str("none"), |s| {
        Json::obj([
            ("accepted", Json::Int(s.accepted)),
            ("completed", Json::Int(s.completed)),
            ("rejected", Json::Int(s.rejected)),
            ("cancelled", Json::Int(s.cancelled)),
            ("internal_errors", Json::Int(s.internal_errors)),
        ])
    });
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("why", Json::str(args.workload.why())),
        ("load", Json::str(args.workload.load())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.layers)),
        ("window_s", Json::Num(run.window_s)),
        ("jobs_attempted", Json::Int(run.records.len() as u64)),
        ("jobs_done", Json::Int(done as u64)),
        (
            "probe_jobs_done",
            Json::Int(
                run.records
                    .iter()
                    .filter(|r| r.done() && r.job.probe)
                    .count() as u64,
            ),
        ),
        ("jobs_by_kind", Json::Obj(by_kind)),
        (
            "samples_beyond_p90",
            Json::Int((done as f64 * 0.1).floor() as u64),
        ),
        (
            "cache_hit_share_measured",
            Json::Num(run.cache.hits as f64 / lookups as f64),
        ),
        ("working_set", working_set(run)),
        ("replayed_jobs", Json::Int(check.replayed as u64)),
        (
            "mismatches",
            Json::Arr(check.mismatches.iter().take(5).map(Json::str).collect()),
        ),
        ("server", server),
        ("host", report::host_record(&args.source)),
    ])
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.layers && !logit_telemetry::enable() {
        eprintln!("perfbench: --layers needs a build with the `telemetry` feature");
        return ExitCode::from(2);
    }

    let setup_only = |setup_s: f64| {
        println!("{}", Json::obj([("setup_s", Json::Num(setup_s))]).render());
        ExitCode::SUCCESS
    };
    let run = match args.workload {
        Workload::ServeShort | Workload::ServeHeavy => {
            let traffic = if args.workload == Workload::ServeShort {
                serve::Traffic::Short(gen::ServeShort::new(args.seed))
            } else {
                serve::Traffic::Heavy(gen::ServeHeavy::new(args.seed))
            };
            let (server, setup_s) = serve::set_up(&traffic, process_start);
            if args.setup_only {
                server.shutdown();
                return setup_only(setup_s);
            }
            serve::run(&traffic, server, setup_s, args.seconds, args.layers)
        }
        Workload::OfflineDense => {
            let jobs = gen::OfflineDense::new(args.seed);
            let (cache, setup_s) = offline::set_up(&jobs, process_start);
            if args.setup_only {
                return setup_only(setup_s);
            }
            offline::run(&jobs, cache, setup_s, args.seconds, args.layers)
        }
    };
    let replay = match args.workload {
        Workload::ServeShort => Replay::All,
        _ => Replay::PerKind(if args.layers { 2 } else { 1 }),
    };
    let time_prepared = args.layers && run.server.is_some();
    let check = check::check(&run, replay, time_prepared, args.seed);

    let mut metrics = end_to_end(&run, &check);
    if args.layers {
        metrics.extend(layers::measure(&run, &check));
    }
    let failed = run.records.iter().filter(|r| !r.done()).count();
    let server_ok = run
        .server
        .is_none_or(|s| s.internal_errors == 0 && s.accepted == s.completed);
    let correct = failed == 0 && check.mismatches.is_empty() && check.replayed > 0 && server_ok;

    println!("{}", workload_record(&args, &run, &check).render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(run.records.len() as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
