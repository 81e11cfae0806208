//! The offline workload: no server and no TCP. One thread runs the seeded
//! job list through `JobSpec::parse` + `prepare` + `run_prepared` on a
//! fresh `Simulator::new(seed, replicas)` per job, sharing one artifact
//! cache the way an offline user keeps their derived artifacts.

use crate::client::Outcome;
use crate::gen::OfflineDense;
use crate::record::{
    cache_delta, peak_rss_mb, registry_delta, JobRecord, OfflineStages, WindowRun,
};
use logit_core::{CancelToken, Simulator};
use logit_server::{prepare, run_prepared, ArtifactCache, JobSpec, ServerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn registry(traced: bool) -> BTreeMap<String, f64> {
    if !traced {
        return BTreeMap::new();
    }
    logit_telemetry::parse_prometheus(&logit_telemetry::global().render())
        .expect("registry render parses")
}

/// Runs one job the offline way. Admission failures come back as text.
fn run_job(text: &str, cache: &ArtifactCache) -> (Outcome, OfflineStages) {
    let started = Instant::now();
    let prepared = JobSpec::parse(text).and_then(|spec| prepare(spec, cache));
    let admit_s = started.elapsed().as_secs_f64();
    let outcome = match prepared {
        Ok(job) => {
            let sim = Simulator::new(job.spec.seed, job.spec.replicas);
            match run_prepared(&sim, &job, &CancelToken::new()) {
                Some(result) => Outcome::Done(result),
                None => Outcome::Failed("CANCELLED".into()),
            }
        }
        Err(e) => Outcome::Failed(format!("REJECTED {e}")),
    };
    let exec_s = started.elapsed().as_secs_f64() - admit_s;
    (outcome, OfflineStages { admit_s, exec_s })
}

/// A fresh artifact cache of the server's default size, filled with the
/// hot descriptions by running each warm-up job once. Returns the cache
/// and the seconds since `process_start`.
pub fn set_up(gen: &OfflineDense, process_start: Instant) -> (ArtifactCache, f64) {
    let cache = ArtifactCache::new(ServerConfig::default().cache_capacity);
    for text in gen.warmup() {
        if let (Outcome::Failed(why), _) = run_job(&text, &cache) {
            panic!("warm-up job failed: {why}");
        }
    }
    (cache, process_start.elapsed().as_secs_f64())
}

pub fn run(
    gen: &OfflineDense,
    cache: ArtifactCache,
    setup_s: f64,
    seconds: f64,
    traced: bool,
) -> WindowRun {
    let cache_before = cache.games.stats();
    let registry_before = registry(traced);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    for index in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        // The caller's own work (writing the job text) counts towards the
        // latency, as connect and frame reads do for the server clients.
        let due = Instant::now();
        let job = gen.job(index);
        let (outcome, stages) = run_job(&job.text, &cache);
        let latency_s = due.elapsed().as_secs_f64();
        records.push(JobRecord {
            stream: 0,
            index,
            job,
            outcome,
            latency_s,
            first_series_s: Some(latency_s),
            stages: Some(stages),
        });
    }
    let window_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    WindowRun {
        setup_s,
        window_s,
        records,
        peak_rss_mb,
        cache: cache_delta(cache_before, cache.games.stats()),
        server: None,
        registry: registry_delta(&registry_before, &registry(traced)),
    }
}
