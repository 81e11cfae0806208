//! The server workloads: an in-process `RunningServer` on loopback with
//! `ServerConfig::default()`, driven in a closed loop by two client
//! threads (one connection per job, each caller blocking until its
//! terminal frame).

use crate::client::{self, Outcome};
use crate::gen::{Job, ServeHeavy, ServeShort};
use crate::record::{cache_delta, peak_rss_mb, registry_delta, JobRecord, WindowRun};
use logit_server::{request_stats, RunningServer, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub enum Traffic {
    Short(ServeShort),
    Heavy(ServeHeavy),
}

impl Traffic {
    fn warmup(&self) -> Vec<String> {
        match self {
            Traffic::Short(g) => g.warmup(),
            Traffic::Heavy(g) => g.warmup(),
        }
    }

    /// Client `client`'s next job. `serve-short`'s two clients share one
    /// job sequence; `serve-heavy`'s client 0 is the heavy client and
    /// client 1 the probe client, each with its own sequence.
    fn next(&self, client: usize, counters: &[AtomicU64; 2]) -> (usize, u64, Job) {
        match self {
            Traffic::Short(g) => {
                let i = counters[0].fetch_add(1, Ordering::Relaxed);
                (0, i, g.job(i))
            }
            Traffic::Heavy(g) => {
                let i = counters[client].fetch_add(1, Ordering::Relaxed);
                let job = if client == 0 {
                    g.heavy_job(i)
                } else {
                    g.probe_job(i)
                };
                (client, i, job)
            }
        }
    }
}

/// Starts the server and fills its artifact cache with the hot
/// descriptions through warm-up jobs, which also spawn the executor's
/// pool. Returns the server and the seconds since `process_start`.
pub fn set_up(traffic: &Traffic, process_start: Instant) -> (RunningServer, f64) {
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind a loopback port");
    for text in traffic.warmup() {
        if let Outcome::Failed(why) = client::submit(server.addr(), &text).outcome {
            panic!("warm-up job failed: {why}");
        }
    }
    (server, process_start.elapsed().as_secs_f64())
}

/// The registry as the STATS frame renders it. Without recording the
/// registry part is empty and only the ground-truth block parses.
fn registry(addr: SocketAddr, traced: bool) -> BTreeMap<String, f64> {
    if !traced {
        return BTreeMap::new();
    }
    let text = request_stats(addr).expect("STATS probe");
    logit_telemetry::parse_prometheus(&text).expect("STATS payload parses")
}

/// Drives `server` with `traffic` for `seconds`, then shuts it down.
pub fn run(
    traffic: &Traffic,
    server: RunningServer,
    setup_s: f64,
    seconds: f64,
    traced: bool,
) -> WindowRun {
    let addr = server.addr();
    let stats_before = server.stats();
    let registry_before = registry(addr, traced);
    let counters = [AtomicU64::new(0), AtomicU64::new(0)];
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut records: Vec<JobRecord> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let counters = &counters;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let (stream, index, job) = traffic.next(c, counters);
                        let sent = client::submit(addr, &job.text);
                        mine.push(JobRecord {
                            stream,
                            index,
                            job,
                            outcome: sent.outcome,
                            latency_s: sent.latency_s,
                            first_series_s: sent.first_series_s,
                            stages: None,
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    records.sort_by_key(|r| (r.stream, r.index));

    let stats_after = server.stats();
    let registry_after = registry(addr, traced);
    let final_stats = server.shutdown();
    WindowRun {
        setup_s,
        window_s,
        records,
        peak_rss_mb,
        cache: cache_delta(stats_before.artifact_cache, stats_after.artifact_cache),
        server: Some(final_stats),
        registry: registry_delta(&registry_before, &registry_after),
    }
}
