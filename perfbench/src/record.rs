//! What a workload run leaves behind for checking and reporting.

use crate::client::Outcome;
use crate::gen::Job;
use logit_server::{CacheStats, StatsSnapshot};
use std::collections::BTreeMap;

/// One job of the timed window.
pub struct JobRecord {
    /// Which job stream (client) the job came from, and its index there:
    /// together they order the records independently of thread timing.
    pub stream: usize,
    pub index: u64,
    pub job: Job,
    pub outcome: Outcome,
    /// Submit → terminal frame (offline: call → result), seconds.
    pub latency_s: f64,
    /// Submit → first SERIES frame (offline: the result, which arrives
    /// whole), seconds.
    pub first_series_s: Option<f64>,
    /// Offline path only: the job's own stage times.
    pub stages: Option<OfflineStages>,
}

impl JobRecord {
    pub fn done(&self) -> bool {
        matches!(self.outcome, Outcome::Done(_))
    }
}

/// Stage times of one offline job, seconds.
#[derive(Clone, Copy)]
pub struct OfflineStages {
    /// `JobSpec::parse` + `prepare`.
    pub admit_s: f64,
    /// Fresh `Simulator::new` + `run_prepared`.
    pub exec_s: f64,
}

/// Everything one workload run measured.
pub struct WindowRun {
    /// Process start → set-up done (first timed submission may go).
    pub setup_s: f64,
    /// First timed submission → last terminal frame.
    pub window_s: f64,
    pub records: Vec<JobRecord>,
    /// `VmHWM` right after the window, MB.
    pub peak_rss_mb: f64,
    /// Artifact-cache counters over the window only.
    pub cache: CacheStats,
    /// The server's final counters (server workloads).
    pub server: Option<StatsSnapshot>,
    /// Telemetry-registry samples over the window only (after − before),
    /// keyed as Prometheus sample names. Empty unless recording is on.
    pub registry: BTreeMap<String, f64>,
}

/// `after − before`, per sample name present after.
pub fn registry_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

pub fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

/// `VmHWM` of this process from `/proc/self/status`, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
