//! The STATS surface: one Prometheus-text snapshot combining the
//! server's ground-truth counters with the live telemetry registry.
//!
//! The ground-truth block comes from [`StatsSnapshot`] — plain atomics
//! the server maintains in every build, so the `logit-serve` self-test
//! can assert job accounting with or without the `telemetry` feature.
//! The registry render appended below it carries the per-stage latency
//! histograms, queue gauges and reject-code counters when the feature is
//! compiled in (and a named "disabled" comment when it is not). The two
//! blocks use disjoint sample families, so the combined text stays
//! parseable by [`parse_prometheus`](logit_telemetry::parse_prometheus).

use crate::server::StatsSnapshot;

/// Renders `snapshot` plus the global telemetry registry as Prometheus
/// text — the payload of a [`STATS`](crate::protocol::STATS) frame.
pub fn render_stats(snapshot: &StatsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in [
        ("server_jobs_accepted", snapshot.accepted),
        ("server_jobs_rejected", snapshot.rejected),
        ("server_jobs_completed", snapshot.completed),
        ("server_jobs_cancelled", snapshot.cancelled),
        ("server_internal_errors", snapshot.internal_errors),
        ("server_artifact_hits", snapshot.artifact_cache.hits),
        ("server_artifact_misses", snapshot.artifact_cache.misses),
        (
            "server_artifact_evictions",
            snapshot.artifact_cache.evictions,
        ),
    ] {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    out.push_str(&logit_telemetry::global().render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use logit_telemetry::parse_prometheus;

    fn snapshot() -> StatsSnapshot {
        StatsSnapshot {
            accepted: 11,
            rejected: 3,
            completed: 9,
            cancelled: 2,
            internal_errors: 0,
            artifact_cache: CacheStats {
                hits: 7,
                misses: 4,
                evictions: 1,
            },
        }
    }

    #[test]
    fn the_ground_truth_block_parses_and_carries_the_counters() {
        let text = render_stats(&snapshot());
        let samples = parse_prometheus(&text).expect("STATS payload must parse");
        assert_eq!(samples["server_jobs_accepted"], 11.0);
        assert_eq!(samples["server_jobs_rejected"], 3.0);
        assert_eq!(samples["server_jobs_completed"], 9.0);
        assert_eq!(samples["server_jobs_cancelled"], 2.0);
        assert_eq!(samples["server_internal_errors"], 0.0);
        assert_eq!(samples["server_artifact_hits"], 7.0);
        assert_eq!(samples["server_artifact_misses"], 4.0);
        assert_eq!(samples["server_artifact_evictions"], 1.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn registry_families_never_collide_with_the_ground_truth_block() {
        logit_telemetry::enable();
        // Register one instrument per live family the server layers use;
        // a name that rendered into the ground-truth block would turn up
        // as a duplicate-sample parse error here.
        let registry = logit_telemetry::global();
        registry.gauge("server.queue_depth").set(1.0);
        registry
            .counter_labelled("server.admission_rejects", ("code", "queue-full"))
            .inc();
        registry.histogram("server.job_wall_ns").record(5.0);
        registry
            .histogram_labelled("server.admission_ns", ("artifacts", "miss"))
            .record(7.0);
        registry
            .counter_labelled("server.cache.hits", ("cache", "games"))
            .inc();
        let text = render_stats(&snapshot());
        let samples = parse_prometheus(&text).expect("combined snapshot must stay parseable");
        assert_eq!(samples["server_queue_depth"], 1.0);
        assert_eq!(
            samples["server_admission_rejects{code=\"queue-full\"}"],
            1.0
        );
        assert!(samples.contains_key("server_job_wall_ns_count"));
        assert!(samples.contains_key("server_admission_ns_count{artifacts=\"miss\"}"));
        assert_eq!(samples["server_cache_hits{cache=\"games\"}"], 1.0);
    }
}
