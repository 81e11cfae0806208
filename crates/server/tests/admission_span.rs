//! The admission span, with recording on: parse + `prepare` of every
//! admitted job is one sample of `server.admission_ns`, labelled by
//! whether its artifacts were cached. Its own test binary, because the
//! registry is global: no other test's jobs may land in this histogram.

#![cfg(feature = "telemetry")]

use logit_server::{request_stats, submit_job, ClientOutcome, RunningServer, ServerConfig};

#[test]
fn a_miss_then_a_hit_of_one_description_record_one_sample_each() {
    assert!(logit_telemetry::enable(), "feature builds honour enable()");
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let job = |seed: u64| {
        format!(
            "game=graphical\ntopology=grid\nrows=9\ncols=14\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=coloured\nmode=pipelined\nbeta=0.8\nsteps=200\n\
             sample_every=100\nobservable=fraction1\nreplicas=2\nseed={seed}"
        )
    };
    let count = |artifacts: &str| {
        let samples = logit_telemetry::parse_prometheus(&request_stats(addr).expect("STATS"))
            .expect("the snapshot parses");
        let key = format!("server_admission_ns_count{{artifacts=\"{artifacts}\"}}");
        samples.get(&key).copied().unwrap_or(0.0)
    };
    // A rejected job is not admitted, so it records nothing.
    let (rejected, _) = submit_job(addr, "game=graphical", None).expect("io");
    assert!(
        matches!(rejected, ClientOutcome::Rejected(_)),
        "{rejected:?}"
    );
    assert_eq!((count("miss"), count("hit")), (0.0, 0.0));

    let (first, _) = submit_job(addr, &job(1), None).expect("io");
    assert!(matches!(first, ClientOutcome::Done(_)), "{first:?}");
    assert_eq!((count("miss"), count("hit")), (1.0, 0.0));

    let (second, _) = submit_job(addr, &job(2), None).expect("io");
    assert!(matches!(second, ClientOutcome::Done(_)), "{second:?}");
    assert_eq!((count("miss"), count("hit")), (1.0, 1.0));
    server.shutdown();
}
