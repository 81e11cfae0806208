//! The per-job time account, with recording on: over an interleaved mix
//! of jobs, each job's wait, execution and stream times add up to its wall
//! time. Its own test binary, because the registry is global: no other
//! test's jobs may land in these histograms.

#![cfg(feature = "telemetry")]

use logit_core::SEGMENT_UPDATES;
use logit_server::{submit_job, ClientOutcome, RunningServer, ServerConfig};
use std::thread;

#[test]
fn wait_exec_and_stream_add_up_to_the_wall_time_of_interleaved_jobs() {
    assert!(logit_telemetry::enable(), "feature builds honour enable()");
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    // Two long jobs of several segments each, and a client of short jobs
    // that arrive while they run: every job waits, runs in pieces and
    // streams as it goes.
    let long = |seed: u64| {
        format!(
            "game=graphical\ntopology=ring\nn=1000\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta=0.8\nsteps={}\n\
             sample_every={SEGMENT_UPDATES}\nobservable=fraction1\nreplicas=2\nseed={seed}",
            2 * SEGMENT_UPDATES
        )
    };
    let short = |seed: u64| {
        format!(
            "game=ising\ntopology=torus\nrows=8\ncols=8\ncoupling=0.6\n\
             rule=logit\nschedule=sweep\nmode=pipelined\nbeta=0.5\nsteps=4000\n\
             sample_every=500\nobservable=potential\nreplicas=3\nseed={seed}"
        )
    };
    let mut clients: Vec<_> = [long(1), long(2)]
        .into_iter()
        .map(|text| thread::spawn(move || vec![submit_job(addr, &text, None).expect("io").0]))
        .collect();
    clients.push(thread::spawn(move || {
        (0..12)
            .map(|seed| submit_job(addr, &short(seed), None).expect("io").0)
            .collect()
    }));
    let mut jobs = 0;
    for client in clients {
        for outcome in client.join().expect("client thread") {
            assert!(matches!(outcome, ClientOutcome::Done(_)), "{outcome:?}");
            jobs += 1;
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, jobs);

    let samples = logit_telemetry::parse_prometheus(&logit_telemetry::global().render())
        .expect("the snapshot parses");
    let sum = |family: &str| samples[&format!("server_job_{family}_ns_sum")];
    let count = |family: &str| samples[&format!("server_job_{family}_ns_count")];
    for family in ["wall", "wait", "exec", "stream"] {
        assert_eq!(count(family), jobs as f64, "`{family}` recorded every job");
    }
    let wall = sum("wall");
    let parts = sum("wait") + sum("exec") + sum("stream");
    assert!(
        (parts - wall).abs() <= 0.05 * wall,
        "wait + exec + stream = {parts} ns against a wall of {wall} ns"
    );
}
