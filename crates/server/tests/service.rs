//! End-to-end service tests: admission, cancellation, multi-tenant
//! reproducibility.
//!
//! The load-bearing test is `a_loaded_server_streams_bit_identical_series`:
//! a server under concurrent mixed load — pipelined and tempered jobs,
//! different games, schedules and rules, cancellations in flight — must
//! stream every completed series **byte-identical** to an offline
//! [`run_direct`] replay of the same description. That is the service's
//! whole contract: the segmented runner, the executor's interleaving of
//! jobs, the shared pool, the artifact cache and the queue must leave no
//! fingerprints on results.

use logit_core::{CancelToken, Simulator, SEGMENT_UPDATES};
use logit_server::protocol::{read_frame, write_frame, ACCEPTED, DONE, FINAL, SERIES, SUBMIT};
use logit_server::{
    prepare, run_direct, run_prepared, submit_job, submit_raw, AdmissionError, ArtifactCache,
    ClientOutcome, JobSpec, RunningServer, SeriesPoint, ServerConfig, StatsSnapshot,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn base_job(seed: u64) -> String {
    format!(
        "game=graphical\ntopology=ring\nn=20\ndelta0=2.0\ndelta1=1.0\n\
         rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.1\nsteps=3000\n\
         sample_every=300\nobservable=fraction1\nreplicas=6\nseed={seed}"
    )
}

/// A one-replica uniform job on a ring of 1,000 that runs `segments`
/// segments, with one recorded time at the end of each.
fn long_job(seed: u64, segments: u64) -> String {
    format!(
        "game=graphical\ntopology=ring\nn=1000\ndelta0=2.0\ndelta1=1.0\n\
         rule=logit\nschedule=uniform\nmode=pipelined\nbeta=0.8\nsteps={}\n\
         sample_every={SEGMENT_UPDATES}\nobservable=fraction1\nreplicas=1\nseed={seed}",
        segments * SEGMENT_UPDATES
    )
}

/// The SERIES payloads of `points`: `f64`s as bit patterns.
fn wire(points: &[SeriesPoint]) -> Vec<String> {
    points.iter().map(SeriesPoint::encode).collect()
}

/// Submits `text` on a connection of its own and reads its ACCEPTED frame.
fn open_job(addr: SocketAddr, text: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, SUBMIT, text).expect("submit");
    let (kind, payload) = read_frame(&mut stream)
        .expect("read")
        .expect("the server answers");
    assert_eq!(kind, ACCEPTED, "expected ACCEPTED, got {payload}");
    stream
}

/// Reads an open job's frames to the end, returning its points and its
/// FINAL payload.
fn finish_job(stream: &mut TcpStream, mut points: Vec<SeriesPoint>) -> (Vec<SeriesPoint>, String) {
    loop {
        match read_frame(stream).expect("read").expect("a terminal frame") {
            (SERIES, payload) => points.push(SeriesPoint::decode(&payload).expect("a point")),
            (FINAL, payload) => {
                let (done, _) = read_frame(stream).expect("read").expect("DONE follows");
                assert_eq!(done, DONE);
                return (points, payload);
            }
            (kind, payload) => panic!("unexpected frame {kind:#04x}: {payload}"),
        }
    }
}

fn offline(text: &str) -> logit_server::StreamedResult {
    let spec = JobSpec::parse(text).expect("test job parses");
    let cache = ArtifactCache::new(4);
    let job = prepare(spec, &cache).expect("test job passes admission");
    run_direct(&job)
}

/// Every accepted job ends in exactly one execution outcome, so once the
/// server has shut down the outcome counters split `accepted` exactly.
fn assert_outcomes_partition_accepted(stats: &StatsSnapshot) {
    assert_eq!(
        stats.accepted,
        stats.completed + stats.cancelled + stats.internal_errors,
        "each accepted job must be counted exactly once: {stats:?}"
    );
}

#[test]
fn a_loaded_server_streams_bit_identical_series() {
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    // Mixed concurrent tenants: two jobs sharing one game description
    // (cache hit), an Ising sweep, a coloured-schedule circulant, a
    // noisy-best-response job and a tempered ladder — plus two cancels in
    // flight (one immediate, one mid-stream) and one malformed tenant.
    let jobs: Vec<String> = vec![
        base_job(1),
        base_job(2),
        "game=ising\ntopology=grid\nrows=4\ncols=5\ncoupling=0.8\nfield=0.1\n\
         rule=metropolis\nschedule=sweep\nmode=pipelined\nbeta=0.7\nsteps=2000\n\
         sample_every=250\nobservable=potential\nreplicas=5\nseed=3"
            .into(),
        "game=ising\ntopology=circulant\nn=24\nk=2\ncoupling=1.2\n\
         rule=logit\nschedule=coloured\nmode=pipelined\nbeta=1.4\nsteps=1500\n\
         sample_every=150\nobservable=fraction0\nreplicas=4\nseed=4"
            .into(),
        "game=graphical\ntopology=hypercube\ndim=4\ndelta0=1.5\ndelta1=0.5\n\
         rule=nbr\nnoise=0.1\nschedule=all\nmode=pipelined\nbeta=2.0\nsteps=1000\n\
         sample_every=100\nobservable=fraction1\nreplicas=4\nseed=5"
            .into(),
        "game=graphical\ntopology=ring\nn=12\ndelta0=3.0\ndelta1=1.0\n\
         rule=logit\nschedule=uniform\nmode=tempered\nladder=linear\n\
         beta_min=0.1\nbeta_max=1.6\nrungs=4\nrounds=30\nsweep_ticks=24\n\
         sample_every=6\nobservable=potential\nreplicas=3\nseed=6"
            .into(),
    ];

    let handles: Vec<_> = jobs
        .iter()
        .map(|text| {
            let text = text.clone();
            thread::spawn(move || {
                let (outcome, _) = submit_job(addr, &text, None).expect("client io");
                (text, outcome)
            })
        })
        .collect();
    let cancel_now = {
        let text = base_job(91);
        thread::spawn(move || submit_job(addr, &text, Some(0)).expect("client io"))
    };
    let cancel_mid = {
        let text = base_job(92);
        thread::spawn(move || submit_job(addr, &text, Some(3)).expect("client io"))
    };
    let malformed = thread::spawn(move || {
        let text = format!("{}\nchunk_ticks=0", base_job(93));
        submit_job(addr, &text, None).expect("client io")
    });

    for handle in handles {
        let (text, outcome) = handle.join().expect("client thread");
        match outcome {
            ClientOutcome::Done(streamed) => {
                let direct = offline(&text);
                assert_eq!(
                    streamed.wire_text(),
                    direct.wire_text(),
                    "a streamed series diverged from its offline replay"
                );
                assert!(!streamed.points.is_empty());
            }
            other => panic!("expected a completed stream, got {other:?}"),
        }
    }

    // Cancels end cleanly — either CANCELLED or, if the job outran the
    // token, a complete (and then reproducible) stream.
    for (label, handle) in [("immediate", cancel_now), ("mid-stream", cancel_mid)] {
        let (outcome, _) = handle.join().expect("cancel client thread");
        match outcome {
            ClientOutcome::Cancelled(_) => {}
            ClientOutcome::Done(streamed) => {
                let direct = offline(&base_job(if label == "immediate" { 91 } else { 92 }));
                assert_eq!(streamed.wire_text(), direct.wire_text());
            }
            other => panic!("{label} cancel: expected a clean stream end, got {other:?}"),
        }
    }

    // The malformed tenant set a farm knob the grammar no longer has.
    let (outcome, _) = malformed.join().expect("malformed client thread");
    match outcome {
        ClientOutcome::Rejected(msg) => {
            assert!(
                msg.starts_with("unknown-field:"),
                "chunk_ticks is an unknown field, got `{msg}`"
            );
            assert!(msg.contains("chunk_ticks"));
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // Nothing above may have hurt the shared pool: a fresh job on the
    // same server still completes and replays bit-identically.
    let text = base_job(123);
    let (outcome, _) = submit_job(addr, &text, None).expect("client io");
    match outcome {
        ClientOutcome::Done(streamed) => {
            assert_eq!(streamed.wire_text(), offline(&text).wire_text());
        }
        other => panic!("post-chaos job should complete, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0, "no panics reached the backstop");
    assert_eq!(stats.rejected, 1);
    assert!(stats.completed >= 7);
    assert_outcomes_partition_accepted(&stats);
    assert!(
        stats.artifact_cache.hits >= 1,
        "tenants sharing a game description must share its artifacts"
    );
}

#[test]
fn admission_rejects_each_malformed_layer_with_its_typed_code() {
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let reject = |text: String| -> String {
        match submit_job(addr, &text, None).expect("client io").0 {
            ClientOutcome::Rejected(msg) => msg,
            other => panic!("expected a rejection for `{text}`, got {other:?}"),
        }
    };

    // Grammar layer.
    assert!(reject("game=ising".into()).starts_with("missing-field:"));
    assert!(reject(format!("{}\nwat=1", base_job(1))).starts_with("unknown-field:"));
    // Payoff layer (delta0 <= 0 is not a coordination game).
    assert!(reject(base_job(1).replace("delta0=2.0", "delta0=-1.0")).starts_with("coordination:"));
    // Ising layer (antiferromagnetic coupling).
    let ising = "game=ising\ntopology=ring\nn=8\ncoupling=-1.0\nrule=logit\n\
                 schedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=100\n\
                 sample_every=10\nobservable=potential\nreplicas=2\nseed=1";
    assert!(reject(ising.into()).starts_with("ising:"));
    // Ladder layer (non-increasing β-ladder).
    let ladder = "game=graphical\ntopology=ring\nn=8\ndelta0=1.0\ndelta1=1.0\n\
                  rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
                  beta_min=2.0\nbeta_max=0.5\nrungs=4\nrounds=10\nsweep_ticks=8\n\
                  sample_every=2\nobservable=potential\nreplicas=2\nseed=1";
    let msg = reject(ladder.into());
    assert!(msg.starts_with("ladder:"), "got `{msg}`");
    assert!(msg.contains("increase"));
    // The farm knobs are gone: a job setting one names an unknown field.
    for knob in ["channel_capacity=1000000000", "chunk_ticks=0"] {
        assert!(reject(format!("{}\n{knob}", base_job(1))).starts_with("unknown-field:"));
    }
    // Size layer: sizes whose products wrap past 64 bits (rows·cols to 4,
    // 2k to 0) are rejected, not built as small graphs.
    for topology in [
        "topology=torus\nrows=4611686018427387905\ncols=4",
        "topology=circulant\nn=1000\nk=9223372036854775808",
    ] {
        let msg = reject(base_job(1).replace("topology=ring\nn=20", topology));
        assert!(msg.starts_with("bad-value:"), "got `{msg}`");
    }
    // Protocol layer (raw garbage framing).
    let reply = submit_raw(addr, b"\x00\x00\x00\x02Qq").expect("garbage io");
    let (kind, payload) = reply.expect("server answers garbage with a frame");
    assert_eq!(kind, b'R');
    assert!(payload.starts_with("protocol:"));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.rejected, 10);
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn rejected_and_cancelled_jobs_leave_the_pool_able_to_reproduce() {
    // Tight interleaving: reject, cancel, complete, repeatedly on one
    // server — then the final completed job must still match offline.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    for round in 0..3u64 {
        let bad = base_job(round).replace("steps=3000", "steps=0");
        match submit_job(addr, &bad, None).expect("client io").0 {
            ClientOutcome::Rejected(msg) => assert!(msg.starts_with("bad-value:")),
            other => panic!("expected rejection, got {other:?}"),
        }
        let cancel_text = base_job(100 + round);
        let (outcome, _) = submit_job(addr, &cancel_text, Some(0)).expect("client io");
        assert!(
            matches!(
                outcome,
                ClientOutcome::Cancelled(_) | ClientOutcome::Done(_)
            ),
            "cancel must end the stream cleanly"
        );
        let good = base_job(200 + round);
        match submit_job(addr, &good, None).expect("client io").0 {
            ClientOutcome::Done(streamed) => {
                assert_eq!(streamed.wire_text(), offline(&good).wire_text());
            }
            other => panic!("round {round}: expected completion, got {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
    assert_eq!(stats.rejected, 3);
    assert_outcomes_partition_accepted(&stats);
}

#[test]
fn tempered_jobs_stream_and_replay_bit_identically() {
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let text = "game=ising\ntopology=ring\nn=10\ncoupling=1.0\n\
                rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
                beta_min=0.25\nbeta_max=2.0\nrungs=3\nrounds=20\nsweep_ticks=16\n\
                sample_every=4\nobservable=potential\nreplicas=2\nseed=42";
    let (outcome, _) = submit_job(addr, text, None).expect("client io");
    match outcome {
        ClientOutcome::Done(streamed) => {
            let direct = offline(text);
            assert_eq!(streamed.wire_text(), direct.wire_text());
            assert_eq!(streamed.name, direct.name);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_tempered_job_stops_soon_after_a_mid_run_cancel() {
    // Sized within the admission limits to run for tens of seconds even in
    // an optimised build (2 ensembles x 8 rungs x 10^8 ticks); every
    // tempering round checks the token, so a cancel must end it promptly.
    let text = "game=graphical\ntopology=ring\nn=256\ndelta0=2.0\ndelta1=1.0\n\
                rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
                beta_min=0.2\nbeta_max=2.0\nrungs=8\nrounds=100000\nsweep_ticks=1000\n\
                sample_every=1000\nobservable=potential\nreplicas=2\nseed=9";
    let spec = JobSpec::parse(text).expect("test job parses");
    let job = prepare(spec, &ArtifactCache::new(4)).expect("test job passes admission");
    let sim = Simulator::new(job.spec.seed, job.spec.replicas);
    let cancel = CancelToken::new();
    let canceller = {
        let cancel = cancel.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(100));
            cancel.cancel();
            Instant::now()
        })
    };
    let result = run_prepared(&sim, &job, &cancel);
    let cancelled_at = canceller.join().expect("canceller thread");
    let latency = cancelled_at.elapsed();
    assert!(
        result.is_none(),
        "a cancelled tempered job yields no result"
    );
    assert!(
        latency < Duration::from_secs(5),
        "the run kept going {latency:?} after the cancel"
    );
}

#[test]
fn multi_segment_jobs_of_both_modes_replay_bit_identically() {
    // A coloured profile job and a tempered job that each take at least
    // three segments per replica (per ensemble), submitted together so
    // the executor interleaves their segments: neither may change a
    // streamed byte.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    // Coloured ticks revise one colour class of the 64-player circulant;
    // 3 * SEGMENT_UPDATES / 64 rounds of classes is three segments and
    // more.
    let rounds = 3 * SEGMENT_UPDATES / 64 + 1;
    let coloured = format!(
        "game=ising\ntopology=circulant\nn=64\nk=2\ncoupling=1.1\n\
         rule=logit\nschedule=coloured\nmode=pipelined\nbeta=0.9\nsteps={}\n\
         sample_every=40000\nobservable=potential\nreplicas=1\nseed=8",
        rounds * 5
    );
    // 4 rungs x 256 ticks per round: 1024 updates per round, so
    // 3 * SEGMENT_UPDATES / 1024 rounds are three segments and more.
    let tempered = format!(
        "game=graphical\ntopology=ring\nn=32\ndelta0=2.0\ndelta1=1.0\n\
         rule=logit\nschedule=sweep\nmode=tempered\nladder=linear\n\
         beta_min=0.1\nbeta_max=1.6\nrungs=4\nrounds={}\nsweep_ticks=256\n\
         sample_every=200\nobservable=potential\nreplicas=1\nseed=9",
        3 * SEGMENT_UPDATES / 1024 + 1
    );
    let clients: Vec<_> = [coloured, tempered]
        .into_iter()
        .map(|text| {
            thread::spawn(move || {
                let outcome = submit_job(addr, &text, None).expect("client io").0;
                (text, outcome)
            })
        })
        .collect();
    for client in clients {
        let (text, outcome) = client.join().expect("client thread");
        match outcome {
            ClientOutcome::Done(streamed) => {
                assert_eq!(streamed.wire_text(), offline(&text).wire_text());
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn a_short_job_submitted_behind_a_long_one_finishes_first() {
    // The long job has run a segment when the short one arrives: the
    // executor runs the short job's one segment next, between the long
    // job's, and both streams equal their offline replays.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let long = long_job(31, 4);
    let mut stream = open_job(addr, &long);
    let first = match read_frame(&mut stream).expect("read").expect("a frame") {
        (SERIES, payload) => SeriesPoint::decode(&payload).expect("a point"),
        (kind, payload) => panic!("expected a SERIES frame, got {kind:#04x}: {payload}"),
    };
    let short = base_job(32);
    let short_client = {
        let short = short.clone();
        thread::spawn(move || {
            let outcome = submit_job(addr, &short, None).expect("client io").0;
            (outcome, Instant::now())
        })
    };
    let (points, final_payload) = finish_job(&mut stream, vec![first]);
    let long_done = Instant::now();
    let (short_outcome, short_done) = short_client.join().expect("short client");
    assert!(
        short_done < long_done,
        "the short job's DONE must arrive before the long job's"
    );
    match short_outcome {
        ClientOutcome::Done(streamed) => {
            assert_eq!(streamed.wire_text(), offline(&short).wire_text());
        }
        other => panic!("expected completion, got {other:?}"),
    }
    let direct = offline(&long);
    assert_eq!(wire(&points), wire(&direct.points));
    assert_eq!(final_payload, direct.encode_final());
    let stats = server.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn a_multi_segment_job_cancelled_after_its_first_point_keeps_a_prefix() {
    // Points leave as the segments complete them, so a client that has
    // seen one point can still cancel: it gets CANCELLED after a prefix
    // of the job's offline series.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let text = long_job(41, 6);
    let (outcome, _) = submit_job(addr, &text, Some(1)).expect("client io");
    let points = match outcome {
        ClientOutcome::Cancelled(points) => points,
        other => panic!("expected a cancelled stream, got {other:?}"),
    };
    let direct = offline(&text);
    assert!(
        !points.is_empty(),
        "the first point arrived before the cancel"
    );
    assert!(points.len() < direct.points.len());
    assert_eq!(wire(&points), wire(&direct.points[..points.len()]));
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_outcomes_partition_accepted(&stats);
}

#[test]
fn a_long_job_completes_while_short_jobs_arrive_back_to_back() {
    // Two clients keep short jobs arriving while a long job runs: the
    // long job must still finish (aging), and every stream must equal its
    // offline replay.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let long = long_job(51, 3);
    let long_client = {
        let long = long.clone();
        thread::spawn(move || submit_job(addr, &long, None).expect("client io").0)
    };
    let long_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let short_clients: Vec<_> = (0..2u64)
        .map(|client| {
            let long_done = Arc::clone(&long_done);
            thread::spawn(move || {
                let mut done = Vec::new();
                let mut seed = 100 * (client + 1);
                loop {
                    let text = base_job(seed);
                    let outcome = submit_job(addr, &text, None).expect("client io").0;
                    done.push((text, outcome));
                    seed += 1;
                    if long_done.load(std::sync::atomic::Ordering::Relaxed) || done.len() >= 400 {
                        return done;
                    }
                }
            })
        })
        .collect();
    let long_outcome = long_client.join().expect("long client");
    long_done.store(true, std::sync::atomic::Ordering::Relaxed);
    match long_outcome {
        ClientOutcome::Done(streamed) => {
            assert_eq!(streamed.wire_text(), offline(&long).wire_text());
        }
        other => panic!("expected the long job to complete, got {other:?}"),
    }
    for client in short_clients {
        let done = client.join().expect("short client");
        assert!(!done.is_empty());
        for (text, outcome) in done {
            match outcome {
                ClientOutcome::Done(streamed) => {
                    assert_eq!(streamed.wire_text(), offline(&text).wire_text());
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
    assert_outcomes_partition_accepted(&stats);
}

#[test]
fn a_beta_whose_utilities_overflow_runs_the_zero_noise_limit() {
    // From all zeros on a δ₀ = 3, δ₁ = 1 ring, every revision has utilities
    // [6, 0]: at β = 1e308 the logit weights overflow, and the update must
    // take their β → ∞ limit (stay on 0), as β = 1e6 already does.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let job = |beta: &str| {
        format!(
            "game=graphical\ntopology=ring\nn=16\ndelta0=3.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta={beta}\nsteps=400\n\
             sample_every=100\nobservable=fraction1\nstart=zeros\nreplicas=2\nseed=5"
        )
    };
    for beta in ["1e6", "1e308"] {
        let text = job(beta);
        match submit_job(addr, &text, None).expect("client io").0 {
            ClientOutcome::Done(streamed) => {
                assert_eq!(streamed.finals, vec![0.0, 0.0], "beta = {beta}");
                assert_eq!(streamed.wire_text(), offline(&text).wire_text());
            }
            other => panic!("expected completion at beta = {beta}, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn jobs_on_one_description_share_its_csr_and_colouring() {
    let cache = ArtifactCache::new(4);
    let prepared = || prepare(JobSpec::parse(&base_job(1)).unwrap(), &cache).unwrap();
    let (a, b) = (prepared(), prepared());
    assert!(Arc::ptr_eq(&a.artifacts.csr, &b.artifacts.csr));
    assert!(Arc::ptr_eq(&a.artifacts.coloring, &b.artifacts.coloring));
}

#[test]
fn payoff_variants_of_one_topology_share_one_artifact() {
    // The CSR and colouring depend on the topology alone, so another
    // payoff on the same torus, however close, and another game family on
    // it hit the entry the first job built.
    let torus = |game: &str| {
        format!(
            "{game}\ntopology=torus\nrows=128\ncols=128\nrule=logit\nschedule=coloured\n\
             mode=pipelined\nbeta=1.0\nsteps=4\nsample_every=1\nobservable=potential\n\
             replicas=1\nseed=1"
        )
    };
    let cache = ArtifactCache::new(4);
    let prepared = |game: &str| prepare(JobSpec::parse(&torus(game)).unwrap(), &cache).unwrap();
    let first = prepared("game=graphical\ndelta0=2.0\ndelta1=1.0");
    let second = prepared("game=graphical\ndelta0=2.0000001\ndelta1=1.0");
    assert_ne!(first.spec.content_key(), second.spec.content_key());
    assert!(!first.cache_hit && second.cache_hit);
    assert!(Arc::ptr_eq(&first.artifacts, &second.artifacts));
    let stats = cache.games.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    let ising = prepared("game=ising\ncoupling=0.7");
    assert!(ising.cache_hit && Arc::ptr_eq(&first.artifacts, &ising.artifacts));
    assert_eq!(cache.games.len(), 1);
}

#[test]
fn a_topology_past_the_u32_limit_is_rejected_with_a_typed_error() {
    // The grammar's limits keep every parsed job far below u32, so the
    // boundary behind them is driven with a hand-built spec: it must come
    // back as the typed CSR error, from the topology's counts, without
    // allocating its rows.
    let mut spec = JobSpec::parse(&base_job(1)).unwrap();
    spec.topology = logit_server::Topology::Circulant { n: 1 << 31, k: 2 };
    match prepare(spec, &ArtifactCache::new(1)) {
        Err(e @ AdmissionError::Csr(_)) => assert_eq!(e.code(), "csr"),
        Err(other) => panic!("expected the CSR error, got {other}"),
        Ok(_) => panic!("a 2^33-edge circulant was admitted"),
    }
}

#[test]
fn admission_rejects_the_retired_farm_keys_as_unknown_fields() {
    // Admission only, nothing runs: the segment length is derived from the
    // job, so `chunk_ticks` and `channel_capacity` are not in the grammar,
    // at any value — the old limit included.
    for knob in [
        "chunk_ticks=1",
        "chunk_ticks=0",
        "channel_capacity=65536",
        "channel_capacity=65537",
    ] {
        let text = format!("{}\n{knob}", base_job(1));
        let key = knob.split('=').next().expect("a key");
        assert_eq!(
            JobSpec::parse(&text),
            Err(AdmissionError::UnknownField(key.to_string())),
            "{knob}"
        );
    }
}

#[test]
fn the_artifact_cache_is_shared_and_lru_bounded() {
    let server = RunningServer::start(
        0,
        ServerConfig {
            cache_capacity: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let quick = |n: usize, seed: u64| {
        format!(
            "game=graphical\ntopology=ring\nn={n}\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=200\n\
             sample_every=50\nobservable=fraction1\nreplicas=2\nseed={seed}"
        )
    };
    // Same description twice → second admission hits.
    submit_job(addr, &quick(10, 1), None).expect("io");
    submit_job(addr, &quick(10, 2), None).expect("io");
    // Two more distinct descriptions overflow capacity 2 → eviction.
    submit_job(addr, &quick(12, 3), None).expect("io");
    submit_job(addr, &quick(14, 4), None).expect("io");

    let stats = server.shutdown();
    assert!(stats.artifact_cache.hits >= 1);
    assert!(stats.artifact_cache.misses >= 3);
    assert!(stats.artifact_cache.evictions >= 1);
    assert_eq!(stats.internal_errors, 0);
}
