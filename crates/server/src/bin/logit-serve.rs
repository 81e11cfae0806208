//! `logit-serve` — the simulation-as-a-service daemon.
//!
//! ```text
//! logit-serve [--port N]      # serve on 127.0.0.1:N (default 4517) until killed
//! logit-serve --self-test     # end-to-end smoke: ephemeral server, mixed
//!                             # concurrent tenants, bit-identity asserts
//! ```
//!
//! `--self-test` is the CI smoke step: it launches a server on an
//! ephemeral port, fires a concurrent batch of jobs — well-formed
//! pipelined and tempered jobs, one malformed job, one job cancelled
//! mid-stream, one raw-garbage client — asserts every completed stream is
//! byte-identical to the offline [`run_direct`] replay, asserts the
//! malformed/cancelled jobs produced typed rejections/clean stream ends
//! (and no pool-worker casualties: a final job still completes), then
//! shuts down cleanly. Exit code 0 means the contract held.

use logit_server::{
    prepare, request_stats, run_direct, submit_job, submit_raw, ArtifactCache, ClientOutcome,
    JobSpec, RunningServer, ServerConfig,
};
use std::net::SocketAddr;
use std::thread;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => self_test(),
        Some("--port") => {
            let port: u16 = args
                .get(1)
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| die("--port needs a number"));
            serve(port)
        }
        None => serve(4517),
        Some(other) => die(&format!("unknown argument `{other}`")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("logit-serve: {msg}");
    eprintln!("usage: logit-serve [--port N] | logit-serve --self-test");
    std::process::exit(2)
}

fn serve(port: u16) {
    let server = RunningServer::start(port, ServerConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot bind 127.0.0.1:{port}: {e}")));
    println!("logit-serve listening on {}", server.addr());
    // Serve until killed; the process exit tears the threads down.
    loop {
        thread::park();
    }
}

fn job_text(seed: u64, kind: &str) -> String {
    match kind {
        "graphical-uniform" => format!(
            "game=graphical\ntopology=ring\nn=24\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.2\nsteps=6000\n\
             sample_every=500\nobservable=fraction1\nreplicas=8\nseed={seed}\nchunk_ticks=256"
        ),
        "ising-sweep" => format!(
            "game=ising\ntopology=torus\nrows=5\ncols=5\ncoupling=0.7\n\
             rule=metropolis\nschedule=sweep\nmode=pipelined\nbeta=0.9\nsteps=4000\n\
             sample_every=400\nobservable=potential\nreplicas=6\nseed={seed}"
        ),
        "coloured" => format!(
            "game=ising\ntopology=circulant\nn=30\nk=3\ncoupling=1.0\n\
             rule=logit\nschedule=coloured\nmode=pipelined\nbeta=1.5\nsteps=2000\n\
             sample_every=200\nobservable=fraction0\nreplicas=4\nseed={seed}"
        ),
        "tempered" => format!(
            "game=graphical\ntopology=ring\nn=16\ndelta0=3.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
             beta_min=0.2\nbeta_max=2.0\nrungs=4\nrounds=40\nsweep_ticks=32\n\
             sample_every=8\nobservable=potential\nreplicas=3\nseed={seed}"
        ),
        other => panic!("unknown self-test job kind {other}"),
    }
}

/// Replays `text` offline and asserts byte-identity with the streamed
/// result.
fn assert_offline_identical(text: &str, streamed: &logit_server::StreamedResult, label: &str) {
    let spec = JobSpec::parse(text).expect("self-test jobs are well-formed");
    let cache = ArtifactCache::new(4);
    let job = prepare(spec, &cache).expect("self-test jobs pass admission");
    let direct = run_direct(&job);
    assert_eq!(
        streamed.wire_text(),
        direct.wire_text(),
        "{label}: streamed series diverged from the offline replay"
    );
}

fn self_test() {
    println!("logit-serve self-test: starting ephemeral server");
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();

    // A concurrent mixed batch: four reproducible jobs (two sharing one
    // game description to exercise the artifact cache), one mid-stream
    // cancel, one malformed job, one raw-garbage client.
    let kinds = [
        ("graphical-uniform", 11u64),
        ("graphical-uniform", 12),
        ("ising-sweep", 13),
        ("coloured", 14),
        ("tempered", 15),
    ];
    let mut clients = Vec::new();
    for (kind, seed) in kinds {
        let text = job_text(seed, kind);
        clients.push((
            kind,
            text.clone(),
            thread::spawn(move || submit_job(addr, &text, None).expect("client io")),
        ));
    }
    let cancel_client = {
        // Deliberately long (3M steps, small chunks) so the cancel lands
        // mid-run and the farm's chunk-granular token check is exercised.
        let text = "game=graphical\ntopology=ring\nn=64\ndelta0=2.0\ndelta1=1.0\n\
                    rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.2\nsteps=3000000\n\
                    sample_every=100000\nobservable=fraction1\nreplicas=8\nseed=99\n\
                    chunk_ticks=64"
            .to_string();
        thread::spawn(move || submit_job(addr, &text, Some(0)).expect("cancel client io"))
    };
    let malformed_client = thread::spawn(move || {
        let text = "game=graphical\ntopology=ring\nn=24\ndelta0=-1.0\ndelta1=1.0\n\
                    rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=100\n\
                    sample_every=10\nobservable=fraction1\nreplicas=2\nseed=1";
        submit_job(addr, text, None).expect("malformed client io")
    });
    let garbage_client = thread::spawn(move || garbage_probe(addr));

    // A live STATS probe *mid-chaos*: the snapshot must come back and
    // parse while jobs are in flight — probes bypass the queue.
    let mid_chaos = request_stats(addr).expect("mid-chaos STATS probe io");
    let mid_samples =
        logit_telemetry::parse_prometheus(&mid_chaos).expect("mid-chaos snapshot must parse");
    assert!(
        mid_samples.contains_key("server_jobs_accepted"),
        "the snapshot carries the job counters"
    );
    println!(
        "  stats: mid-chaos snapshot parsed ({} samples)",
        mid_samples.len()
    );

    for (kind, text, handle) in clients {
        let (outcome, timing) = handle.join().expect("client thread");
        match outcome {
            ClientOutcome::Done(streamed) => {
                assert_offline_identical(&text, &streamed, kind);
                println!(
                    "  {kind}: {} points, bit-identical offline, {:.1} ms",
                    streamed.points.len(),
                    timing.total_secs * 1e3
                );
            }
            other => panic!("{kind}: expected Done, got {other:?}"),
        }
    }

    let (outcome, _) = cancel_client.join().expect("cancel client thread");
    match outcome {
        ClientOutcome::Cancelled(points) => {
            println!("  cancel: clean CANCELLED after {} points", points.len());
        }
        // The farm may finish the job before the cancel lands; a complete
        // stream is also a clean end.
        ClientOutcome::Done(_) => println!("  cancel: job outran the cancel (clean DONE)"),
        other => panic!("cancel: expected Cancelled or Done, got {other:?}"),
    }

    let (outcome, _) = malformed_client.join().expect("malformed client thread");
    match outcome {
        ClientOutcome::Rejected(msg) => {
            assert!(
                msg.starts_with("coordination:"),
                "malformed job should be a typed coordination rejection, got `{msg}`"
            );
            println!("  malformed: typed rejection `{msg}`");
        }
        other => panic!("malformed: expected Rejected, got {other:?}"),
    }
    garbage_client.join().expect("garbage client thread");

    // The pool must have survived all of the above: one more job,
    // checked offline again.
    let text = job_text(77, "ising-sweep");
    let (outcome, _) = submit_job(addr, &text, None).expect("post-chaos client io");
    match outcome {
        ClientOutcome::Done(streamed) => assert_offline_identical(&text, &streamed, "post-chaos"),
        other => panic!("post-chaos: expected Done, got {other:?}"),
    }
    println!("  post-chaos: pool workers survived, job still bit-identical");

    // The quiescent STATS frame: every client has joined, so the parsed
    // snapshot must agree exactly with the server's ground-truth
    // counters. This is the registry-backed replacement for the old
    // bespoke `stats: ...` printout.
    let final_stats = request_stats(addr).expect("final STATS probe io");
    let samples =
        logit_telemetry::parse_prometheus(&final_stats).expect("final snapshot must parse");
    let stats = server.shutdown();
    for (name, truth) in [
        ("server_jobs_accepted", stats.accepted),
        ("server_jobs_rejected", stats.rejected),
        ("server_jobs_completed", stats.completed),
        ("server_jobs_cancelled", stats.cancelled),
        ("server_internal_errors", stats.internal_errors),
        ("server_artifact_hits", stats.artifact_cache.hits),
        ("server_artifact_misses", stats.artifact_cache.misses),
    ] {
        assert_eq!(
            samples.get(name).copied(),
            Some(truth as f64),
            "STATS sample `{name}` must match the chaos-batch ground truth"
        );
    }
    // Every accepted job ended in exactly one execution outcome.
    assert_eq!(
        samples["server_jobs_accepted"],
        samples["server_jobs_completed"]
            + samples["server_jobs_cancelled"]
            + samples["server_internal_errors"],
        "completed + cancelled + internal errors must partition the accepted jobs"
    );
    if logit_telemetry::enabled() {
        // Feature builds running with LOGIT_TELEMETRY=1 must also carry
        // non-empty per-job latency histograms in the same snapshot.
        for family in ["server_job_wall_ns", "server_job_exec_ns"] {
            let count = samples.get(&format!("{family}_count")).copied();
            assert!(
                count.unwrap_or(0.0) >= 1.0,
                "live histogram `{family}` must have recorded jobs, got {count:?}"
            );
        }
        println!("  stats: live latency histograms populated");
    }
    print!("{final_stats}");
    assert_eq!(stats.internal_errors, 0, "no job may panic a pool worker");
    assert!(stats.rejected >= 2, "malformed + garbage clients rejected");
    assert!(
        stats.artifact_cache.hits >= 1,
        "two jobs shared one game description, so the cache must have hit"
    );
    println!("logit-serve self-test: OK");
}

/// A client that violates the framing protocol outright; the server must
/// answer with a typed `protocol:` rejection (or just close), never crash.
fn garbage_probe(addr: SocketAddr) {
    let reply = submit_raw(addr, b"\x00\x00\x00\x09Xnonsense").expect("garbage io");
    if let Some((kind, payload)) = reply {
        assert_eq!(kind, b'R', "garbage gets REJECTED, got kind {kind:#04x}");
        assert!(
            payload.starts_with("protocol:"),
            "garbage rejection is typed, got `{payload}`"
        );
    }
}
