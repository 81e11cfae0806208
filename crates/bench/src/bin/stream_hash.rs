//! Cross-commit stream probe: runs a fixed matrix of service jobs through
//! `prepare` + the farmed `run_prepared` and through `run_direct`, asserts
//! the two streams agree byte for byte on every job, submits the whole
//! matrix to an in-process server from two concurrent clients and asserts
//! every served stream agrees too, and prints one FNV-1a hash over the
//! farmed streams.
//!
//! The matrix is 5 job kinds (uniform, sweep, all-logit and coloured
//! pipelined jobs, and tempered jobs) × logit / Metropolis / noisy best
//! response × `potential` / `fraction1` × three games (graphical 2/1,
//! graphical 2.0137/1, Ising J = 0.7 h = 0.3) × two graphs (circulant
//! (600, 3), torus 12×20) × two starts (all-zeros, all-ones), with β
//! cycling through 0.05 / 0.4 / 1.3 / 6.0. The cycle steps once more at
//! each new game, so every game meets every β on each graph from each
//! start. At β = 0.05 a large share of revisions move; a tempered job's
//! ladder runs from `min(0.2, β/2)` to β. Six coloured jobs follow, one
//! per game on each of two more DSATUR-sized graphs: an irregular grid
//! 9×14 (degrees 2 to 4) and a torus 9×14. The torus's odd cycles make
//! its classes depend on the order in which DSATUR colours, and so on its
//! index tie-break. The grid, like the matrix's 12×20 torus, is
//! bipartite: every order gives it the same two classes. No admitted
//! topology is both irregular and non-bipartite, so no job here can pin
//! DSATUR's degree tie-break; the colouring module's proptest does. Three
//! more coloured jobs, one per game, run on a circulant (20,001, 3), past
//! DSATUR's vertex cap, so they pin the first-fit colouring admission
//! builds from CSR rows. Two long jobs close the matrix, each more than
//! three segments of work per replica (2²⁰ player updates a segment): a
//! coloured profile job and a tempered job, so the farmed runner and the
//! server resume both kinds between segments.
//!
//! Run it on two commits of one host to show a change left every stream
//! alone: equal hashes mean equal wire bytes for all 371 jobs. The hash is
//! not a constant to pin across hosts, because `exp` comes from the system
//! libm and its last ulp may differ between them.
//!
//! ```text
//! cargo run --release -p logit-bench --bin stream_hash
//! ```

use logit_core::{CancelToken, Simulator};
use logit_server::{
    fnv1a, prepare, run_direct, run_prepared, submit_job, ArtifactCache, ClientOutcome, JobSpec,
    RunningServer, ServerConfig,
};

const KINDS: [&str; 5] = ["uniform", "sweep", "all", "coloured", "tempered"];
const RULES: [&str; 3] = ["rule=logit", "rule=metropolis", "rule=nbr\nnoise=0.1"];
const OBSERVABLES: [&str; 2] = ["potential", "fraction1"];
const GAMES: [&str; 3] = [
    "game=graphical\ndelta0=2.0\ndelta1=1.0",
    "game=graphical\ndelta0=2.0137\ndelta1=1.0",
    "game=ising\ncoupling=0.7\nfield=0.3",
];
const GRAPHS: [&str; 2] = [
    "topology=circulant\nn=600\nk=3",
    "topology=torus\nrows=12\ncols=20",
];
/// Graphs of the extra coloured jobs, both within DSATUR's caps.
const DSATUR_GRAPHS: [&str; 2] = [
    "topology=grid\nrows=9\ncols=14",
    "topology=torus\nrows=9\ncols=14",
];
/// Graph of the first-fit coloured jobs: 20,001 vertices, past DSATUR's
/// vertex cap of 2¹⁴. With `n` not a multiple of `k + 1` the wrap needs a
/// fifth colour, and which vertex takes it depends on the order
/// first-fit visits them.
const FIRST_FIT_GRAPH: &str = "topology=circulant\nn=20001\nk=3";
const STARTS: [&str; 2] = ["zeros", "ones"];
const BETAS: [f64; 4] = [0.05, 0.4, 1.3, 6.0];
/// Jobs of more than three segments per replica: a coloured job of 40,000
/// ticks on the circulant (600 players in at most 7 colour classes, so at
/// least 3.4M updates per replica), and a tempered job of 1,400 rounds of
/// 4 rungs × 600 ticks (3.36M updates per ensemble).
const LONG_JOBS: [&str; 2] = [
    "game=graphical\ndelta0=2.0137\ndelta1=1.0\ntopology=circulant\nn=600\nk=3\n\
     start=zeros\nrule=logit\nschedule=coloured\nmode=pipelined\nbeta=0.4\nsteps=40000\n\
     sample_every=1000\nreplicas=3\nobservable=potential\nseed=1592852225",
    "game=ising\ncoupling=0.7\nfield=0.3\ntopology=torus\nrows=12\ncols=20\nstart=ones\n\
     rule=metropolis\nschedule=uniform\nmode=tempered\nladder=geometric\nbeta_min=0.2\n\
     beta_max=1.3\nrungs=4\nrounds=1400\nsweep_ticks=600\nsample_every=50\nreplicas=2\n\
     observable=potential\nseed=1592852226",
];

/// The description of job `index` of the matrix.
fn job_text(
    index: usize,
    kind: &str,
    rule: &str,
    observable: &str,
    game: &str,
    graph: &str,
    start: &str,
) -> String {
    // A game's jobs are the four graph × start jobs in a row: stepping the
    // cycle once more per game keeps β from being a function of them.
    let beta = BETAS[(index + index / (GRAPHS.len() * STARTS.len())) % BETAS.len()];
    let seed = 0x5EED_0000 + index as u64;
    let mode = match kind {
        "tempered" => format!(
            "schedule=uniform\nmode=tempered\nladder=geometric\nbeta_min={}\nbeta_max={beta}\n\
             rungs=4\nrounds=24\nsweep_ticks=100\nsample_every=2\nreplicas=2",
            (beta / 2.0).min(0.2)
        ),
        schedule => format!(
            "schedule={schedule}\nmode=pipelined\nbeta={beta}\nsteps=2400\nsample_every=200\nreplicas=3"
        ),
    };
    format!("{game}\n{graph}\nstart={start}\n{rule}\n{mode}\nobservable={observable}\nseed={seed}")
}

fn main() {
    let mut texts = Vec::new();
    for kind in KINDS {
        for rule in RULES {
            for observable in OBSERVABLES {
                for game in GAMES {
                    for graph in GRAPHS {
                        for start in STARTS {
                            let index = texts.len();
                            texts.push(job_text(index, kind, rule, observable, game, graph, start));
                        }
                    }
                }
            }
        }
    }
    for (i, graph) in DSATUR_GRAPHS.iter().enumerate() {
        for (j, game) in GAMES.iter().enumerate() {
            let index = texts.len();
            let start = STARTS[(i + j) % STARTS.len()];
            texts.push(job_text(
                index,
                "coloured",
                RULES[j],
                "potential",
                game,
                graph,
                start,
            ));
        }
    }
    for (j, game) in GAMES.iter().enumerate() {
        let beta = BETAS[(texts.len() + j) % BETAS.len()];
        let seed = 0x5EED_0000 + texts.len() as u64;
        texts.push(format!(
            "{game}\n{FIRST_FIT_GRAPH}\nstart={}\n{}\nschedule=coloured\nmode=pipelined\n\
             beta={beta}\nsteps=40\nsample_every=5\nreplicas=2\nobservable=potential\nseed={seed}",
            STARTS[j % STARTS.len()],
            RULES[j],
        ));
    }
    texts.extend(LONG_JOBS.map(String::from));

    let cache = ArtifactCache::new(GAMES.len() * (GRAPHS.len() + DSATUR_GRAPHS.len() + 1));
    // One pool for every farmed job, as the server's executor holds.
    let base = Simulator::new(0, 1);
    let mut wire = String::new();
    let mut directs = Vec::new();
    for (index, text) in texts.iter().enumerate() {
        let spec = JobSpec::parse(text).expect("matrix jobs parse");
        let job = prepare(spec, &cache).expect("matrix jobs pass admission");
        let sim = base.reseeded(job.spec.seed, job.spec.replicas);
        let farmed =
            run_prepared(&sim, &job, &CancelToken::new()).expect("an uncancelled job completes");
        let direct = run_direct(&job);
        assert_eq!(
            farmed.wire_text(),
            direct.wire_text(),
            "farmed and direct streams differ on job {index}:\n{text}"
        );
        wire.push_str(&farmed.wire_text());
        directs.push(direct.wire_text());
    }

    // The served leg: two clients submit alternate jobs concurrently, so
    // the executor interleaves their segments.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind a local port");
    let addr = server.addr();
    let clients: Vec<_> = (0..2)
        .map(|client| {
            let texts: Vec<(usize, String)> = texts
                .iter()
                .cloned()
                .enumerate()
                .filter(|(index, _)| index % 2 == client)
                .collect();
            std::thread::spawn(move || {
                texts
                    .into_iter()
                    .map(|(index, text)| {
                        let (outcome, _) = submit_job(addr, &text, None).expect("client io");
                        (index, outcome)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for (index, outcome) in client.join().expect("client thread") {
            match outcome {
                ClientOutcome::Done(served) => assert_eq!(
                    served.wire_text(),
                    directs[index],
                    "served and direct streams differ on job {index}:\n{}",
                    texts[index]
                ),
                other => panic!("job {index} did not complete: {other:?}"),
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, texts.len());

    println!(
        "stream_hash: {} jobs, farmed == served == direct on every job, combined hash {:016x}",
        texts.len(),
        fnv1a(wire.as_bytes())
    );
}
