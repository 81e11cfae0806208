//! Cross-commit stream probe: runs a fixed matrix of service jobs through
//! `prepare` + the farmed `run_prepared` and through `run_direct`, asserts
//! the two streams agree byte for byte on every job, and prints one FNV-1a
//! hash over all of them.
//!
//! The matrix is 5 job kinds (uniform, sweep, all-logit and coloured
//! pipelined jobs, and tempered jobs) × logit / Metropolis / noisy best
//! response × `potential` / `fraction1` × three games (graphical 2/1,
//! graphical 2.0137/1, Ising J = 0.7 h = 0.3) × two graphs (circulant
//! (600, 3), torus 12×20) × two starts (all-zeros, all-ones), with β
//! cycling through 0.05 / 0.4 / 1.3 / 6.0. The cycle steps once more at
//! each new game, so every game meets every β on each graph from each
//! start. At β = 0.05 a large share of revisions move; a tempered job's
//! ladder runs from `min(0.2, β/2)` to β.
//!
//! Run it on two commits of one host to show a change left every stream
//! alone: equal hashes mean equal wire bytes for all 360 jobs. The hash is
//! not a constant to pin across hosts, because `exp` comes from the system
//! libm and its last ulp may differ between them.
//!
//! ```text
//! cargo run --release -p logit-bench --bin stream_hash
//! ```

use logit_core::{CancelToken, Simulator};
use logit_server::{fnv1a, prepare, run_direct, run_prepared, ArtifactCache, JobSpec};

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
const STARTS: [&str; 2] = ["zeros", "ones"];
const BETAS: [f64; 4] = [0.05, 0.4, 1.3, 6.0];

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
    let cache = ArtifactCache::new(GAMES.len() * GRAPHS.len());
    // One pool for every farmed job, as the server's executor holds.
    let base = Simulator::new(0, 1);
    let mut wire = String::new();
    let mut jobs = 0;
    for kind in KINDS {
        for rule in RULES {
            for observable in OBSERVABLES {
                for game in GAMES {
                    for graph in GRAPHS {
                        for start in STARTS {
                            let text = job_text(jobs, kind, rule, observable, game, graph, start);
                            let spec = JobSpec::parse(&text).expect("matrix jobs parse");
                            let job = prepare(spec, &cache).expect("matrix jobs pass admission");
                            let sim = base.reseeded(job.spec.seed, job.spec.replicas);
                            let farmed = run_prepared(&sim, &job, &CancelToken::new())
                                .expect("an uncancelled job completes");
                            let direct = run_direct(&job);
                            assert_eq!(
                                farmed.wire_text(),
                                direct.wire_text(),
                                "farmed and direct streams differ on job {jobs}:\n{text}"
                            );
                            wire.push_str(&farmed.wire_text());
                            jobs += 1;
                        }
                    }
                }
            }
        }
    }
    println!(
        "stream_hash: {jobs} jobs, farmed == direct on every job, combined hash {:016x}",
        fnv1a(wire.as_bytes())
    );
}
