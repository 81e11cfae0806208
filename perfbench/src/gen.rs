//! Seeded job generators of the three workloads.
//!
//! Every job is plain `JobSpec` grammar text, so the benchmark drives the
//! system only through its stable user surface. Job `i` of a workload is a
//! pure function of `(seed, i)`: the texts, the per-job seeds and the cache
//! hit/miss schedule all repeat exactly for a repeated `--seed`, whichever
//! client happens to take which index.

/// SplitMix64: tiny, seedable and good enough to draw job parameters.
pub struct SplitMix(u64);

impl SplitMix {
    /// The independent stream of item `index` in stream family `stream`.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        let mut mix = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let base = mix.next_u64();
        SplitMix(base ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A float in `[lo, hi)` rounded to three decimals, so job texts stay
    /// short and readable.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1000.0).round() / 1000.0
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.int(0, i as u64) as usize);
        }
        items
    }

    /// A job seed the grammar accepts.
    pub fn job_seed(&mut self) -> u64 {
        self.next_u64() >> 1
    }
}

/// The game half of a description: family, payoffs and topology — the
/// part the artifact cache keys on.
#[derive(Clone, Debug)]
pub struct Game {
    pub text: String,
    pub players: u64,
    pub degree: u64,
}

impl Game {
    fn graphical(delta0: f64, delta1: f64, topology: &str, players: u64, degree: u64) -> Game {
        Game {
            text: format!("game=graphical\ndelta0={delta0}\ndelta1={delta1}\n{topology}"),
            players,
            degree,
        }
    }

    fn ising(coupling: f64, topology: &str, players: u64, degree: u64) -> Game {
        Game {
            text: format!("game=ising\ncoupling={coupling}\n{topology}"),
            players,
            degree,
        }
    }

    fn ring(n: u64) -> (String, u64, u64) {
        (format!("topology=ring\nn={n}"), n, 2)
    }

    fn torus(rows: u64, cols: u64) -> (String, u64, u64) {
        (
            format!("topology=torus\nrows={rows}\ncols={cols}"),
            rows * cols,
            4,
        )
    }

    fn hypercube(dim: u64) -> (String, u64, u64) {
        (format!("topology=hypercube\ndim={dim}"), 1 << dim, dim)
    }

    fn circulant(n: u64, k: u64) -> (String, u64, u64) {
        (format!("topology=circulant\nn={n}\nk={k}"), n, 2 * k)
    }

    fn clique(n: u64) -> (String, u64, u64) {
        (format!("topology=clique\nn={n}"), n, n - 1)
    }
}

/// One job of a workload.
#[derive(Clone, Debug)]
pub struct Job {
    pub text: String,
    /// The workload's small reference job on a ring of 10³ players, whose
    /// latency `probe_latency_p50_ms` reports.
    pub probe: bool,
}

/// Revision rules in a 3 : 1 : 1 mix of logit, Metropolis and noisy best
/// response.
const RULES: [&str; 5] = [
    "rule=logit",
    "rule=metropolis",
    "rule=logit",
    "rule=nbr\nnoise=0.05",
    "rule=logit",
];

#[allow(clippy::too_many_arguments)]
fn pipelined(
    game: &Game,
    rule: &str,
    schedule: &str,
    beta: f64,
    steps: u64,
    sample_every: u64,
    observable: &str,
    replicas: u64,
    seed: u64,
) -> String {
    format!(
        "{}\n{rule}\nschedule={schedule}\nmode=pipelined\nbeta={beta}\nsteps={steps}\n\
         sample_every={sample_every}\nobservable={observable}\nreplicas={replicas}\nseed={seed}",
        game.text
    )
}

#[allow(clippy::too_many_arguments)]
fn tempered(
    game: &Game,
    rule: &str,
    schedule: &str,
    rungs: u64,
    (beta_min, beta_max): (f64, f64),
    rounds: u64,
    sweep_ticks: u64,
    sample_every: u64,
    observable: &str,
    replicas: u64,
    seed: u64,
) -> String {
    format!(
        "{}\n{rule}\nschedule={schedule}\nmode=tempered\nladder=geometric\nbeta_min={beta_min}\n\
         beta_max={beta_max}\nrungs={rungs}\nrounds={rounds}\nsweep_ticks={sweep_ticks}\n\
         sample_every={sample_every}\nobservable={observable}\nreplicas={replicas}\nseed={seed}",
        game.text
    )
}

/// A tiny job on `game`: admits (filling the artifact cache) and spawns
/// the executor's pool without measurable engine work.
fn warmup_job(game: &Game) -> String {
    pipelined(
        game,
        "rule=logit",
        "uniform",
        1.0,
        16,
        16,
        "fraction1",
        1,
        1,
    )
}

/// A probe: a logit job on the graphical ring of 10³ players, 4 replicas,
/// `updates` player updates per replica, about 8 series frames.
fn probe_job(game: &Game, schedule: &str, updates: u64, seed: u64) -> String {
    let steps = if schedule == "all" {
        updates / game.players
    } else {
        updates
    };
    pipelined(
        game,
        "rule=logit",
        schedule,
        1.0,
        steps,
        (steps / 8).max(1),
        "fraction1",
        4,
        seed,
    )
}

/// Updates per replica of the `serve-short` and `offline-dense` probes:
/// enough compute that their latency is not just thread wake-ups, which
/// on a shared host drift far more than throughput does.
const PROBE_UPDATES: u64 = 100_000;

// Hot, heavy and probe games have fixed payoffs and β: how ordered the
// profiles become changes engine speed, so these stay out of the seed's
// reach. The seed picks job seeds, orderings and the remaining draws.
const DELTAS: (f64, f64) = (2.0, 1.0);
const COUPLING: f64 = 1.0;

fn graphical_on((topology, n, d): (String, u64, u64)) -> Game {
    Game::graphical(DELTAS.0, DELTAS.1, &topology, n, d)
}

fn ising_on((topology, n, d): (String, u64, u64)) -> Game {
    Game::ising(COUPLING, &topology, n, d)
}

fn probe_game() -> Game {
    graphical_on(Game::ring(1000))
}

/// `serve-short`: two clients submit short mixed jobs back to back.
///
/// Chosen because per-job fixed costs (connect, handler and watcher
/// threads, parse, prepare, farm set-up, dispatch, encode) are a large
/// share of each job while engine work is small. In every block of eight
/// jobs one uses a fresh game description (a cache miss that builds graph,
/// colouring and RCM layout at admission), two are the reference probe and
/// five reuse one of five hot descriptions (cache hits), so a change that
/// speeds up hits by slowing misses shows in the tail.
pub struct ServeShort {
    seed: u64,
    hot: Vec<Game>,
    probe: Game,
}

impl ServeShort {
    pub fn new(seed: u64) -> Self {
        let probe = probe_game();
        let hot = vec![
            probe.clone(),
            ising_on(Game::torus(32, 32)),
            graphical_on(Game::hypercube(10)),
            ising_on(Game::circulant(4096, 4)),
            graphical_on(Game::clique(128)),
        ];
        ServeShort { seed, hot, probe }
    }

    pub fn warmup(&self) -> Vec<String> {
        self.hot.iter().map(warmup_job).collect()
    }

    /// Job `index`. Blocks of eight jobs have a fixed make-up — five hot
    /// jobs (one per hot description), one fresh, two probes — and the six
    /// non-probe jobs of a block cover the schedules (uniform ×2, sweep,
    /// coloured, tempered, and all-logit or sweep in alternate blocks), six
    /// strata of the 10⁴–10⁵ update range and six replica counts. The seed
    /// permutes these within each block and draws the remaining parameters,
    /// so the mix a run sees hardly depends on the seed.
    pub fn job(&self, index: u64) -> Job {
        let block_index = index / 8;
        let mut block = SplitMix::keyed(self.seed, 0x11, block_index);
        let slot = block.permutation(8)[(index % 8) as usize];
        let mut rng = SplitMix::keyed(self.seed, 0x12, index);
        if slot >= 6 {
            return Job {
                text: probe_job(&self.probe, "uniform", PROBE_UPDATES, rng.job_seed()),
                probe: true,
            };
        }
        let strata = block.permutation(6);
        let sizes = block.permutation(6);
        let game = if slot == 5 {
            fresh_game(&mut rng, index)
        } else {
            self.hot[(slot as u64 + block_index) as usize % self.hot.len()].clone()
        };
        let schedule = match (slot as u64 + block_index) % 6 {
            0 | 1 => "uniform",
            2 => "sweep",
            3 => "coloured",
            4 => "tempered",
            _ if block_index.is_multiple_of(2) => "all",
            _ => "sweep",
        };
        let updates = 10f64.powf(4.0 + (strata[slot] as f64 + rng.unit()) / 6.0) as u64;
        let shape = ShortShape {
            schedule,
            updates,
            replicas: [2, 3, 4, 5, 6, 8][sizes[slot]],
            rule: RULES[(slot as u64 + 3 * block_index) as usize % RULES.len()],
            observable: ["fraction0", "fraction1", "potential"]
                [(slot as u64 + block_index) as usize % 3],
        };
        Job {
            text: short_job(&game, &shape, &mut rng),
            probe: false,
        }
    }
}

/// A game description no other job uses: the topology cycles with the
/// block and its size `n = 10²–10⁴` follows a golden-ratio sequence, so
/// every run sees the same spread of admission costs; the payoffs are
/// salted with the job index.
fn fresh_game(rng: &mut SplitMix, index: u64) -> Game {
    let block_index = index / 8;
    let u = ((block_index / 5) as f64 * 0.618_033_988_75 + 0.05 * rng.unit()).fract();
    let n = 10f64.powf(2.0 + 2.0 * u) as u64;
    let side = (n as f64).sqrt().round().max(3.0) as u64;
    let (topology, players, degree) = match block_index % 5 {
        0 => Game::ring(n),
        1 => Game::torus(side, side),
        2 => Game::hypercube((n as f64).log2().round().clamp(7.0, 13.0) as u64),
        3 => Game::circulant(n, 2 + block_index / 5 % 4),
        _ => Game::clique(100 + n / 100),
    };
    let salt = (index % 1_000_000) as f64 * 1e-7;
    if (block_index / 5).is_multiple_of(2) {
        Game::graphical(DELTAS.0 + salt, DELTAS.1, &topology, players, degree)
    } else {
        Game::ising(COUPLING + salt, &topology, players, degree)
    }
}

/// The stratified part of a short job.
struct ShortShape {
    schedule: &'static str,
    /// Player updates per replica.
    updates: u64,
    replicas: u64,
    rule: &'static str,
    observable: &'static str,
}

/// A short job: 10⁴–10⁵ player updates per replica, 2–8 replicas and
/// 8–32 series frames, on a uniform, sweep, coloured, all-logit or
/// tempered (K = 4) schedule.
fn short_job(game: &Game, shape: &ShortShape, rng: &mut SplitMix) -> String {
    let ShortShape {
        schedule,
        updates,
        replicas,
        rule,
        observable,
    } = *shape;
    let frames = rng.int(8, 32);
    let beta = rng.real(0.5, 2.0);
    let seed = rng.job_seed();
    // A coloured tick revises one colour class, about n / (degree + 1)
    // players; an all-logit tick revises all n.
    let class = (game.players / (game.degree + 1)).max(1);
    let steps = match schedule {
        "coloured" => (updates / class).max(frames),
        "all" => (updates / game.players).max(frames),
        "tempered" => {
            let rounds = 32;
            let frames = frames.min(rounds);
            return tempered(
                game,
                rule,
                ["uniform", "sweep"][rng.int(0, 1) as usize],
                4,
                (0.3, 1.5),
                rounds,
                (updates / (rounds * 4)).max(1),
                rounds / frames,
                observable,
                replicas,
                seed,
            );
        }
        _ => updates,
    };
    pipelined(
        game,
        rule,
        schedule,
        beta,
        steps,
        steps / frames,
        observable,
        replicas,
        seed,
    )
}

/// Ticks of the heavy coloured job and rounds of the heavy tempered job,
/// sized so that both take about the same executor time on a 2-core host:
/// probes wait behind one heavy job at a time, and equal heavy jobs keep
/// their latency unimodal.
const HEAVY_COLOURED_TICKS: u64 = 48;
const HEAVY_TEMPERED_ROUNDS: u64 = 88;

/// `serve-heavy`: one heavy client alternating two large jobs, and one
/// probe client submitting the reference probe back to back.
///
/// Chosen because execution dominates: the coloured job runs on a
/// circulant at the player limit (2²⁰ players, 2²² edges — half the edge
/// limit, which keeps the process near 1.5 GB), whose u32 adjacency (~37 MB)
/// is a third of a 105 MiB L3 and far beyond a 2 MiB L2, and every job
/// re-clones the cached graph and rebuilds its CSR. Probes see head-of-line
/// wait behind the single executor.
pub struct ServeHeavy {
    seed: u64,
    coloured: Game,
    tempered: Game,
    probe: Game,
}

impl ServeHeavy {
    pub fn new(seed: u64) -> Self {
        ServeHeavy {
            seed,
            coloured: graphical_on(Game::circulant(1 << 20, 4)),
            tempered: ising_on(Game::torus(128, 128)),
            probe: probe_game(),
        }
    }

    pub fn warmup(&self) -> Vec<String> {
        [&self.coloured, &self.tempered, &self.probe]
            .into_iter()
            .map(warmup_job)
            .collect()
    }

    pub fn heavy_job(&self, index: u64) -> Job {
        let seed = SplitMix::keyed(self.seed, 0x21, index).job_seed();
        let text = if index.is_multiple_of(2) {
            pipelined(
                &self.coloured,
                "rule=logit",
                "coloured",
                1.2,
                HEAVY_COLOURED_TICKS,
                HEAVY_COLOURED_TICKS / 4,
                "fraction1",
                2,
                seed,
            )
        } else {
            tempered(
                &self.tempered,
                "rule=logit",
                "sweep",
                8,
                // Rungs ~0.004 apart near the critical β: close enough for
                // swaps between 2¹⁴ spins to be accepted.
                (0.41, 0.44),
                HEAVY_TEMPERED_ROUNDS,
                self.tempered.players,
                HEAVY_TEMPERED_ROUNDS / 8,
                "potential",
                2,
                seed,
            )
        };
        Job { text, probe: false }
    }

    /// The probe client's job `index`: 10⁴ updates per replica, cycling
    /// through the uniform, sweep and all-logit schedules.
    pub fn probe_job(&self, index: u64) -> Job {
        let schedule = ["uniform", "sweep", "all"][(index % 3) as usize];
        let seed = SplitMix::keyed(self.seed, 0x22, index).job_seed();
        Job {
            text: probe_job(&self.probe, schedule, 10_000, seed),
            probe: true,
        }
    }
}

/// `offline-dense`: one thread runs a seeded job list through `prepare` +
/// `run_prepared` on a fresh simulator per job — the offline user's path.
///
/// Chosen because snapshot copies, channel traffic and the O(n + m)
/// `potential` observable on the reducer dominate: every job samples it
/// densely on a ring or torus of ~10⁵ players, whose profiles fit in L3
/// but not in L2. No server layer runs, so a server-only change is
/// predicted to leave this workload unchanged. In every block of eight
/// jobs: two uniform, two all-logit, one sweep, one coloured, one tempered
/// and one reference probe.
pub struct OfflineDense {
    seed: u64,
    games: Vec<Game>,
    probe: Game,
}

impl OfflineDense {
    pub fn new(seed: u64) -> Self {
        OfflineDense {
            seed,
            games: vec![
                graphical_on(Game::ring(100_000)),
                ising_on(Game::ring(100_000)),
                graphical_on(Game::torus(316, 316)),
                ising_on(Game::torus(316, 316)),
            ],
            probe: probe_game(),
        }
    }

    pub fn warmup(&self) -> Vec<String> {
        self.games
            .iter()
            .chain([&self.probe])
            .map(warmup_job)
            .collect()
    }

    pub fn job(&self, index: u64) -> Job {
        let mut block = SplitMix::keyed(self.seed, 0x31, index / 8);
        let slot = block.permutation(8)[(index % 8) as usize];
        let mut rng = SplitMix::keyed(self.seed, 0x32, index);
        if slot == 7 {
            return Job {
                text: probe_job(&self.probe, "uniform", PROBE_UPDATES, rng.job_seed()),
                probe: true,
            };
        }
        // Game, rule and β cycle with the block, so every 20 blocks hold
        // the same mix whatever the seed: the seed orders jobs within a
        // block and draws their job seeds.
        let cycle = slot as u64 + index / 8;
        let game = &self.games[cycle as usize % self.games.len()];
        let rule = RULES[(cycle + 2 * (index / 8)) as usize % RULES.len()];
        let beta = [0.5, 1.0, 1.5, 2.0][(cycle + index / 32) as usize % 4];
        let seed = rng.job_seed();
        let n = game.players;
        let text = match slot {
            0 | 1 => pipelined(game, rule, "uniform", beta, n, n / 32, "potential", 4, seed),
            2 | 3 => pipelined(game, rule, "all", beta, 4, 1, "potential", 4, seed),
            4 => pipelined(game, rule, "sweep", beta, n, n / 32, "potential", 4, seed),
            5 => pipelined(game, rule, "coloured", beta, 4, 1, "potential", 4, seed),
            _ => tempered(
                game,
                rule,
                "sweep",
                4,
                (0.3, 1.5),
                4,
                n / 4,
                1,
                "potential",
                2,
                seed,
            ),
        };
        Job { text, probe: false }
    }
}
