//! Admission (prepare) and execution (dispatch) of validated jobs.
//!
//! [`prepare`] is the second admission stage: it materialises the game
//! description through the library crates' fallible `try_*` constructors —
//! [`CsrGraph::try_from_graph`], [`CoordinationGame::try_new`],
//! [`IsingGame::try_new`], [`BetaLadder::try_geometric`] /
//! [`BetaLadder::try_linear`], [`PipelineConfig::try_validate`] — sharing
//! the expensive derived artifacts through the content-addressed
//! [`ArtifactCache`]. Anything that survives `prepare` can run on the shared
//! pool without tripping a boundary `assert!`. Jobs run on the cached
//! artifacts by reference: the game holds an `Arc::clone` of the cached CSR
//! and a coloured schedule one of the cached colouring, so no job copies a
//! graph.
//!
//! [`run_prepared`] drives the job on the farm of a given [`Simulator`]
//! (the server's pool-sharing one), honouring a [`CancelToken`] in both job
//! modes; [`run_direct`] replays the same job on a *fresh* simulator the way
//! an offline user would. The two produce bit-identical [`StreamedResult`]s
//! — the service's reproducibility contract, enforced by the tests and the
//! bench gate. Both run every job kind through one generic runner, one arm
//! per selection schedule.

use crate::cache::{ArtifactCache, GameArtifacts};
use crate::error::AdmissionError;
use crate::job::{
    fnv1a, GameFamily, JobSpec, ModeKind, ObservableKind, RuleKind, ScheduleKind, StartKind,
    Topology,
};
use crate::protocol::{SeriesPoint, StreamedResult};
use logit_anneal::BetaLadder;
use logit_core::{
    coloring_for_graph, AllLogit, CancelToken, ColouredBlocks, DynamicsEngine, Logit,
    MetropolisLogit, NoisyBestResponse, PipelineConfig, PotentialObservable, ProfileObservable,
    SelectionSchedule, Simulator, StrategyFraction, SystematicSweep, TemperingEnsemble,
    UniformSingle, UpdateRule,
};
use logit_games::{
    CoordinationGame, GraphicalCoordinationGame, IsingGame, PotentialGame, PotentialTally,
};
use logit_graphs::{CsrGraph, GraphBuilder};
use logit_linalg::stats::RunningStats;
use std::sync::Arc;

/// A job that has passed both admission stages and holds its shared
/// artifacts.
pub struct PreparedJob {
    /// The validated description.
    pub spec: JobSpec,
    /// Cached derived artifacts of the game description.
    pub artifacts: Arc<GameArtifacts>,
    /// Realised β-ladder of a tempered job.
    pub betas: Option<Arc<Vec<f64>>>,
    /// Whether the artifacts came out of the cache.
    pub cache_hit: bool,
    /// The validated pipeline-farm configuration.
    pub config: PipelineConfig,
}

/// Builds every derived object the job needs, funnelling each library
/// boundary's typed error into [`AdmissionError`].
pub fn prepare(spec: JobSpec, cache: &ArtifactCache) -> Result<PreparedJob, AdmissionError> {
    // Game-level payoff validation first: it is independent of the
    // (possibly expensive) graph build.
    match spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            CoordinationGame::try_from_deltas(delta0, delta1)?;
        }
        GameFamily::Ising { coupling, field } => {
            // A three-vertex probe graph exercises the payoff checks
            // without building the real topology.
            IsingGame::try_new(GraphBuilder::path(3), coupling, field)?;
        }
    }

    let (artifacts, cache_hit) = cache
        .games
        .get_or_try_insert_with(spec.content_key(), || build_artifacts(&spec))?;

    let betas = match spec.mode {
        ModeKind::Pipelined { .. } => None,
        ModeKind::Tempered { ladder, .. } => {
            let key = fnv1a(
                format!(
                    "{} {} {} {}",
                    ladder.geometric,
                    crate::protocol::encode_f64(ladder.beta_min),
                    crate::protocol::encode_f64(ladder.beta_max),
                    ladder.rungs
                )
                .as_bytes(),
            );
            let (betas, _) = cache.ladders.get_or_try_insert_with(key, || {
                let ladder = if ladder.geometric {
                    BetaLadder::try_geometric(ladder.beta_min, ladder.beta_max, ladder.rungs)?
                } else {
                    BetaLadder::try_linear(ladder.beta_min, ladder.beta_max, ladder.rungs)?
                };
                Ok::<_, AdmissionError>(Arc::new(ladder.betas().to_vec()))
            })?;
            Some(betas)
        }
    };

    let mut config = PipelineConfig::default();
    if let Some(chunk_ticks) = spec.chunk_ticks {
        config.chunk_ticks = chunk_ticks;
    }
    if let Some(channel_capacity) = spec.channel_capacity {
        config.channel_capacity = channel_capacity;
    }
    // The boundary that used to be an `assert!` in the farm: a zero knob,
    // or a channel capacity above its limit, is a typed `pipeline:`
    // rejection.
    config.try_validate()?;

    Ok(PreparedJob {
        spec,
        artifacts,
        betas,
        cache_hit,
        config,
    })
}

/// Builds the derived artifacts of one game description (cache miss path):
/// the graph is built, frozen and coloured, then dropped.
fn build_artifacts(spec: &JobSpec) -> Result<Arc<GameArtifacts>, AdmissionError> {
    let graph = match spec.topology {
        Topology::Ring { n } => GraphBuilder::ring(n),
        Topology::Clique { n } => GraphBuilder::clique(n),
        Topology::Torus { rows, cols } => GraphBuilder::torus(rows, cols),
        Topology::Grid { rows, cols } => GraphBuilder::grid(rows, cols),
        Topology::Hypercube { dim } => GraphBuilder::hypercube(dim),
        Topology::Circulant { n, k } => GraphBuilder::circulant(n, k),
    };
    // The CSR u32-width boundary, as a typed error (unreachable under the
    // admission limits, but the farm must never see an unchecked graph).
    let csr = Arc::new(CsrGraph::try_from_graph(&graph)?);
    let coloring = Arc::new(coloring_for_graph(&graph));
    Ok(Arc::new(GameArtifacts { csr, coloring }))
}

/// Observable dispatch: a concrete `ProfileObservable` per
/// [`ObservableKind`], generic in the game so the potential observable can
/// hold it. It forwards the potential's tally, so `potential` jobs on the
/// graph games read every sample in `O(1)`; the fractions keep none.
enum JobObservable<G: PotentialGame> {
    Fraction(StrategyFraction),
    Potential(PotentialObservable<G>),
}

impl<G: PotentialGame> JobObservable<G> {
    fn new(kind: ObservableKind, game: &G) -> Self
    where
        G: Clone,
    {
        match kind {
            ObservableKind::Fraction0 => {
                JobObservable::Fraction(StrategyFraction::new(0, "fraction_0"))
            }
            ObservableKind::Fraction1 => {
                JobObservable::Fraction(StrategyFraction::new(1, "fraction_1"))
            }
            ObservableKind::Potential => {
                JobObservable::Potential(PotentialObservable::new(game.clone()))
            }
        }
    }
}

impl<G: PotentialGame> ProfileObservable for JobObservable<G> {
    fn evaluate_profile(&self, profile: &[usize]) -> f64 {
        match self {
            JobObservable::Fraction(o) => o.evaluate_profile(profile),
            JobObservable::Potential(o) => o.evaluate_profile(profile),
        }
    }
    fn name(&self) -> &str {
        match self {
            JobObservable::Fraction(o) => o.name(),
            JobObservable::Potential(o) => o.name(),
        }
    }
    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        match self {
            JobObservable::Fraction(o) => o.tally(profile),
            JobObservable::Potential(o) => o.tally(profile),
        }
    }
    fn retally(&self, tally: &mut PotentialTally, player: usize, old: usize, profile: &[usize]) {
        match self {
            JobObservable::Fraction(o) => o.retally(tally, player, old, profile),
            JobObservable::Potential(o) => o.retally(tally, player, old, profile),
        }
    }
    fn evaluate_tally(&self, tally: &PotentialTally) -> f64 {
        match self {
            JobObservable::Fraction(o) => o.evaluate_tally(tally),
            JobObservable::Potential(o) => o.evaluate_tally(tally),
        }
    }
}

fn start_profile(spec: &JobSpec) -> Vec<usize> {
    let n = spec.topology.num_players();
    match spec.start {
        StartKind::Zeros => vec![0; n],
        StartKind::Ones => vec![1; n],
    }
}

/// Packs one ensemble's series and final values into the wire-level result
/// (shared by the profile and tempered modes).
fn to_stream(
    name: String,
    times: &[u64],
    series: &[RunningStats],
    finals: Vec<f64>,
) -> StreamedResult {
    let points = times
        .iter()
        .zip(series)
        .map(|(&t, s)| SeriesPoint {
            t,
            count: s.count(),
            mean: s.mean(),
            variance: s.variance(),
            min: s.min(),
            max: s.max(),
        })
        .collect();
    StreamedResult {
        name,
        points,
        finals,
    }
}

/// Runs a prepared job on `sim` — the server's pool-sharing simulator —
/// on the farm, honouring `cancel`. Returns `None` when the job was
/// cancelled before completing.
///
/// Both modes check the token cooperatively: pipelined jobs at every
/// worker chunk boundary, tempered jobs before every tempering round, so a
/// cancel stops the run within one chunk or round. A cancel that lands
/// after execution has finished is left to the server's streaming loop.
pub fn run_prepared(
    sim: &Simulator,
    job: &PreparedJob,
    cancel: &CancelToken,
) -> Option<StreamedResult> {
    if cancel.is_cancelled() {
        return None;
    }
    dispatch_game(sim, job, Some(cancel))
}

/// Replays a prepared job the way an offline user would: a fresh
/// [`Simulator`] with the job's seed and replicas, no farm cancellation.
/// Bit-identical to the streamed result of [`run_prepared`] by the
/// pipelined ≡ sequential contract of the engines.
pub fn run_direct(job: &PreparedJob) -> StreamedResult {
    let sim = Simulator::new(job.spec.seed, job.spec.replicas);
    dispatch_game(&sim, job, None).expect("uncancelled direct runs always complete")
}

/// Builds the job's game on the cached CSR, then dispatches on its rule.
fn dispatch_game(
    sim: &Simulator,
    job: &PreparedJob,
    cancel: Option<&CancelToken>,
) -> Option<StreamedResult> {
    let csr = Arc::clone(&job.artifacts.csr);
    match job.spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            let base = CoordinationGame::try_from_deltas(delta0, delta1)
                .expect("payoffs were validated at admission");
            let game = GraphicalCoordinationGame::new(csr, base);
            dispatch_rule(sim, job, game, cancel)
        }
        GameFamily::Ising { coupling, field } => {
            let game = IsingGame::try_new(csr, coupling, field)
                .expect("payoffs were validated at admission");
            dispatch_rule(sim, job, game, cancel)
        }
    }
}

fn dispatch_rule<G>(
    sim: &Simulator,
    job: &PreparedJob,
    game: G,
    cancel: Option<&CancelToken>,
) -> Option<StreamedResult>
where
    G: PotentialGame + Clone + Send + Sync,
{
    match job.spec.rule {
        RuleKind::Logit => Runner { game, rule: Logit }.run(sim, job, cancel),
        RuleKind::Metropolis => Runner {
            game,
            rule: MetropolisLogit,
        }
        .run(sim, job, cancel),
        RuleKind::Nbr { noise } => Runner {
            game,
            rule: NoisyBestResponse::new(noise),
        }
        .run(sim, job, cancel),
    }
}

/// A fully monomorphised job: game and rule chosen.
struct Runner<G, U> {
    game: G,
    rule: U,
}

impl<G, U> Runner<G, U>
where
    G: PotentialGame + Clone + Send + Sync,
    U: UpdateRule + Clone,
{
    fn run(
        &self,
        sim: &Simulator,
        job: &PreparedJob,
        cancel: Option<&CancelToken>,
    ) -> Option<StreamedResult> {
        match job.spec.schedule {
            ScheduleKind::Uniform => self.run_schedule(sim, job, &UniformSingle, cancel),
            ScheduleKind::Sweep => self.run_schedule(sim, job, &SystematicSweep, cancel),
            ScheduleKind::All => self.run_schedule(sim, job, &AllLogit, cancel),
            ScheduleKind::Coloured => {
                let schedule = ColouredBlocks::new(Arc::clone(&job.artifacts.coloring));
                self.run_schedule(sim, job, &schedule, cancel)
            }
        }
    }

    /// Runs the job under `schedule` in either mode. With a token the job
    /// runs on the farm; without one (the [`run_direct`] replay) a
    /// pipelined job runs the *sequential* engine instead — the service's
    /// reproducibility gate leans on the pipelined ≡ sequential
    /// bit-identity contract rather than re-running the farm.
    fn run_schedule<S: SelectionSchedule>(
        &self,
        sim: &Simulator,
        job: &PreparedJob,
        schedule: &S,
        cancel: Option<&CancelToken>,
    ) -> Option<StreamedResult> {
        let spec = &job.spec;
        let observable = JobObservable::new(spec.observable, &self.game);
        let start = start_profile(spec);
        match spec.mode {
            ModeKind::Pipelined { beta, steps } => {
                let dynamics =
                    DynamicsEngine::with_rule(self.game.clone(), self.rule.clone(), beta);
                let r = match cancel {
                    Some(_) => sim.run_profiles_pipelined(
                        &dynamics,
                        schedule,
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                        &job.config,
                        cancel,
                    )?,
                    None => sim.run_profiles(
                        &dynamics,
                        schedule,
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                    ),
                };
                Some(to_stream(r.name, &r.times, &r.series, r.final_values))
            }
            ModeKind::Tempered {
                rounds,
                sweep_ticks,
                ..
            } => {
                let betas = job
                    .betas
                    .as_ref()
                    .expect("tempered jobs carry their ladder");
                let ensemble =
                    TemperingEnsemble::new(self.game.clone(), self.rule.clone(), betas.as_slice());
                let r = sim.run_tempered(
                    &ensemble,
                    schedule,
                    &start,
                    rounds,
                    sweep_ticks,
                    spec.sample_every,
                    &observable,
                    &job.config,
                    cancel,
                )?;
                Some(to_stream(r.name, &r.times, &r.series, r.final_values))
            }
        }
    }
}
