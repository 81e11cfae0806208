//! Admission (prepare) and execution (dispatch) of validated jobs.
//!
//! [`prepare`] is the second admission stage: it materialises the game
//! description through the library crates' fallible `try_*` constructors —
//! [`CsrGraph::try_from_graph`], [`CoordinationGame::try_new`],
//! [`IsingGame::try_new`], [`BetaLadder::try_*`],
//! [`PipelineConfig::try_validate`] — sharing the expensive derived
//! artifacts through the content-addressed [`ArtifactCache`]. Anything that
//! survives `prepare` can run on the shared pool without tripping a
//! boundary `assert!`.
//!
//! [`run_prepared`] drives the job on a given [`Simulator`] (the server's
//! pool-sharing one), honouring a [`CancelToken`]; [`run_direct`] replays
//! the same job on a *fresh* simulator the way an offline user would. The
//! two produce bit-identical [`StreamedResult`]s — the service's
//! reproducibility contract, enforced by the tests and the bench gate.

use crate::cache::{ArtifactCache, GameArtifacts};
use crate::error::AdmissionError;
use crate::job::{
    fnv1a, GameFamily, JobSpec, ModeKind, ObservableKind, RuleKind, ScheduleKind, StartKind,
    Topology,
};
use crate::protocol::{SeriesPoint, StreamedResult};
use logit_anneal::BetaLadder;
use logit_core::{
    coloring_for_graph, AllLogit, CancelToken, ColouredBlocks, DynamicsEngine, LocalityLayout,
    Logit, MetropolisLogit, NoisyBestResponse, PipelineConfig, PotentialObservable,
    ProfileEnsembleResult, ProfileObservable, SelectionSchedule, Simulator, StrategyFraction,
    SystematicSweep, TemperedEnsembleResult, TemperingEnsemble, UpdateRule,
};
use logit_games::{CoordinationGame, GraphicalCoordinationGame, IsingGame, PotentialGame};
use logit_graphs::{CsrGraph, GraphBuilder};
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
    // The boundary that used to be an `assert!` in the farm: a zero knob
    // is now a typed `pipeline:` rejection.
    config.try_validate()?;

    Ok(PreparedJob {
        spec,
        artifacts,
        betas,
        cache_hit,
        config,
    })
}

/// Builds the derived artifacts of one game description (cache miss path).
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
    CsrGraph::try_from_graph(&graph)?;
    let coloring = coloring_for_graph(&graph);
    let (layout, _) = match spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            let base = CoordinationGame::try_from_deltas(delta0, delta1)?;
            LocalityLayout::for_game(&GraphicalCoordinationGame::new(graph.clone(), base))
        }
        GameFamily::Ising { coupling, field } => {
            LocalityLayout::for_game(&IsingGame::try_new(graph.clone(), coupling, field)?)
        }
    };
    let bandwidth = (layout.bandwidth_before(), layout.bandwidth_after());
    Ok(Arc::new(GameArtifacts {
        graph,
        coloring,
        layout,
        bandwidth,
    }))
}

/// Observable dispatch: a concrete `ProfileObservable` per
/// [`ObservableKind`], generic in the game so the potential observable can
/// hold it.
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
}

fn start_profile(spec: &JobSpec) -> Vec<usize> {
    let n = spec.topology.num_players();
    match spec.start {
        StartKind::Zeros => vec![0; n],
        StartKind::Ones => vec![1; n],
    }
}

fn profile_result_to_stream(r: ProfileEnsembleResult) -> StreamedResult {
    let points = r
        .times
        .iter()
        .zip(r.series.iter())
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
        name: r.name,
        points,
        finals: r.final_values,
    }
}

fn tempered_result_to_stream(r: TemperedEnsembleResult) -> StreamedResult {
    let points = r
        .times
        .iter()
        .zip(r.series.iter())
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
        name: r.name,
        points,
        finals: r.final_values,
    }
}

/// Runs a prepared job on `sim` — the server's pool-sharing simulator —
/// honouring `cancel`. Returns `None` when the job was cancelled before
/// completing.
///
/// Pipelined jobs check the token at every worker chunk boundary (the
/// farm's cooperative granularity). Tempered jobs check it only before the
/// run starts — the tempering loop has no cancellation seam — so a
/// mid-run cancel of a tempered job takes effect when the result is
/// streamed, not during the sweep.
pub fn run_prepared(
    sim: &Simulator,
    job: &PreparedJob,
    cancel: &CancelToken,
) -> Option<StreamedResult> {
    if cancel.is_cancelled() {
        return None;
    }
    dispatch_game(job, &mut |runner| runner.run(sim, job, Some(cancel)))
}

/// Replays a prepared job the way an offline user would: a fresh
/// [`Simulator`] with the job's seed and replicas, no farm cancellation.
/// Bit-identical to the streamed result of [`run_prepared`] by the
/// pipelined ≡ sequential contract of the engines.
pub fn run_direct(job: &PreparedJob) -> StreamedResult {
    let sim = Simulator::new(job.spec.seed, job.spec.replicas);
    dispatch_game(job, &mut |runner| runner.run(&sim, job, None))
        .expect("uncancelled direct runs always complete")
}

/// A fully monomorphised runnable job: game, rule and engine chosen.
trait RunnableJob {
    fn run(
        &self,
        sim: &Simulator,
        job: &PreparedJob,
        cancel: Option<&CancelToken>,
    ) -> Option<StreamedResult>;
}

struct Runner<G: PotentialGame + Clone, U: UpdateRule + Clone> {
    game: G,
    rule: U,
}

fn dispatch_game(
    job: &PreparedJob,
    f: &mut dyn FnMut(&dyn RunnableJob) -> Option<StreamedResult>,
) -> Option<StreamedResult> {
    let graph = job.artifacts.graph.clone();
    match job.spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            let base = CoordinationGame::try_from_deltas(delta0, delta1)
                .expect("payoffs were validated at admission");
            let game = GraphicalCoordinationGame::new(graph, base);
            dispatch_rule(job, game, f)
        }
        GameFamily::Ising { coupling, field } => {
            let game = IsingGame::try_new(graph, coupling, field)
                .expect("payoffs were validated at admission");
            dispatch_rule(job, game, f)
        }
    }
}

fn dispatch_rule<G>(
    job: &PreparedJob,
    game: G,
    f: &mut dyn FnMut(&dyn RunnableJob) -> Option<StreamedResult>,
) -> Option<StreamedResult>
where
    G: PotentialGame + Clone + Send + Sync + 'static,
{
    match job.spec.rule {
        RuleKind::Logit => f(&Runner { game, rule: Logit }),
        RuleKind::Metropolis => f(&Runner {
            game,
            rule: MetropolisLogit,
        }),
        RuleKind::Nbr { noise } => f(&Runner {
            game,
            rule: NoisyBestResponse::new(noise),
        }),
    }
}

impl<G, U> RunnableJob for Runner<G, U>
where
    G: PotentialGame + Clone + Send + Sync + 'static,
    U: UpdateRule + Clone,
{
    fn run(
        &self,
        sim: &Simulator,
        job: &PreparedJob,
        cancel: Option<&CancelToken>,
    ) -> Option<StreamedResult> {
        let spec = &job.spec;
        let observable = JobObservable::new(spec.observable, &self.game);
        let start = start_profile(spec);
        match spec.mode {
            ModeKind::Pipelined { beta, steps } => {
                let dynamics =
                    DynamicsEngine::with_rule(self.game.clone(), self.rule.clone(), beta);
                let result = match spec.schedule {
                    ScheduleKind::Uniform => run_pipelined_uniform(
                        sim,
                        &dynamics,
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                        job,
                        cancel,
                    ),
                    ScheduleKind::Sweep => run_pipelined_scheduled(
                        sim,
                        &dynamics,
                        &SystematicSweep,
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                        job,
                        cancel,
                    ),
                    ScheduleKind::All => run_pipelined_scheduled(
                        sim,
                        &dynamics,
                        &AllLogit,
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                        job,
                        cancel,
                    ),
                    ScheduleKind::Coloured => run_pipelined_scheduled(
                        sim,
                        &dynamics,
                        &ColouredBlocks::new(job.artifacts.coloring.clone()),
                        &start,
                        steps,
                        spec.sample_every,
                        &observable,
                        job,
                        cancel,
                    ),
                };
                result.map(profile_result_to_stream)
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
                let result = match spec.schedule {
                    ScheduleKind::Uniform => run_tempered_scheduled(
                        sim,
                        &ensemble,
                        &logit_core::UniformSingle,
                        &start,
                        rounds,
                        sweep_ticks,
                        spec.sample_every,
                        &observable,
                        &job.config,
                    ),
                    ScheduleKind::Sweep => run_tempered_scheduled(
                        sim,
                        &ensemble,
                        &SystematicSweep,
                        &start,
                        rounds,
                        sweep_ticks,
                        spec.sample_every,
                        &observable,
                        &job.config,
                    ),
                    ScheduleKind::All => run_tempered_scheduled(
                        sim,
                        &ensemble,
                        &AllLogit,
                        &start,
                        rounds,
                        sweep_ticks,
                        spec.sample_every,
                        &observable,
                        &job.config,
                    ),
                    ScheduleKind::Coloured => run_tempered_scheduled(
                        sim,
                        &ensemble,
                        &ColouredBlocks::new(job.artifacts.coloring.clone()),
                        &start,
                        rounds,
                        sweep_ticks,
                        spec.sample_every,
                        &observable,
                        &job.config,
                    ),
                };
                Some(tempered_result_to_stream(result))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pipelined_uniform<G, U, O>(
    sim: &Simulator,
    dynamics: &DynamicsEngine<G, U>,
    start: &[usize],
    steps: u64,
    sample_every: u64,
    observable: &O,
    job: &PreparedJob,
    cancel: Option<&CancelToken>,
) -> Option<ProfileEnsembleResult>
where
    G: logit_games::Game + Sync,
    U: UpdateRule,
    O: ProfileObservable + Sync,
{
    match cancel {
        Some(token) => sim.run_profiles_pipelined_cancellable_with(
            dynamics,
            start,
            steps,
            sample_every,
            observable,
            &job.config,
            token,
        ),
        // The direct path is the *sequential* engine: the service's
        // reproducibility gate leans on the pipelined ≡ sequential
        // bit-identity contract rather than re-running the farm.
        None => Some(sim.run_profiles(dynamics, start, steps, sample_every, observable)),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pipelined_scheduled<G, U, S, O>(
    sim: &Simulator,
    dynamics: &DynamicsEngine<G, U>,
    schedule: &S,
    start: &[usize],
    steps: u64,
    sample_every: u64,
    observable: &O,
    job: &PreparedJob,
    cancel: Option<&CancelToken>,
) -> Option<ProfileEnsembleResult>
where
    G: logit_games::Game + Sync,
    U: UpdateRule,
    S: SelectionSchedule,
    O: ProfileObservable + Sync,
{
    match cancel {
        Some(token) => sim.run_profiles_scheduled_pipelined_cancellable_with(
            dynamics,
            start,
            steps,
            sample_every,
            observable,
            schedule,
            &job.config,
            token,
        ),
        None => Some(sim.run_profiles_scheduled(
            dynamics,
            schedule,
            start,
            steps,
            sample_every,
            observable,
        )),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_tempered_scheduled<G, U, S, O>(
    sim: &Simulator,
    ensemble: &TemperingEnsemble<G, U>,
    schedule: &S,
    start: &[usize],
    rounds: u64,
    sweep_ticks: u64,
    sample_every: u64,
    observable: &O,
    config: &PipelineConfig,
) -> TemperedEnsembleResult
where
    G: PotentialGame + Send + Sync,
    U: UpdateRule,
    S: SelectionSchedule,
    O: ProfileObservable + Sync,
{
    sim.run_tempered_with(
        ensemble,
        schedule,
        start,
        rounds,
        sweep_ticks,
        sample_every,
        observable,
        config,
    )
}
