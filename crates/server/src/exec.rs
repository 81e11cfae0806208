//! Admission (prepare) and execution (dispatch) of validated jobs.
//!
//! [`prepare`] is the second admission stage: it materialises the game
//! description through the library crates' fallible `try_*` constructors —
//! [`Topology::try_csr`](logit_graphs::Topology::try_csr) (the topology's
//! CSR rows, written directly: admission never builds a `Graph`),
//! [`CoordinationGame::try_new`], [`IsingGame::try_new`],
//! [`BetaLadder::try_geometric`] / [`BetaLadder::try_linear`] — sharing
//! the expensive derived artifacts through the
//! [`ArtifactCache`], keyed by the topology alone. Anything that survives
//! `prepare` can run on the shared pool without tripping a boundary
//! `assert!`. Jobs run on the cached artifacts by reference: the game holds
//! an `Arc::clone` of the cached CSR and a coloured schedule one of the
//! cached colouring, so no job copies a graph.
//!
//! A job runs as a resumable [`ProfileRun`] or [`TemperedRun`], one
//! segment at a time: the server's executor interleaves its jobs that way,
//! and [`run_prepared`] drives one job to completion on a given
//! [`Simulator`] (the server's pool-sharing one), checking a
//! [`CancelToken`] before every segment. [`run_direct`] replays the same
//! job on a *fresh* simulator the way an offline user would, on the
//! sequential engine for profile jobs. The two produce bit-identical
//! [`StreamedResult`]s — the service's reproducibility contract, enforced
//! by the tests and the bench gate. Both reach every job kind through one
//! generic dispatch, one arm per game, rule and selection schedule.

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
    MetropolisLogit, NoisyBestResponse, PotentialObservable, ProfileObservable, ProfileRun,
    SelectionSchedule, Simulator, StrategyFraction, SystematicSweep, TemperedRun,
    TemperingEnsemble, UniformSingle, UpdateRule,
};
use logit_games::{
    CoordinationGame, CountKernel, GraphicalCoordinationGame, IsingGame, PotentialGame,
    PotentialTally,
};
use logit_linalg::stats::RunningStats;
use std::ops::Range;
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
            let probe = logit_graphs::Topology::Ring { n: 3 }.try_csr()?;
            IsingGame::try_new(probe, coupling, field)?;
        }
    }

    let (artifacts, cache_hit) = cache
        .games
        .get_or_try_insert_with(spec.topology_key(), || build_artifacts(spec.topology))?;

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

    Ok(PreparedJob {
        spec,
        artifacts,
        betas,
        cache_hit,
    })
}

/// Builds the derived artifacts of one topology (cache miss path): its
/// CSR rows, written directly, and their colouring.
fn build_artifacts(topology: Topology) -> Result<Arc<GameArtifacts>, AdmissionError> {
    // The CSR u32-width boundary, as a typed error checked from the
    // topology's counts before anything is allocated (unreachable under
    // the admission limits, but the farm must never see an unchecked
    // graph).
    let csr = topology.rows().try_csr()?;
    let coloring = Arc::new(coloring_for_graph(&csr));
    Ok(Arc::new(GameArtifacts {
        csr: Arc::new(csr),
        coloring,
    }))
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
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        match self {
            JobObservable::Fraction(o) => o.count_kernel(),
            JobObservable::Potential(o) => o.count_kernel(),
        }
    }
    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        match self {
            JobObservable::Fraction(o) => o.retally(tally, old, degree, ones),
            JobObservable::Potential(o) => o.retally(tally, old, degree, ones),
        }
    }
    fn evaluate_tally(&self, tally: &PotentialTally) -> f64 {
        match self {
            JobObservable::Fraction(o) => o.evaluate_tally(tally),
            JobObservable::Potential(o) => o.evaluate_tally(tally),
        }
    }
}

/// The job's start profile, over a spare buffer of the engine's: the run
/// it is handed to gives it back when the run drops.
fn start_profile(spec: &JobSpec) -> Vec<usize> {
    let strategy = match spec.start {
        StartKind::Zeros => 0,
        StartKind::Ones => 1,
    };
    logit_core::spare::profile(spec.topology.num_players(), strategy)
}

/// The wire points of recorded times `completed` (shared by the profile
/// and tempered modes).
fn points(times: &[u64], series: &[RunningStats], completed: Range<usize>) -> Vec<SeriesPoint> {
    completed
        .map(|k| {
            let s = &series[k];
            SeriesPoint {
                t: times[k],
                count: s.count(),
                mean: s.mean(),
                variance: s.variance(),
                min: s.min(),
                max: s.max(),
            }
        })
        .collect()
}

/// A started job, resumable one segment at a time: what the server's
/// executor interleaves.
pub(crate) trait JobRun: Send {
    /// Runs one segment and returns the points of the recorded times it
    /// completed, in order.
    fn segment(&mut self) -> Vec<SeriesPoint>;

    /// Whether every replica has run to the end.
    fn is_done(&self) -> bool;

    /// Player updates left to run.
    fn remaining_updates(&self) -> u64;

    /// The observable's name and every replica's final value.
    fn finish(self: Box<Self>) -> (String, Vec<f64>);
}

/// A profile job: its engine, schedule and observable, and its run.
struct ProfileJob<G: PotentialGame, U: UpdateRule, S> {
    dynamics: DynamicsEngine<G, U>,
    schedule: S,
    observable: JobObservable<G>,
    run: ProfileRun,
}

impl<G, U, S> JobRun for ProfileJob<G, U, S>
where
    G: PotentialGame + Send + Sync,
    U: UpdateRule,
    S: SelectionSchedule,
{
    fn segment(&mut self) -> Vec<SeriesPoint> {
        let completed = self
            .run
            .segment(&self.dynamics, &self.schedule, &self.observable);
        points(self.run.times(), self.run.series(), completed)
    }

    fn is_done(&self) -> bool {
        self.run.is_done()
    }

    fn remaining_updates(&self) -> u64 {
        let n = self.dynamics.game().num_players();
        self.run.remaining_updates(&self.schedule, n)
    }

    fn finish(self: Box<Self>) -> (String, Vec<f64>) {
        let result = self.run.finish();
        (result.name, result.final_values)
    }
}

/// A tempered job: its ladder, schedule and observable, and its run.
struct TemperedJob<G: PotentialGame, U: UpdateRule, S> {
    ensemble: TemperingEnsemble<G, U>,
    schedule: S,
    observable: JobObservable<G>,
    run: TemperedRun,
}

impl<G, U, S> JobRun for TemperedJob<G, U, S>
where
    G: PotentialGame + Send + Sync,
    U: UpdateRule,
    S: SelectionSchedule,
{
    fn segment(&mut self) -> Vec<SeriesPoint> {
        let completed = self
            .run
            .segment(&self.ensemble, &self.schedule, &self.observable);
        points(self.run.times(), self.run.series(), completed)
    }

    fn is_done(&self) -> bool {
        self.run.is_done()
    }

    fn remaining_updates(&self) -> u64 {
        let n = self.ensemble.game().num_players();
        self.run.remaining_updates(&self.schedule, n)
    }

    fn finish(self: Box<Self>) -> (String, Vec<f64>) {
        let result = self.run.finish();
        (result.name, result.final_values)
    }
}

/// Starts a prepared job on `sim` — the server's pool-sharing simulator,
/// reseeded with the job's seed and replicas: builds its engine and run,
/// but no replica (the first segment does).
pub(crate) fn start(sim: &Simulator, job: &PreparedJob) -> Box<dyn JobRun> {
    dispatch(job, Start { sim })
}

/// Runs a prepared job on `sim` — the server's pool-sharing simulator —
/// one segment after another, checking `cancel` before every segment.
/// Returns `None` when the job was cancelled before completing.
pub fn run_prepared(
    sim: &Simulator,
    job: &PreparedJob,
    cancel: &CancelToken,
) -> Option<StreamedResult> {
    let mut run = start(sim, job);
    let mut points = Vec::new();
    while !run.is_done() {
        if cancel.is_cancelled() {
            return None;
        }
        points.extend(run.segment());
    }
    if cancel.is_cancelled() {
        return None;
    }
    let (name, finals) = run.finish();
    Some(StreamedResult {
        name,
        points,
        finals,
    })
}

/// Replays a prepared job the way an offline user would: a fresh
/// [`Simulator`] with the job's seed and replicas, no cancellation, and
/// the *sequential* engine for profile jobs
/// ([`Simulator::run_profiles`]); tempered jobs run
/// [`Simulator::run_tempered`]. Bit-identical to the streamed result of
/// [`run_prepared`] by the farmed ≡ sequential contract of the engines.
pub fn run_direct(job: &PreparedJob) -> StreamedResult {
    dispatch(
        job,
        Direct {
            sim: Simulator::new(job.spec.seed, job.spec.replicas),
        },
    )
}

/// What to do with a fully monomorphised job: game, rule and schedule
/// chosen.
trait Visit {
    type Out;
    fn visit<G, U, S>(self, job: &PreparedJob, game: G, rule: U, schedule: S) -> Self::Out
    where
        G: PotentialGame + Clone + Send + Sync + 'static,
        U: UpdateRule + Clone + 'static,
        S: SelectionSchedule + 'static;
}

/// Builds the job's game on the cached CSR, then its rule and schedule.
fn dispatch<V: Visit>(job: &PreparedJob, visit: V) -> V::Out {
    let csr = Arc::clone(&job.artifacts.csr);
    match job.spec.game {
        GameFamily::Graphical { delta0, delta1 } => {
            let base = CoordinationGame::try_from_deltas(delta0, delta1)
                .expect("payoffs were validated at admission");
            dispatch_rule(job, GraphicalCoordinationGame::new(csr, base), visit)
        }
        GameFamily::Ising { coupling, field } => {
            let game = IsingGame::try_new(csr, coupling, field)
                .expect("payoffs were validated at admission");
            dispatch_rule(job, game, visit)
        }
    }
}

fn dispatch_rule<G, V>(job: &PreparedJob, game: G, visit: V) -> V::Out
where
    G: PotentialGame + Clone + Send + Sync + 'static,
    V: Visit,
{
    match job.spec.rule {
        RuleKind::Logit => dispatch_schedule(job, game, Logit, visit),
        RuleKind::Metropolis => dispatch_schedule(job, game, MetropolisLogit, visit),
        RuleKind::Nbr { noise } => {
            dispatch_schedule(job, game, NoisyBestResponse::new(noise), visit)
        }
    }
}

fn dispatch_schedule<G, U, V>(job: &PreparedJob, game: G, rule: U, visit: V) -> V::Out
where
    G: PotentialGame + Clone + Send + Sync + 'static,
    U: UpdateRule + Clone + 'static,
    V: Visit,
{
    match job.spec.schedule {
        ScheduleKind::Uniform => visit.visit(job, game, rule, UniformSingle),
        ScheduleKind::Sweep => visit.visit(job, game, rule, SystematicSweep),
        ScheduleKind::All => visit.visit(job, game, rule, AllLogit),
        ScheduleKind::Coloured => {
            let schedule = ColouredBlocks::new(Arc::clone(&job.artifacts.coloring));
            visit.visit(job, game, rule, schedule)
        }
    }
}

/// The job's β-ladder as an ensemble of rungs sharing its game.
fn tempering_ensemble<G, U>(job: &PreparedJob, game: G, rule: U) -> TemperingEnsemble<G, U>
where
    G: PotentialGame,
    U: UpdateRule,
{
    let betas = job
        .betas
        .as_ref()
        .expect("tempered jobs carry their ladder");
    TemperingEnsemble::new(game, rule, betas.as_slice())
}

/// Visits into a started, resumable job.
struct Start<'a> {
    sim: &'a Simulator,
}

impl Visit for Start<'_> {
    type Out = Box<dyn JobRun>;

    fn visit<G, U, S>(self, job: &PreparedJob, game: G, rule: U, schedule: S) -> Box<dyn JobRun>
    where
        G: PotentialGame + Clone + Send + Sync + 'static,
        U: UpdateRule + Clone + 'static,
        S: SelectionSchedule + 'static,
    {
        let spec = &job.spec;
        let observable = JobObservable::new(spec.observable, &game);
        let start = start_profile(spec);
        match spec.mode {
            ModeKind::Pipelined { beta, steps } => {
                let dynamics = DynamicsEngine::with_rule(game, rule, beta);
                let run = ProfileRun::new(
                    self.sim,
                    &dynamics,
                    start,
                    steps,
                    spec.sample_every,
                    &observable,
                );
                Box::new(ProfileJob {
                    dynamics,
                    schedule,
                    observable,
                    run,
                })
            }
            ModeKind::Tempered {
                rounds,
                sweep_ticks,
                ..
            } => {
                let ensemble = tempering_ensemble(job, game, rule);
                let run = TemperedRun::new(
                    self.sim,
                    &ensemble,
                    start,
                    rounds,
                    sweep_ticks,
                    spec.sample_every,
                    &observable,
                );
                Box::new(TemperedJob {
                    ensemble,
                    schedule,
                    observable,
                    run,
                })
            }
        }
    }
}

/// Visits into the offline replay of a job.
struct Direct {
    sim: Simulator,
}

impl Visit for Direct {
    type Out = StreamedResult;

    fn visit<G, U, S>(self, job: &PreparedJob, game: G, rule: U, schedule: S) -> StreamedResult
    where
        G: PotentialGame + Clone + Send + Sync + 'static,
        U: UpdateRule + Clone + 'static,
        S: SelectionSchedule + 'static,
    {
        let spec = &job.spec;
        let observable = JobObservable::new(spec.observable, &game);
        let start = start_profile(spec);
        let (name, times, series, finals) = match spec.mode {
            ModeKind::Pipelined { beta, steps } => {
                let dynamics = DynamicsEngine::with_rule(game, rule, beta);
                let r = self.sim.run_profiles(
                    &dynamics,
                    &schedule,
                    &start,
                    steps,
                    spec.sample_every,
                    &observable,
                );
                (r.name, r.times, r.series, r.final_values)
            }
            ModeKind::Tempered {
                rounds,
                sweep_ticks,
                ..
            } => {
                let ensemble = tempering_ensemble(job, game, rule);
                let r = self
                    .sim
                    .run_tempered(
                        &ensemble,
                        &schedule,
                        &start,
                        rounds,
                        sweep_ticks,
                        spec.sample_every,
                        &observable,
                        None,
                    )
                    .expect("uncancelled direct runs always complete");
                (r.name, r.times, r.series, r.final_values)
            }
        };
        StreamedResult {
            name,
            points: points(&times, &series, 0..times.len()),
            finals,
        }
    }
}
