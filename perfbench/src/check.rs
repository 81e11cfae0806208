//! The correctness check and the per-job update counts.
//!
//! After the timed window, jobs are replayed through `run_direct` and the
//! replay's `wire_text` must match the streamed result byte for byte. The
//! replays admit through their own `ArtifactCache`, created only here —
//! after the server's counters were read — because the registry's
//! `server.cache.*` series merges every cache instance in the process.

use crate::gen::SplitMix;
use crate::record::{JobRecord, WindowRun};
use logit_core::{CancelToken, Simulator};
use logit_server::{
    prepare, run_direct, run_prepared, ArtifactCache, JobSpec, ModeKind, PreparedJob, ScheduleKind,
    ServerConfig, StreamedResult,
};
use std::time::Instant;

/// Job kinds, the `.<kind>` suffix of the per-kind layer metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Uniform,
    Sweep,
    All,
    Coloured,
    Tempered,
}

pub const KINDS: [Kind; 5] = [
    Kind::Uniform,
    Kind::Sweep,
    Kind::All,
    Kind::Coloured,
    Kind::Tempered,
];

impl Kind {
    pub fn of(spec: &JobSpec) -> Kind {
        match (spec.mode, spec.schedule) {
            (ModeKind::Tempered { .. }, _) => Kind::Tempered,
            (_, ScheduleKind::Uniform) => Kind::Uniform,
            (_, ScheduleKind::Sweep) => Kind::Sweep,
            (_, ScheduleKind::All) => Kind::All,
            (_, ScheduleKind::Coloured) => Kind::Coloured,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Uniform => "uniform",
            Kind::Sweep => "sweep",
            Kind::All => "all",
            Kind::Coloured => "coloured",
            Kind::Tempered => "tempered",
        }
    }
}

/// Player revisions a job performs, from its description and prepared
/// colouring: uniform and sweep ticks revise one player, all-logit ticks
/// all `n`, coloured ticks one colour class (classes in round-robin).
/// Pipelined jobs multiply by replicas; tempered jobs run `rounds ×
/// sweep_ticks` ticks on each of `rungs` chains of each of `replicas`
/// ensembles.
pub fn updates(job: &PreparedJob) -> u64 {
    let spec = &job.spec;
    let n = spec.topology.num_players() as u64;
    let per_chain = |ticks: u64| match spec.schedule {
        ScheduleKind::Uniform | ScheduleKind::Sweep => ticks,
        ScheduleKind::All => ticks * n,
        ScheduleKind::Coloured => {
            let coloring = &job.artifacts.coloring;
            let classes = coloring.num_classes() as u64;
            let partial: u64 = (0..(ticks % classes) as usize)
                .map(|c| coloring.class(c).len() as u64)
                .sum();
            ticks / classes * n + partial
        }
    };
    let replicas = spec.replicas as u64;
    match spec.mode {
        ModeKind::Pipelined { steps, .. } => per_chain(steps) * replicas,
        ModeKind::Tempered {
            ladder,
            rounds,
            sweep_ticks,
        } => per_chain(rounds * sweep_ticks) * ladder.rungs as u64 * replicas,
    }
}

/// Which completed jobs to replay.
pub enum Replay {
    /// Every job.
    All,
    /// This many jobs of every kind, chosen from the seed.
    PerKind(usize),
}

/// What the check learnt about one record.
pub struct JobInfo {
    pub kind: Option<Kind>,
    pub updates: u64,
    /// `run_direct` seconds, for replayed jobs.
    pub direct_s: Option<f64>,
    /// `run_prepared` seconds: the window's own time on the offline path,
    /// a timed re-run on a pool-sharing simulator (the executor's path)
    /// for replayed server jobs when `time_prepared` is set.
    pub prepared_s: Option<f64>,
}

pub struct Check {
    pub infos: Vec<JobInfo>,
    pub mismatches: Vec<String>,
    pub replayed: usize,
}

fn replay_set(
    records: &[JobRecord],
    kinds: &[Option<Kind>],
    plan: &Replay,
    seed: u64,
) -> Vec<bool> {
    let done = |i: usize| records[i].done() && kinds[i].is_some();
    match *plan {
        Replay::All => (0..records.len()).map(done).collect(),
        Replay::PerKind(per_kind) => {
            let mut chosen = vec![false; records.len()];
            for (k, kind) in KINDS.iter().enumerate() {
                let candidates: Vec<usize> = (0..records.len())
                    .filter(|&i| done(i) && kinds[i] == Some(*kind))
                    .collect();
                let mut rng = SplitMix::keyed(seed, 0x40, k as u64);
                let order = rng.permutation(candidates.len());
                for &pick in order.iter().take(per_kind) {
                    chosen[candidates[pick]] = true;
                }
            }
            chosen
        }
    }
}

fn compare(
    what: &str,
    record: &JobRecord,
    streamed: &StreamedResult,
    replay: &StreamedResult,
) -> Option<String> {
    (streamed.wire_text() != replay.wire_text()).then(|| {
        format!(
            "{what} of job {}/{} differs from the streamed result",
            record.stream, record.index
        )
    })
}

pub fn check(run: &WindowRun, plan: Replay, time_prepared: bool, seed: u64) -> Check {
    let specs: Vec<Option<JobSpec>> = run
        .records
        .iter()
        .map(|r| JobSpec::parse(&r.job.text).ok())
        .collect();
    let kinds: Vec<Option<Kind>> = specs.iter().map(|s| s.as_ref().map(Kind::of)).collect();
    let chosen = replay_set(&run.records, &kinds, &plan, seed);

    let cache = ArtifactCache::new(ServerConfig::default().cache_capacity);
    let base = Simulator::new(0, 1);
    let mut mismatches = Vec::new();
    let mut replayed = 0;
    let mut infos = Vec::with_capacity(run.records.len());
    for (i, record) in run.records.iter().enumerate() {
        let mut info = JobInfo {
            kind: kinds[i],
            updates: 0,
            direct_s: None,
            prepared_s: record.stages.map(|s| s.exec_s),
        };
        let (crate::client::Outcome::Done(streamed), Some(spec)) = (&record.outcome, &specs[i])
        else {
            infos.push(info);
            continue;
        };
        let job = match prepare(spec.clone(), &cache) {
            Ok(job) => job,
            Err(e) => {
                mismatches.push(format!("replay admission of job {i} failed: {e}"));
                infos.push(info);
                continue;
            }
        };
        info.updates = updates(&job);
        if chosen[i] {
            replayed += 1;
            let started = Instant::now();
            let direct = run_direct(&job);
            info.direct_s = Some(started.elapsed().as_secs_f64());
            mismatches.extend(compare("run_direct replay", record, streamed, &direct));
            if time_prepared {
                let sim = base.reseeded(job.spec.seed, job.spec.replicas);
                let started = Instant::now();
                match run_prepared(&sim, &job, &CancelToken::new()) {
                    Some(again) => {
                        info.prepared_s = Some(started.elapsed().as_secs_f64());
                        mismatches.extend(compare("run_prepared re-run", record, streamed, &again));
                    }
                    None => mismatches.push(format!("re-run of job {i} was cancelled")),
                }
            }
        }
        infos.push(info);
    }
    Check {
        infos,
        mismatches,
        replayed,
    }
}
