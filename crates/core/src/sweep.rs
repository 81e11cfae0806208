//! Parallel parameter sweeps.
//!
//! Every experiment table is a sweep over β (and sometimes n or the topology)
//! of the measured mixing/relaxation time alongside the paper's bound. The
//! exact sweeps parallelise over the parameter grid on a [`WorkerPool`] sized
//! by [`RuntimeConfig::from_env`] — each grid point is an independent exact
//! computation, claimed as one chunk — which is where the multi-core speedup
//! of the harness comes from. The profile sweeps run one
//! [`Simulator::run_profiles`] ensemble per grid point, which fans its
//! replicas out on the simulator's pool instead.

use crate::estimate::{exact_mixing_time, exact_mixing_time_with_rule, MixingMeasurement};
use crate::observables::ProfileObservable;
use crate::rules::{Logit, UpdateRule};
use crate::runtime::{RuntimeConfig, WorkerPool};
use crate::schedules::UniformSingle;
use crate::simulate::{EmpiricalLaw, Simulator};
use crate::DynamicsEngine;
use logit_games::{Game, PotentialGame};

/// One row of a β-sweep table.
#[derive(Debug, Clone)]
pub struct BetaSweepRow {
    /// Inverse noise β.
    pub beta: f64,
    /// Full measurement at this β.
    pub measurement: MixingMeasurement,
    /// The game's maximum global potential variation ΔΦ (constant across the sweep,
    /// repeated per row for convenience when printing).
    pub delta_phi: f64,
}

/// Runs an exact mixing-time measurement for every β in `betas`, in parallel.
///
/// `max_time` caps each exact mixing-time search; rows whose chain did not mix
/// within the cap carry `measurement.mixing_time == None` but still report the
/// spectral quantities.
pub fn beta_sweep<G>(game: &G, betas: &[f64], epsilon: f64, max_time: u64) -> Vec<BetaSweepRow>
where
    G: PotentialGame + Sync,
{
    sweep_grid(game, betas, |beta| {
        exact_mixing_time(game, beta, epsilon, max_time)
    })
}

/// [`beta_sweep`] under an arbitrary [`UpdateRule`]: exact per-β mixing
/// measurements of the rule's uniform-selection chain (stationary law by
/// linear solve, so non-reversible rules work too), in parallel over the β
/// grid.
pub fn beta_sweep_with_rule<G, U>(
    game: &G,
    rule: &U,
    betas: &[f64],
    epsilon: f64,
    max_time: u64,
) -> Vec<BetaSweepRow>
where
    G: PotentialGame + Sync,
    U: UpdateRule,
{
    sweep_grid(game, betas, |beta| {
        exact_mixing_time_with_rule(game, rule.clone(), beta, epsilon, max_time)
    })
}

/// Runs `measure` at every β of the grid on a pool sized by
/// [`RuntimeConfig::from_env`] (`LOGIT_WORKERS`), one claim per grid point,
/// and returns the rows in grid order.
fn sweep_grid<G: PotentialGame>(
    game: &G,
    betas: &[f64],
    measure: impl Fn(f64) -> MixingMeasurement + Sync,
) -> Vec<BetaSweepRow> {
    let delta_phi = game.max_global_variation();
    let config = RuntimeConfig::from_env();
    let mut measurements: Vec<Option<MixingMeasurement>> = vec![None; betas.len()];
    WorkerPool::new(&config).for_each_chunk(
        &mut measurements,
        1,
        config.resolved_workers(),
        &|i, slot: &mut [Option<MixingMeasurement>]| slot[0] = Some(measure(betas[i])),
    );
    betas
        .iter()
        .zip(measurements)
        .map(|(&beta, measurement)| BetaSweepRow {
            beta,
            measurement: measurement.expect("every grid point is measured"),
            delta_phi,
        })
        .collect()
}

/// A named extra CSV column: header plus a function of the sweep row.
pub type ExtraColumn<'a> = (&'a str, Box<dyn Fn(&BetaSweepRow) -> f64>);

/// Formats sweep rows as a CSV table (header + one line per row), with `extra`
/// supplying additional named columns computed from each row (e.g. the paper's
/// bound at that β).
pub fn format_csv(rows: &[BetaSweepRow], extra: &[ExtraColumn<'_>]) -> String {
    let mut out = String::new();
    out.push_str("beta,num_states,mixing_time,relaxation_time,spectral_gap,delta_phi");
    for (name, _) in extra {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for row in rows {
        let mt = row
            .measurement
            .mixing_time
            .map(|t| t.to_string())
            .unwrap_or_else(|| "NA".to_string());
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6}",
            row.beta,
            row.measurement.num_states,
            mt,
            row.measurement.relaxation_time,
            row.measurement.spectral_gap,
            row.delta_phi
        ));
        for (_, f) in extra {
            out.push_str(&format!(",{:.6}", f(row)));
        }
        out.push('\n');
    }
    out
}

/// Evenly spaced β grid `[start, start + step, …]` with `count` points.
pub fn beta_grid(start: f64, step: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| start + step * i as f64).collect()
}

/// One row of a simulation-based β-sweep over the in-place profile engine.
#[derive(Debug, Clone)]
pub struct ProfileSweepRow {
    /// Inverse noise β.
    pub beta: f64,
    /// Mean of the observable across replicas at the final step.
    pub mean: f64,
    /// Standard error of that mean.
    pub std_err: f64,
    /// The full final-time empirical law of the observable.
    pub law: EmpiricalLaw,
}

/// Sweeps β with the in-place profile engine — the large-`n` counterpart of
/// [`beta_sweep`], for games whose chains cannot be built exactly. Each grid
/// point runs a replica ensemble of the paper's chain
/// ([`Simulator::run_profiles`] under [`UniformSingle`], replicas
/// parallelised inside it; grid points run sequentially to avoid nested
/// dispatches on the pool) and reports the final-time law of `observable`.
#[allow(clippy::too_many_arguments)]
pub fn beta_profile_sweep<G, O>(
    game: &G,
    betas: &[f64],
    start: &[usize],
    steps: u64,
    sample_every: u64,
    replicas: usize,
    seed: u64,
    observable: &O,
) -> Vec<ProfileSweepRow>
where
    G: Game + Clone + Sync,
    O: ProfileObservable + Sync,
{
    beta_profile_sweep_with_rule(
        game,
        &Logit,
        betas,
        start,
        steps,
        sample_every,
        replicas,
        seed,
        observable,
    )
}

/// [`beta_profile_sweep`] under an arbitrary [`UpdateRule`]: the same
/// in-place replica ensembles, stepping the given rule instead of the logit
/// softmax.
#[allow(clippy::too_many_arguments)]
pub fn beta_profile_sweep_with_rule<G, U, O>(
    game: &G,
    rule: &U,
    betas: &[f64],
    start: &[usize],
    steps: u64,
    sample_every: u64,
    replicas: usize,
    seed: u64,
    observable: &O,
) -> Vec<ProfileSweepRow>
where
    G: Game + Clone + Sync,
    U: UpdateRule,
    O: ProfileObservable + Sync,
{
    let sim = Simulator::new(seed, replicas);
    betas
        .iter()
        .map(|&beta| {
            let d = DynamicsEngine::with_rule(game.clone(), rule.clone(), beta);
            let result =
                sim.run_profiles(&d, &UniformSingle, start, steps, sample_every, observable);
            let stats = result.final_stats();
            ProfileSweepRow {
                beta,
                mean: stats.mean(),
                std_err: stats.std_err(),
                law: result.law(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use logit_games::WellGame;

    #[test]
    fn beta_grid_is_even() {
        let g = beta_grid(0.5, 0.25, 4);
        assert_eq!(g, vec![0.5, 0.75, 1.0, 1.25]);
        assert!(beta_grid(1.0, 1.0, 0).is_empty());
    }

    #[test]
    fn sweep_rows_cover_all_betas_and_respect_theorem_3_4() {
        let game = WellGame::plateau(3, 1.5);
        let betas = beta_grid(0.0, 0.75, 4);
        let rows = beta_sweep(&game, &betas, 0.25, 1 << 28);
        assert_eq!(rows.len(), betas.len());
        for (row, &beta) in rows.iter().zip(&betas) {
            assert_eq!(row.beta, beta);
            let t = row.measurement.mixing_time.expect("small game mixes") as f64;
            let bound = bounds::theorem_3_4_mixing_upper(3, 2, beta, row.delta_phi, 0.25);
            assert!(
                t <= bound,
                "measured {t} exceeds the Theorem 3.4 bound {bound} at beta {beta}"
            );
        }
        // Mixing time is non-decreasing in β for this two-well game.
        let times: Vec<u64> = rows
            .iter()
            .map(|r| r.measurement.mixing_time.unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn profile_sweep_shows_adoption_rising_with_beta() {
        use crate::observables::StrategyFraction;
        use logit_games::{CoordinationGame, GraphicalCoordinationGame};
        use logit_graphs::GraphBuilder;

        // Strategy 1 is risk dominant; higher rationality means more adoption
        // by the end of a fixed horizon.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(40),
            CoordinationGame::from_deltas(1.0, 3.0),
        );
        let obs = StrategyFraction::new(1, "adopters");
        let rows = beta_profile_sweep(
            &game,
            &[0.0, 2.5],
            &vec![0usize; 40],
            4000,
            1000,
            60,
            17,
            &obs,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].beta, 0.0);
        assert!(rows[0].law.len() == 60);
        assert!(
            rows[1].mean > rows[0].mean + 0.2,
            "beta=2.5 adoption {} should clearly beat beta=0 adoption {}",
            rows[1].mean,
            rows[0].mean
        );
        // At beta = 0 updates are coin flips: the adopter fraction hovers
        // around one half.
        assert!((rows[0].mean - 0.5).abs() < 0.15);
    }

    #[test]
    fn rule_generic_exact_sweep_measures_every_rule() {
        use crate::rules::{MetropolisLogit, NoisyBestResponse};
        let game = WellGame::plateau(3, 1.5);
        let betas = [0.5, 1.0];
        let metro = beta_sweep_with_rule(&game, &MetropolisLogit, &betas, 0.25, 1 << 24);
        assert_eq!(metro.len(), 2);
        assert!(metro.iter().all(|r| r.measurement.mixing_time.is_some()));
        let nbr = beta_sweep_with_rule(&game, &NoisyBestResponse::new(0.2), &betas, 0.25, 1 << 24);
        assert!(nbr.iter().all(|r| r.measurement.mixing_time.is_some()));
    }

    #[test]
    fn rule_generic_profile_sweep_runs_metropolis() {
        use crate::observables::StrategyFraction;
        use crate::rules::MetropolisLogit;
        use logit_games::{CoordinationGame, GraphicalCoordinationGame};
        use logit_graphs::GraphBuilder;

        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(30),
            CoordinationGame::from_deltas(1.0, 3.0),
        );
        let obs = StrategyFraction::new(1, "adopters");
        let rows = beta_profile_sweep_with_rule(
            &game,
            &MetropolisLogit,
            &[0.0, 2.5],
            &vec![0usize; 30],
            4000,
            1000,
            40,
            5,
            &obs,
        );
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].mean > rows[0].mean + 0.1,
            "rationality should raise adoption under Metropolis too: {} vs {}",
            rows[1].mean,
            rows[0].mean
        );
    }

    #[test]
    fn csv_has_header_and_extra_columns() {
        let game = WellGame::plateau(3, 1.0);
        let rows = beta_sweep(&game, &[0.5], 0.25, 1 << 20);
        let csv = format_csv(
            &rows,
            &[(
                "thm34_bound",
                Box::new(|r: &BetaSweepRow| {
                    bounds::theorem_3_4_mixing_upper(3, 2, r.beta, r.delta_phi, 0.25)
                }),
            )],
        );
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.ends_with("thm34_bound"));
        assert_eq!(lines.count(), 1);
    }
}
