//! The experiment suite E1–E14.
//!
//! Each experiment regenerates one quantitative claim of the paper (see
//! `DESIGN.md` §3 for the index and `EXPERIMENTS.md` for the recorded outputs);
//! E11 exercises the large-`n` in-place simulation engine beyond the reach of
//! any exact analysis; E12 compares the pluggable revision rules (logit,
//! Metropolis, noisy best response, Fermi, imitate-the-better) and the
//! parallel all-logit schedule; E13 races the tempering ensemble against the
//! exact single-chain barrier; E14 sweeps the coloured parallel-revision
//! schedules across topologies with the round-chain exactness panel.
//! Every function takes a `fast` flag: `true` shrinks the parameter grid so
//! the whole suite can run inside the test suite; `false` is the full grid
//! used to produce `EXPERIMENTS.md`.

use crate::table::{f1, f3, show_time, Table};
use logit_core::bounds;
use logit_core::observables::StrategyFraction;
use logit_core::{exact_mixing_time, gibbs_distribution, zeta, LogitDynamics, Simulator};
use logit_games::dominant::BonusDominantGame;
use logit_games::{
    AllZeroDominantGame, CoordinationGame, Game, GraphicalCoordinationGame, PotentialGame,
    TablePotentialGame, WellGame,
};
use logit_graphs::{cutwidth_exact, Graph, GraphBuilder};
use logit_linalg::stats::linear_fit;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 0.25;
const BUDGET: u64 = 1 << 36;

/// E1 — Theorem 3.1: every eigenvalue of the logit chain of a potential game is
/// non-negative, so λ* = λ₂.
pub fn e1_eigenvalues(fast: bool) -> String {
    let mut table = Table::new(vec![
        "game",
        "beta",
        "lambda_min",
        "lambda_2",
        "lambda_star=lambda_2",
    ]);
    let betas: &[f64] = if fast {
        &[0.5, 2.0]
    } else {
        &[0.1, 0.5, 1.0, 2.0, 5.0]
    };
    let mut rng = StdRng::seed_from_u64(1);
    let seeds = if fast { 2 } else { 4 };

    let mut check = |name: &str, game: &dyn PotentialGameObj| {
        for &beta in betas {
            let m = game.measure(beta);
            table.push_row(vec![
                name.to_string(),
                f3(beta),
                format!("{:.6}", m.lambda_min),
                format!("{:.6}", 1.0 - m.spectral_gap),
                (m.lambda_min >= -1e-9).to_string(),
            ]);
        }
    };

    for s in 0..seeds {
        let game = TablePotentialGame::random(vec![2, 2, 2], 3.0, &mut rng);
        check(&format!("random potential #{s}"), &game);
    }
    let coord = GraphicalCoordinationGame::new(
        GraphBuilder::ring(4),
        CoordinationGame::from_deltas(2.0, 1.0),
    );
    check("coordination ring n=4", &coord);

    format!(
        "E1 — Theorem 3.1 (non-negative spectrum of potential-game logit chains)\n\n{}\nPASS iff the last column is always `true`.\n",
        table.render()
    )
}

/// Object-safe helper so E1 can mix different game types in one loop.
trait PotentialGameObj {
    fn measure(&self, beta: f64) -> logit_core::MixingMeasurement;
}
impl<G: PotentialGame> PotentialGameObj for G {
    fn measure(&self, beta: f64) -> logit_core::MixingMeasurement {
        exact_mixing_time(self, beta, EPS, 2)
    }
}

/// E2 — Lemma 3.2: the relaxation time of the β = 0 chain is at most n.
pub fn e2_beta_zero(fast: bool) -> String {
    let mut table = Table::new(vec!["n", "m", "t_rel(beta=0)", "bound n"]);
    let mut rng = StdRng::seed_from_u64(2);
    let ns: Vec<usize> = if fast {
        vec![2, 3, 4]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    for &n in &ns {
        for m in 2..=3usize {
            if m.pow(n as u32) > 1024 {
                continue;
            }
            let game = TablePotentialGame::random(vec![m; n], 2.0, &mut rng);
            let meas = exact_mixing_time(&game, 0.0, EPS, 4);
            table.push_row(vec![
                n.to_string(),
                m.to_string(),
                f3(meas.relaxation_time),
                n.to_string(),
            ]);
        }
    }
    format!(
        "E2 — Lemma 3.2 (relaxation time at beta = 0 is at most n)\n\n{}\nPASS iff column 3 <= column 4 in every row.\n",
        table.render()
    )
}

/// E3 — Theorem 3.4: the all-β upper bound `2mn e^{βΔΦ}(log 4 + βΔΦ + n log m)`.
pub fn e3_all_beta_bound(fast: bool) -> String {
    let betas: Vec<f64> = if fast {
        vec![0.0, 1.0, 2.0]
    } else {
        vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    };
    let game = WellGame::plateau(4, 2.0);
    let (n, m) = (game.num_players(), game.max_strategies());
    let dphi = game.max_global_variation();
    let mut table = Table::new(vec![
        "beta",
        "t_mix",
        "t_rel",
        "Lemma3.3 bound",
        "Thm3.4 bound",
    ]);
    for &beta in &betas {
        let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
        table.push_row(vec![
            f3(beta),
            show_time(meas.mixing_time),
            f1(meas.relaxation_time),
            f1(bounds::lemma_3_3_relaxation_upper(n, m, beta, dphi)),
            f1(bounds::theorem_3_4_mixing_upper(n, m, beta, dphi, EPS)),
        ]);
    }
    format!(
        "E3 — Theorem 3.4 (upper bound for every beta), well game n={n}, deltaPhi={dphi}\n\n{}\nPASS iff t_mix <= Thm3.4 bound and t_rel <= Lemma3.3 bound in every row.\n",
        table.render()
    )
}

/// E4 — Theorem 3.5: the well potential's mixing time grows as `e^{βΔΦ(1−o(1))}`.
pub fn e4_lower_bound(fast: bool) -> String {
    let game = if fast {
        WellGame::plateau(4, 2.0)
    } else {
        WellGame::new(6, 4.0, 2.0)
    };
    let n = game.num_players();
    let dphi = game.max_global_variation();
    let dloc = game.max_local_variation();
    let betas: Vec<f64> = if fast {
        vec![1.5, 2.0, 2.5]
    } else {
        vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    };
    let mut table = Table::new(vec!["beta", "t_mix", "Thm3.5 lower", "Thm3.4 upper"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &beta in &betas {
        let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
        let t = meas.mixing_time;
        table.push_row(vec![
            f3(beta),
            show_time(t),
            f1(bounds::theorem_3_5_mixing_lower(
                n, 2, beta, dphi, dloc, EPS,
            )),
            f1(bounds::theorem_3_4_mixing_upper(n, 2, beta, dphi, EPS)),
        ]);
        if let Some(t) = t {
            xs.push(beta);
            ys.push((t as f64).ln());
        }
    }
    let fit = linear_fit(&xs, &ys);
    format!(
        "E4 — Theorem 3.5 (matching lower bound, well potential n={n}, deltaPhi={dphi}, deltaLocal={dloc})\n\n{}\nfitted growth exponent d(log t_mix)/d(beta) = {:.3}   (paper: deltaPhi = {dphi}, sandwich {:.3}..{:.3})\nPASS iff Thm3.5 lower <= t_mix <= Thm3.4 upper and the fitted exponent is close to deltaPhi.\n",
        table.render(),
        fit.slope,
        0.6 * dphi,
        1.2 * dphi,
    )
}

/// E5 — Theorem 3.6: for β ≤ c/(nδΦ) the mixing time is O(n log n).
pub fn e5_small_beta(fast: bool) -> String {
    let ns: Vec<usize> = if fast {
        vec![3, 4, 5]
    } else {
        vec![3, 4, 5, 6, 7, 8]
    };
    let c = 0.5;
    let mut table = Table::new(vec![
        "n",
        "beta=c/(n dPhi)",
        "t_mix",
        "n log n",
        "Thm3.6 bound",
    ]);
    for &n in &ns {
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::symmetric(1.0));
        let dloc = game.max_local_variation();
        let beta = c / (n as f64 * dloc);
        let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
        table.push_row(vec![
            n.to_string(),
            f3(beta),
            show_time(meas.mixing_time),
            f1(n as f64 * (n as f64).ln()),
            f1(bounds::theorem_3_6_mixing_upper(n, beta, dloc, EPS)),
        ]);
    }
    format!(
        "E5 — Theorem 3.6 (small beta: O(n log n) mixing), ring coordination, c = {c}\n\n{}\nPASS iff t_mix <= Thm3.6 bound and t_mix grows roughly like n log n.\n",
        table.render()
    )
}

/// E6 — Theorems 3.8/3.9: for large β, `t_mix = e^{βζ(1±o(1))}` with ζ the
/// potential barrier (strictly smaller than ΔΦ on risk-dominant cliques).
pub fn e6_zeta(fast: bool) -> String {
    let n = if fast { 4 } else { 5 };
    let game = GraphicalCoordinationGame::new(
        GraphBuilder::clique(n),
        CoordinationGame::from_deltas(2.0, 1.0),
    );
    let barrier = zeta(&game).zeta;
    let dphi = game.max_global_variation();
    let betas: Vec<f64> = if fast {
        vec![1.5, 2.0, 2.5]
    } else {
        vec![1.0, 1.5, 2.0, 2.5, 3.0]
    };
    let mut table = Table::new(vec!["beta", "t_mix", "e^(beta*zeta)", "Thm3.8 upper"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &beta in &betas {
        let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
        table.push_row(vec![
            f3(beta),
            show_time(meas.mixing_time),
            f1((beta * barrier).exp()),
            format!(
                "{:.3e}",
                bounds::theorem_3_8_mixing_upper(n, 2, beta, barrier, dphi, EPS)
            ),
        ]);
        if let Some(t) = meas.mixing_time {
            xs.push(beta);
            ys.push((t as f64).ln());
        }
    }
    let fit = linear_fit(&xs, &ys);
    format!(
        "E6 — Theorems 3.8/3.9 (large beta: exponent is the barrier zeta), clique n={n}, delta0=2, delta1=1\n\nzeta = {barrier:.3}   deltaPhi = {dphi:.3}  (zeta < deltaPhi: the refined exponent is sharper)\n\n{}\nfitted growth exponent = {:.3}  (paper: zeta = {barrier:.3})\nPASS iff the fitted exponent tracks zeta rather than deltaPhi.\n",
        table.render(),
        fit.slope,
    )
}

/// E7 — Theorems 4.2/4.3: dominant-strategy games mix in time independent of β,
/// and the worst case is Θ(m^{n-1})-ish.
pub fn e7_dominant(fast: bool) -> String {
    let configs: Vec<(usize, usize)> = if fast {
        vec![(2, 2), (3, 2)]
    } else {
        vec![(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]
    };
    let betas: Vec<f64> = if fast {
        vec![1.0, 10.0, 100.0]
    } else {
        vec![0.0, 1.0, 5.0, 20.0, 100.0]
    };
    let mut table = Table::new(vec![
        "n",
        "m",
        "beta",
        "t_mix (Thm4.3 game)",
        "t_mix (bonus game)",
        "Thm4.2 upper",
        "Thm4.3 lower",
    ]);
    for &(n, m) in &configs {
        let worst = AllZeroDominantGame::new(n, m);
        let bonus = BonusDominantGame::new(n, m, 1.0);
        for &beta in &betas {
            let tw = exact_mixing_time(&worst, beta, EPS, BUDGET).mixing_time;
            let tb = exact_mixing_time(&bonus, beta, EPS, BUDGET).mixing_time;
            table.push_row(vec![
                n.to_string(),
                m.to_string(),
                f1(beta),
                show_time(tw),
                show_time(tb),
                f1(bounds::theorem_4_2_mixing_upper(n, m)),
                f3(bounds::theorem_4_3_mixing_lower(n, m)),
            ]);
        }
    }
    format!(
        "E7 — Theorems 4.2/4.3 (dominant strategies: mixing time independent of beta)\n\n{}\nPASS iff for each (n, m) the measured times saturate as beta grows, stay below the\nThm 4.2 bound, and (for large beta) the Thm 4.3 game stays above the Thm 4.3 lower bound.\n",
        table.render()
    )
}

/// E8 — Theorem 5.1: the cutwidth bound across topologies.
pub fn e8_cutwidth(fast: bool) -> String {
    let (d0, d1) = (1.5, 1.0);
    let base = CoordinationGame::from_deltas(d0, d1);
    let n = if fast { 4 } else { 6 };
    let topologies: Vec<(&str, Graph)> = vec![
        ("path", GraphBuilder::path(n)),
        ("ring", GraphBuilder::ring(n)),
        ("star", GraphBuilder::star(n)),
        ("binary tree", GraphBuilder::binary_tree(n)),
        ("clique", GraphBuilder::clique(n)),
    ];
    let betas: Vec<f64> = if fast { vec![0.5] } else { vec![0.5, 1.0] };
    let mut table = Table::new(vec!["graph", "cutwidth", "beta", "t_mix", "Thm5.1 bound"]);
    for (name, graph) in &topologies {
        let chi = cutwidth_exact(graph).cutwidth;
        let game = GraphicalCoordinationGame::new(graph.clone(), base);
        for &beta in &betas {
            let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
            table.push_row(vec![
                name.to_string(),
                chi.to_string(),
                f3(beta),
                show_time(meas.mixing_time),
                format!(
                    "{:.3e}",
                    bounds::theorem_5_1_mixing_upper(n, chi, d0, d1, beta)
                ),
            ]);
        }
    }
    format!(
        "E8 — Theorem 5.1 (cutwidth bound), graphical coordination n={n}, delta0={d0}, delta1={d1}\n\n{}\nPASS iff t_mix <= Thm5.1 bound everywhere, and mixing times order with the cutwidth\n(path/ring/tree fast, clique slowest).\n",
        table.render()
    )
}

/// E9 — Theorem 5.5: on the clique the growth exponent is `Φ_max − Φ(1)`.
pub fn e9_clique(fast: bool) -> String {
    let n = if fast { 4 } else { 6 };
    let (d0, d1) = (1.0, 1.0);
    let game = GraphicalCoordinationGame::new(
        GraphBuilder::clique(n),
        CoordinationGame::from_deltas(d0, d1),
    );
    let exponent = bounds::theorem_5_5_exponent(n, d0, d1);
    let betas: Vec<f64> = if fast {
        vec![1.0, 1.5, 2.0]
    } else {
        vec![0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    };
    let mut table = Table::new(vec!["beta", "t_mix", "e^(beta*(PhiMax-Phi(1)))"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &beta in &betas {
        let meas = exact_mixing_time(&game, beta, EPS, BUDGET);
        table.push_row(vec![
            f3(beta),
            show_time(meas.mixing_time),
            f1((beta * exponent).exp()),
        ]);
        if let Some(t) = meas.mixing_time {
            xs.push(beta);
            ys.push((t as f64).ln());
        }
    }
    let fit = linear_fit(&xs, &ys);
    format!(
        "E9 — Theorem 5.5 (clique), n={n}, delta0=delta1={d0} (no risk dominance: worst case)\n\nbarrier PhiMax - Phi(1) = {exponent:.3}\n\n{}\nfitted growth exponent = {:.3}  (paper: {exponent:.3})\nPASS iff the fitted exponent is within ~35% of the barrier.\n",
        table.render(),
        fit.slope,
    )
}

/// E10 — Theorems 5.6/5.7: the ring mixes in `Θ̃(e^{2δβ})`, far faster than the
/// clique at the same β.
pub fn e10_ring(fast: bool) -> String {
    let n = if fast { 5 } else { 7 };
    let delta = 1.0;
    let ring =
        GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::symmetric(delta));
    let clique =
        GraphicalCoordinationGame::new(GraphBuilder::clique(n), CoordinationGame::symmetric(delta));
    let betas: Vec<f64> = if fast {
        vec![0.5, 1.0, 1.5]
    } else {
        vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    };
    let mut table = Table::new(vec![
        "beta",
        "t_mix ring",
        "Thm5.7 lower",
        "Thm5.6 upper",
        "t_mix clique",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &beta in &betas {
        let tr = exact_mixing_time(&ring, beta, EPS, BUDGET).mixing_time;
        let tc = exact_mixing_time(&clique, beta, EPS, BUDGET).mixing_time;
        table.push_row(vec![
            f3(beta),
            show_time(tr),
            f1(bounds::theorem_5_7_mixing_lower(delta, beta, EPS)),
            f1(bounds::theorem_5_6_mixing_upper(n, delta, beta, EPS)),
            show_time(tc),
        ]);
        if let Some(t) = tr {
            xs.push(beta);
            ys.push((t as f64).ln());
        }
    }
    let fit = linear_fit(&xs, &ys);
    format!(
        "E10 — Theorems 5.6/5.7 (ring vs clique), n={n}, delta0=delta1={delta}\n\n{}\nfitted ring growth exponent = {:.3}  (paper: 2*delta = {:.3})\nPASS iff Thm5.7 lower <= t_mix(ring) <= Thm5.6 upper, the ring exponent is about 2*delta,\nand the clique is increasingly slower than the ring as beta grows.\n",
        table.render(),
        fit.slope,
        2.0 * delta,
    )
}

/// E11 — the large-`n` in-place engine: ring coordination games far beyond
/// the flat-index limit (`n > 63` binary players already overflows a `usize`
/// state index; the in-place profile engine does not care).
///
/// For each ring size the experiment runs a replica ensemble with the profile
/// engine, streams the adopter fraction of the risk-dominant strategy, and
/// reports wall-clock throughput in steps/sec. The full grid simulates
/// `n = 10⁵` players for 10⁷ total steps.
pub fn e11_large_ring(fast: bool) -> String {
    use logit_core::UniformSingle;
    let sizes: &[usize] = if fast {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let total_steps: u64 = if fast { 400_000 } else { 10_000_000 };
    let replicas = 8;
    let steps = total_steps / replicas as u64;
    let (delta0, delta1) = (1.0, 2.0);
    let beta = 1.5;

    let mut table = Table::new(vec![
        "n",
        "replicas",
        "total steps",
        "seconds",
        "steps/sec",
        "adopters (mean)",
        "adopters (q10..q90)",
        "pipelined steps/sec",
        "pipe/seq",
    ]);
    let mut throughputs = Vec::new();
    for &n in sizes {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(n),
            CoordinationGame::from_deltas(delta0, delta1),
        );
        let dynamics = LogitDynamics::new(game, beta);
        let sim = Simulator::new(0xE11, replicas);
        let observable = StrategyFraction::new(1, "adopters");
        let start = vec![0usize; n];
        let sample_every = (steps / 4).max(1);
        let clock = std::time::Instant::now();
        let result = sim.run_profiles(
            &dynamics,
            &UniformSingle,
            &start,
            steps,
            sample_every,
            &observable,
        );
        let seconds = clock.elapsed().as_secs_f64();
        // The same workload through the farmed runner's segments: the result
        // must be bit-identical (same seeds, replica-order fold), so the
        // in-process assertion doubles as an acceptance check.
        let pipe_clock = std::time::Instant::now();
        let pipelined = sim
            .run_profiles_pipelined(
                &dynamics,
                &UniformSingle,
                &start,
                steps,
                sample_every,
                &observable,
                None,
            )
            .expect("uncancelled runs complete");
        let pipe_seconds = pipe_clock.elapsed().as_secs_f64();
        assert_eq!(
            result.final_values, pipelined.final_values,
            "pipelined ensemble diverged from the sequential path at n = {n}"
        );
        for (k, (s, p)) in result.series.iter().zip(&pipelined.series).enumerate() {
            assert!(
                s.count() == p.count()
                    && s.mean() == p.mean()
                    && s.variance() == p.variance()
                    && s.min() == p.min()
                    && s.max() == p.max(),
                "pipelined series stats diverged at sample {k}, n = {n}"
            );
        }
        let ran = steps * replicas as u64;
        let law = result.law();
        throughputs.push(ran as f64 / seconds);
        table.push_row(vec![
            n.to_string(),
            replicas.to_string(),
            ran.to_string(),
            format!("{seconds:.2}"),
            format!("{:.3e}", ran as f64 / seconds),
            f3(law.mean()),
            format!("{}..{}", f3(law.quantile(0.1)), f3(law.quantile(0.9))),
            format!("{:.3e}", ran as f64 / pipe_seconds),
            format!("{:.2}", seconds / pipe_seconds),
        ]);
    }
    let spread = throughputs
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        / throughputs.iter().copied().fold(f64::INFINITY, f64::min);
    format!(
        "E11 — large-n in-place profile engine, ring, delta0={delta0}, delta1={delta1}, beta={beta}\n\n{}\nthroughput spread max/min across n = {spread:.2}\nPASS iff every row completes (the flat engine cannot represent any of these state spaces),\nthe spread stays below 10 — per-step cost is O(deg), not O(|S|) — and the pipelined\nrunner reproduces the sequential ensemble bit-for-bit (asserted in-process).\n",
        table.render(),
    )
}

/// E12 — cross-rule revision dynamics: mixing and metastability proxies of
/// the pluggable update rules (logit, Metropolis, noisy best response) and
/// the parallel all-logit block schedule on ring and clique coordination
/// games, through *both* engines (exact flat-index chains and the in-place
/// profile engine).
pub fn e12_cross_rule(fast: bool) -> String {
    use logit_core::observables::StrategyFraction;
    use logit_core::rules::{
        Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse, UpdateRule,
    };
    use logit_core::schedules::{AllLogit, UniformSingle};
    use logit_core::DynamicsEngine;
    use logit_markov::{mixing_time, spectral_analysis, stationary_distribution};

    let n = if fast { 4 } else { 5 };
    let betas: &[f64] = if fast { &[0.5, 1.5] } else { &[0.5, 1.0, 2.0] };

    // Part 1 — exact flat-index engine: per-rule mixing time, relaxation time
    // and stationary mass of the risk-dominant consensus on ring vs clique.
    let mut exact = Table::new(vec![
        "graph",
        "rule/schedule",
        "beta",
        "t_mix",
        "t_rel",
        "pi(risk-dom consensus)",
    ]);
    let graphs = [
        ("ring", GraphBuilder::ring(n)),
        ("clique", GraphBuilder::clique(n)),
    ];
    for (gname, graph) in &graphs {
        let game =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let space = game.profile_space();
        let consensus = space.index_of(&vec![0usize; n]);
        for &beta in betas {
            let mut push_rule = |label: &str, mix: Option<u64>, t_rel: f64, pi0: f64| {
                exact.push_row(vec![
                    gname.to_string(),
                    label.to_string(),
                    f3(beta),
                    show_time(mix),
                    f3(t_rel),
                    format!("{pi0:.4}"),
                ]);
            };
            // One exact chain build + one stationary solve per cell; t_mix,
            // t_rel and the consensus mass all derive from the same pair.
            fn measure_rule<U: UpdateRule>(
                game: &GraphicalCoordinationGame,
                rule: U,
                beta: f64,
                consensus: usize,
            ) -> (Option<u64>, f64, f64) {
                let chain = DynamicsEngine::with_rule(game.clone(), rule, beta).transition_chain();
                let pi = stationary_distribution(&chain);
                let mix = mixing_time(&chain, &pi, EPS, BUDGET).map(|r| r.mixing_time);
                let t_rel = if chain.is_reversible(&pi, 1e-7) {
                    spectral_analysis(&chain, &pi).relaxation_time
                } else {
                    f64::NAN
                };
                (mix, t_rel, pi[consensus])
            }
            let (mix, t_rel, pi0) = measure_rule(&game, Logit, beta, consensus);
            push_rule("logit", mix, t_rel, pi0);
            let (mix, t_rel, pi0) = measure_rule(&game, MetropolisLogit, beta, consensus);
            push_rule("metropolis", mix, t_rel, pi0);
            let (mix, t_rel, pi0) =
                measure_rule(&game, NoisyBestResponse::new(0.1), beta, consensus);
            push_rule("nbr(0.10)", mix, t_rel, pi0);
            // The imitation rules: Fermi shares the Gibbs stationary law
            // (reversible, finite t_rel); imitate-the-better does not.
            let (mix, t_rel, pi0) = measure_rule(&game, Fermi, beta, consensus);
            push_rule("fermi", mix, t_rel, pi0);
            let (mix, t_rel, pi0) = measure_rule(&game, ImitateBetter::new(0.1), beta, consensus);
            push_rule("imitate(0.10)", mix, t_rel, pi0);

            // The all-logit block schedule as its own exact chain (one block
            // step = n player updates).
            let d = LogitDynamics::new(game.clone(), beta);
            let chain = d.transition_chain_all_logit();
            let pi = stationary_distribution(&chain);
            let mix = mixing_time(&chain, &pi, EPS, BUDGET).map(|r| r.mixing_time);
            exact.push_row(vec![
                gname.to_string(),
                "all-logit (block)".to_string(),
                f3(beta),
                show_time(mix),
                "NA".to_string(),
                format!("{:.4}", pi[consensus]),
            ]);
        }
    }

    // Part 2 — in-place profile engine: metastability proxy. Start every
    // replica in the *wrong* consensus at high beta and record the fraction
    // of players that escaped to the risk-dominant strategy by the horizon —
    // the per-rule analogue of the transient panel, at sizes no flat index
    // can reach on the clique-free topology.
    let (ring_n, clique_n) = if fast { (16, 8) } else { (40, 12) };
    let beta = 2.0;
    let steps: u64 = if fast { 6_000 } else { 40_000 };
    let replicas = if fast { 16 } else { 32 };
    let mut sim_table = Table::new(vec![
        "graph",
        "n",
        "rule/schedule",
        "updates",
        "escaped fraction (mean)",
        "q10..q90",
    ]);
    for (gname, graph, players) in [
        ("ring", GraphBuilder::ring(ring_n), ring_n),
        ("clique", GraphBuilder::clique(clique_n), clique_n),
    ] {
        let game = GraphicalCoordinationGame::new(graph, CoordinationGame::from_deltas(2.0, 1.0));
        let start = vec![1usize; players];
        let obs = StrategyFraction::new(0, "risk-dominant fraction");
        let sim = Simulator::new(0xE12, replicas);
        let mut push_sim = |label: &str, updates: u64, law: logit_core::EmpiricalLaw| {
            sim_table.push_row(vec![
                gname.to_string(),
                players.to_string(),
                label.to_string(),
                updates.to_string(),
                f3(law.mean()),
                format!("{}..{}", f3(law.quantile(0.1)), f3(law.quantile(0.9))),
            ]);
        };
        fn run_rule<U: UpdateRule>(
            sim: &Simulator,
            game: &GraphicalCoordinationGame,
            rule: U,
            beta: f64,
            start: &[usize],
            steps: u64,
            obs: &StrategyFraction,
        ) -> logit_core::EmpiricalLaw {
            let d = DynamicsEngine::with_rule(game.clone(), rule, beta);
            sim.run_profiles(&d, &UniformSingle, start, steps, steps, obs)
                .law()
        }
        let law = run_rule(&sim, &game, Logit, beta, &start, steps, &obs);
        push_sim("logit", steps, law);
        let law = run_rule(&sim, &game, MetropolisLogit, beta, &start, steps, &obs);
        push_sim("metropolis", steps, law);
        let law = run_rule(
            &sim,
            &game,
            NoisyBestResponse::new(0.1),
            beta,
            &start,
            steps,
            &obs,
        );
        push_sim("nbr(0.10)", steps, law);
        let law = run_rule(&sim, &game, Fermi, beta, &start, steps, &obs);
        push_sim("fermi", steps, law);
        let law = run_rule(
            &sim,
            &game,
            ImitateBetter::new(0.1),
            beta,
            &start,
            steps,
            &obs,
        );
        push_sim("imitate(0.10)", steps, law);
        // All-logit: one tick = n updates, so match the update budget.
        let ticks = (steps / players as u64).max(1);
        let d = LogitDynamics::new(game.clone(), beta);
        let law = sim
            .run_profiles(&d, &AllLogit, &start, ticks, ticks, &obs)
            .law();
        push_sim("all-logit (block)", ticks * players as u64, law);
    }

    format!(
        "E12 — cross-rule revision dynamics, coordination games (delta0=2, delta1=1)\n\n\
         Exact flat-index engine (n={n} per topology): per-rule chains under uniform selection,\n\
         plus the parallel all-logit block chain.\n\n{}\n\
         In-place profile engine at beta={beta}: replicas start in the wrong consensus; the table\n\
         reports the fraction of players on the risk-dominant strategy at the horizon.\n\n{}\n\
         PASS iff every rule/schedule produces rows through both engines, logit, metropolis and\n\
         fermi report finite t_rel (reversible chains — the Fermi acceptance ratio is e^{{beta*du}}\n\
         like theirs), and the clique escape fraction stays below the ring's for the reversible\n\
         rules (the paper's ring-vs-clique metastability contrast).\n",
        exact.render(),
        sim_table.render()
    )
}

/// E13 — parallel tempering vs the single-chain exponential barrier: on E4's
/// well game the single logit chain at high β needs `e^{βΔΦ(1−o(1))}` steps
/// to reach the opposite well (Theorem 3.5); a replica-exchange ensemble
/// across a geometric β-ladder crosses through its hot rungs and hands the
/// crossing down by Metropolis-accepted state swaps.
///
/// The single-chain baseline is *exact* — the expected hitting time of the
/// opposite well solved by LU on the flat chain, per ladder rung — so the
/// comparison is against closed-form Markov-chain theory, not a lucky
/// simulation. The tempered cost is measured: independent tempering
/// ensembles run until the **cold** replica first sits in the opposite well,
/// and every replica's ticks are charged (total engine steps = K × ticks).
pub fn e13_tempering(fast: bool) -> String {
    use logit_anneal::BetaLadder;
    use logit_core::schedules::UniformSingle;
    use logit_core::TemperingEnsemble;
    use logit_markov::expected_hitting_times;
    use rand::Rng;

    let game = if fast {
        WellGame::plateau(6, 2.0)
    } else {
        WellGame::new(8, 4.0, 2.0)
    };
    let n = game.num_players();
    let dphi = game.max_global_variation();
    let beta_cold = if fast { 6.0 } else { 4.0 };
    let rungs = if fast { 5 } else { 6 };
    let ladder = BetaLadder::geometric(0.3, beta_cold, rungs);
    let trials = if fast { 24 } else { 48 };
    let sweep_ticks = n as u64;
    let max_rounds = 100_000u64;

    // Exact per-rung baseline: expected hitting time of the opposite well
    // from the all-zero well under the single uniform-selection logit chain.
    let space = game.profile_space();
    let start_idx = space.index_of(&vec![0usize; n]);
    let targets: Vec<usize> = space
        .indices()
        .filter(|&idx| game.in_opposite_well(&space.profile_of(idx)))
        .collect();
    let mut exact_table = Table::new(vec!["beta", "exact E[T_hit] (single chain)"]);
    let mut hit_cold = f64::NAN;
    for &beta in ladder.betas() {
        let chain = LogitDynamics::new(game.clone(), beta).transition_chain();
        let h = expected_hitting_times(&chain, &targets);
        exact_table.push_row(vec![f3(beta), format!("{:.3e}", h[start_idx])]);
        hit_cold = h[start_idx];
    }

    // Measured tempered cost: ticks (per replica) until the cold replica
    // first sits in the opposite well, averaged over independent ensembles.
    let ensemble = TemperingEnsemble::new(game.clone(), logit_core::Logit, ladder.betas());
    let mut rng = StdRng::seed_from_u64(0xE13);
    let mut ticks_sum = 0.0f64;
    let mut worst = 0u64;
    let mut stats = logit_core::SwapStats::new(rungs - 1);
    let mut timeouts = 0usize;
    for _ in 0..trials {
        let mut state = ensemble.init_state(&vec![0usize; n], rng.gen::<u64>());
        match ensemble.run_until(&UniformSingle, &mut state, sweep_ticks, max_rounds, |p| {
            game.in_opposite_well(p)
        }) {
            Some(ticks) => {
                ticks_sum += ticks as f64;
                worst = worst.max(ticks);
            }
            None => timeouts += 1,
        }
        stats.merge(state.swap_stats());
    }
    let hits = trials - timeouts;
    let mean_ticks = ticks_sum / hits.max(1) as f64;
    let total_steps = mean_ticks * rungs as f64;
    let speedup = hit_cold / total_steps;

    let mut tempered_table = Table::new(vec![
        "trials",
        "K",
        "mean ticks/replica",
        "worst",
        "total engine steps (K x ticks)",
        "speedup vs exact cold chain",
    ]);
    tempered_table.push_row(vec![
        format!("{hits}/{trials}"),
        rungs.to_string(),
        f1(mean_ticks),
        worst.to_string(),
        f1(total_steps),
        format!("{speedup:.1}x"),
    ]);

    let rates: Vec<String> = stats.rates().iter().map(|r| format!("{r:.2}")).collect();
    format!(
        "E13 — parallel tempering vs the Theorem 3.5 barrier, well game n={n}, deltaPhi={dphi}\n\n\
         Geometric beta-ladder {:?} (hot -> cold), swaps every {sweep_ticks} ticks.\n\n\
         Exact single-chain baseline (LU solve of E[T_hit(opposite well)] from all-zeros):\n\n{}\n\
         Tempered ensemble (measured, cold-replica first hit):\n\n{}\n\
         adjacent swap acceptance rates (hot -> cold): [{}]\n\
         PASS iff every trial hits, the speedup at beta_cold = {beta_cold} is >= 10x, and every\n\
         swap rate is bounded away from 0 (a connected ladder).\n",
        ladder
            .betas()
            .iter()
            .map(|b| (b * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        exact_table.render(),
        tempered_table.render(),
        rates.join(", "),
    )
}

/// E14 — coloured parallel revision: schedule × topology sweep of the new
/// block schedules (`RandomBlock(k)`, `ColouredBlocks`) against the
/// established ones, plus the exactness panel of the coloured round chain.
///
/// Part 1 (exact, small instances): per topology, the greedy and DSATUR
/// colourings (class counts against the `Δ + 1` bound) and the stationary
/// law of the coloured **round** chain versus Gibbs — the round is a
/// permuted sweep of commuting kernels, so for the logit rule it keeps
/// Gibbs stationary *exactly*, while the all-logit block chain's stationary
/// law visibly drifts (its TV from Gibbs is reported alongside).
///
/// Part 2 (simulation, large instances): adoption of the risk-dominant
/// strategy from the wrong consensus at a **matched update budget** across
/// schedules — one uniform/sweep tick is 1 update, a `RandomBlock(k)` tick
/// is `k`, an all-logit tick is `n`, and a coloured round is `n` spread
/// over `num_classes` ticks. The coloured rows are produced by the
/// genuinely parallel `step_coloured_pooled_bytes` engine path (the
/// simulator's persistent worker pool, honouring the `LOGIT_*` env
/// overrides), with bit-identity against the sequential class sweep
/// asserted in-process before the row is emitted.
pub fn e14_coloured_schedules(fast: bool) -> String {
    use logit_core::parallel::{coloring_for_game, ColouredBlocks, RandomBlock};
    use logit_core::schedules::{AllLogit, SystematicSweep, UniformSingle};
    use logit_core::Scratch;
    use logit_graphs::{dsatur_coloring, greedy_coloring};
    use logit_markov::stationary_distribution;

    let beta_exact = 1.0;

    // Part 1 — exact colourings + round-chain stationarity.
    let mut exact = Table::new(vec![
        "topology",
        "n",
        "Delta+1",
        "greedy",
        "dsatur",
        "TV(coloured round, Gibbs)",
        "TV(all-logit, Gibbs)",
    ]);
    let mut rng = StdRng::seed_from_u64(0xE14);
    let mut small: Vec<(String, Graph)> = vec![
        ("ring".into(), GraphBuilder::ring(5)),
        ("hypercube d=3".into(), GraphBuilder::hypercube(3)),
        (
            "ER(5, 0.5)".into(),
            GraphBuilder::connected_erdos_renyi(5, 0.5, &mut rng, 20),
        ),
    ];
    if !fast {
        small.push(("torus 3x3".into(), GraphBuilder::torus(3, 3)));
        small.push(("ring n=8".into(), GraphBuilder::ring(8)));
        small.push((
            "ER(7, 0.4)".into(),
            GraphBuilder::connected_erdos_renyi(7, 0.4, &mut rng, 20),
        ));
    }
    let mut worst_round_tv = 0.0f64;
    let mut best_block_tv = f64::INFINITY;
    for (name, graph) in &small {
        let game =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let greedy = greedy_coloring(graph);
        let dsatur = dsatur_coloring(graph);
        assert!(greedy.is_proper(graph) && dsatur.is_proper(graph));
        let d = LogitDynamics::new(game.clone(), beta_exact);
        let gibbs = d.gibbs();
        let round_tv = logit_markov::total_variation(
            &stationary_distribution(&d.transition_chain_coloured_round(&dsatur)),
            &gibbs,
        );
        let block_tv = logit_markov::total_variation(
            &stationary_distribution(&d.transition_chain_all_logit()),
            &gibbs,
        );
        worst_round_tv = worst_round_tv.max(round_tv);
        best_block_tv = best_block_tv.min(block_tv);
        exact.push_row(vec![
            name.clone(),
            graph.num_vertices().to_string(),
            (graph.max_degree() + 1).to_string(),
            greedy.num_classes().to_string(),
            dsatur.num_classes().to_string(),
            format!("{round_tv:.2e}"),
            format!("{block_tv:.2e}"),
        ]);
    }
    assert!(
        worst_round_tv < 1e-8,
        "the coloured round chain must keep Gibbs stationary, worst TV = {worst_round_tv:.2e}"
    );

    // Part 2 — schedule × topology adoption sweep at a matched update budget.
    let (side, hyper_d, er_n, rounds, replicas) = if fast {
        (16usize, 8u32, 256usize, 60u64, 8usize)
    } else {
        (48, 11, 2048, 200, 16)
    };
    let beta = 1.5;
    let mut rng = StdRng::seed_from_u64(0xE14 + 1);
    let topologies: Vec<(String, Graph)> = vec![
        ("ring".into(), GraphBuilder::ring(side * side)),
        ("torus".into(), GraphBuilder::torus(side, side)),
        (
            format!("hypercube d={hyper_d}"),
            GraphBuilder::hypercube(hyper_d as usize),
        ),
        (
            format!("ER({er_n}, 8/n)"),
            GraphBuilder::connected_erdos_renyi(er_n, 8.0 / er_n as f64, &mut rng, 10),
        ),
    ];
    let mut sim_table = Table::new(vec![
        "topology",
        "n",
        "classes",
        "schedule",
        "ticks",
        "updates",
        "adopted fraction (mean)",
    ]);
    let mut coloured_moved_total = 0usize;
    for (name, graph) in &topologies {
        let n = graph.num_vertices();
        let game =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let coloring = coloring_for_game(&game);
        let classes = coloring.num_classes();
        let updates = rounds * n as u64;
        let start = vec![1usize; n];
        let obs = StrategyFraction::new(0, "risk-dominant fraction");
        let sim = Simulator::new(0xE14, replicas);
        let d = LogitDynamics::new(game.clone(), beta);
        let mut push = |label: &str, ticks: u64, updates: u64, mean: f64| {
            sim_table.push_row(vec![
                name.clone(),
                n.to_string(),
                classes.to_string(),
                label.to_string(),
                ticks.to_string(),
                updates.to_string(),
                f3(mean),
            ]);
        };
        let mean = sim
            .run_profiles(&d, &UniformSingle, &start, updates, updates, &obs)
            .law()
            .mean();
        push("uniform single", updates, updates, mean);
        let mean = sim
            .run_profiles(&d, &SystematicSweep, &start, updates, updates, &obs)
            .law()
            .mean();
        push("systematic sweep", updates, updates, mean);
        let k = (n / 8).max(1);
        let ticks = updates / k as u64;
        let mean = sim
            .run_profiles(&d, &RandomBlock::new(k), &start, ticks, ticks, &obs)
            .law()
            .mean();
        push(
            &format!("random block k={k}"),
            ticks,
            ticks * k as u64,
            mean,
        );
        let mean = sim
            .run_profiles(&d, &AllLogit, &start, rounds, rounds, &obs)
            .law()
            .mean();
        push("all-logit (block)", rounds, rounds * n as u64, mean);
        // ColouredBlocks through the generic scheduled engine (shared
        // stream)...
        let ticks = rounds * classes as u64;
        let mean = sim
            .run_profiles(
                &d,
                &ColouredBlocks::new(coloring.clone()),
                &start,
                ticks,
                ticks,
                &obs,
            )
            .law()
            .mean();
        push("coloured blocks", ticks, rounds * n as u64, mean);
        // ...and through the genuinely parallel per-player-stream engine
        // path, routed over the simulator's persistent worker pool (worker
        // count and wait policy honour the LOGIT_* env overrides — the CI
        // pool smoke drives this with LOGIT_WORKERS=2): the same replica
        // count as every other row (one deterministic seed per replica, so
        // the column stays an ensemble mean and the rows are comparable
        // like-for-like), with bit-identity against the sequential class
        // sweep asserted on every tick of the first replica before the row
        // is emitted.
        let mut scratch = Scratch::for_game(&game);
        let mut pooled_scratch = Scratch::for_game(&game);
        let mut moved = 0usize;
        let mut adopted_sum = 0.0f64;
        let pool = sim.pool();
        let start_bytes: Vec<u8> = start.iter().map(|&s| s as u8).collect();
        for replica in 0..replicas {
            let seed = 0xE14C ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut pooled = start_bytes.clone();
            let mut check = (replica == 0).then(|| start.clone());
            for t in 0..ticks {
                moved += d.step_coloured_pooled_bytes(
                    &coloring,
                    t,
                    seed,
                    None,
                    &mut pooled,
                    &mut pooled_scratch,
                    pool,
                    sim.runtime(),
                );
                if let Some(seq) = check.as_mut() {
                    d.step_coloured(&coloring, t, seed, seq, &mut scratch);
                    assert!(
                        pooled
                            .iter()
                            .zip(seq.iter())
                            .all(|(&b, &s)| b as usize == s),
                        "step_coloured_pooled_bytes diverged from the class sweep"
                    );
                }
            }
            adopted_sum += pooled.iter().filter(|&&s| s == 0).count() as f64 / n as f64;
        }
        coloured_moved_total += moved;
        push(
            "coloured par (engine)",
            ticks,
            rounds * n as u64,
            adopted_sum / replicas as f64,
        );
    }
    assert!(
        coloured_moved_total > 0,
        "the coloured engine path must move"
    );

    format!(
        "E14 — coloured parallel revision: block schedules x topologies (delta0=2, delta1=1)\n\n\
         Exact panel (beta = {beta_exact}): colour-class counts against Delta+1, and the stationary law\n\
         of one coloured round (DSATUR classes, ordered block product) vs the all-logit block chain.\n\n{}\n\
         worst coloured-round TV from Gibbs = {worst_round_tv:.2e}; smallest all-logit TV = {best_block_tv:.2e}\n\n\
         Simulation panel (beta = {beta}, {replicas} replicas, {rounds} rounds of n updates each, started\n\
         from the wrong consensus): adoption of the risk-dominant strategy at a matched update budget.\n\
         The parallel-engine rows run step_coloured_pooled_bytes (per-player RNG streams, frozen-profile\n\
         blocks, persistent worker pool) over the same replica count as the other rows — the column\n\
         is an ensemble mean everywhere — with bit-identity against the sequential class sweep\n\
         asserted per tick.\n\n{}\n\
         PASS iff every topology produces one row per schedule, the coloured round keeps Gibbs\n\
         stationary to < 1e-8 while the all-logit block chain does not ({best_block_tv:.1e} >> 0), and the\n\
         parallel engine path never diverges from the sequential sweep (asserted, not just printed).\n",
        exact.render(),
        sim_table.render(),
    )
}

/// Gibbs-measure sanity panel printed alongside the suite: stationary mass of
/// the consensus profiles on ring vs clique as β grows (the "who wins" picture).
pub fn stationary_panel(fast: bool) -> String {
    let n = if fast { 4 } else { 6 };
    let game = GraphicalCoordinationGame::new(
        GraphBuilder::ring(n),
        CoordinationGame::from_deltas(2.0, 1.0),
    );
    let space = game.profile_space();
    let zero = space.index_of(&vec![0usize; n]);
    let one = space.index_of(&vec![1usize; n]);
    let mut table = Table::new(vec!["beta", "pi(all-0) [risk dom.]", "pi(all-1)"]);
    for beta in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let pi = gibbs_distribution(&game, beta);
        table.push_row(vec![
            f3(beta),
            format!("{:.6}", pi[zero]),
            format!("{:.6}", pi[one]),
        ]);
    }
    format!(
        "Stationary-distribution panel (ring n={n}, delta0=2, delta1=1)\n\n{}\nAs beta grows the Gibbs measure concentrates on the risk-dominant consensus, as in Blume's analysis.\n",
        table.render()
    )
}

/// Transient-phase panel: when the mixing time is exponential the system spends
/// its life in a metastable phase (the conclusions' closing discussion). The
/// panel tracks the ensemble-averaged fraction of players on the risk-dominant
/// strategy on a clique at high β, started from the *wrong* consensus: it stays
/// pinned near 0 for a time exponential in β while the stationary value is ≈ 1.
pub fn transient_panel(fast: bool) -> String {
    use logit_core::observables::{ensemble_time_series, StrategyFraction};

    let n = if fast { 4 } else { 6 };
    let beta = if fast { 2.0 } else { 2.5 };
    let game = GraphicalCoordinationGame::new(
        GraphBuilder::clique(n),
        CoordinationGame::from_deltas(2.0, 1.0),
    );
    let space = game.profile_space();
    let wrong_consensus = space.index_of(&vec![1usize; n]);
    let pi = gibbs_distribution(&game, beta);
    let stationary_fraction: f64 = space
        .indices()
        .map(|idx| {
            let zeros = (0..n).filter(|&i| space.strategy_of(idx, i) == 0).count();
            pi[idx] * zeros as f64 / n as f64
        })
        .sum();

    let dynamics = LogitDynamics::new(game.clone(), beta);
    let observable = StrategyFraction::new(0, "risk-dominant fraction");
    let record: Vec<u64> = vec![1, 10, 100, 1_000, 10_000];
    let replicas = if fast { 200 } else { 500 };
    let series = ensemble_time_series(
        &dynamics,
        &observable,
        wrong_consensus,
        &record,
        replicas,
        17,
    );

    let mut table = Table::new(vec![
        "t",
        "mean fraction on risk-dominant strategy",
        "std err",
    ]);
    for (t, stat) in record.iter().zip(&series.stats) {
        table.push_row(vec![
            t.to_string(),
            format!("{:.4}", stat.mean()),
            format!("{:.4}", stat.std_err()),
        ]);
    }
    format!(
        "Transient-phase panel — clique n={n}, beta={beta}, started from the wrong consensus\n\nstationary expected fraction on the risk-dominant strategy = {stationary_fraction:.4}\n\n{}\nThe ensemble stays pinned near 0 (metastable in the wrong consensus) for times far\nbeyond the fast-mixing scale, while the stationary value is close to 1 — the transient\nphase the conclusions point to, and the reason the Theorem 5.5 mixing time is exponential.\n",
        table.render()
    )
}

/// All experiment reports, in order, as `(id, report)` pairs.
pub fn all_reports(fast: bool) -> Vec<(&'static str, String)> {
    vec![
        ("E1", e1_eigenvalues(fast)),
        ("E2", e2_beta_zero(fast)),
        ("E3", e3_all_beta_bound(fast)),
        ("E4", e4_lower_bound(fast)),
        ("E5", e5_small_beta(fast)),
        ("E6", e6_zeta(fast)),
        ("E7", e7_dominant(fast)),
        ("E8", e8_cutwidth(fast)),
        ("E9", e9_clique(fast)),
        ("E10", e10_ring(fast)),
        ("E11", e11_large_ring(fast)),
        ("E12", e12_cross_rule(fast)),
        ("E13", e13_tempering(fast)),
        ("E14", e14_coloured_schedules(fast)),
        ("Stationary", stationary_panel(fast)),
        ("Transient", transient_panel(fast)),
    ]
}

/// Extracts the single simulation-based check used by the run-all binary: a
/// parallel ensemble of the ring game approaches the Gibbs measure.
pub fn simulation_check(fast: bool) -> String {
    let n = if fast { 4 } else { 6 };
    let beta = 0.8;
    let game =
        GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::symmetric(1.0));
    let pi = gibbs_distribution(&game, beta);
    let dynamics = LogitDynamics::new(game.clone(), beta);
    let replicas = if fast { 2000 } else { 20_000 };
    let sim = logit_core::Simulator::new(99, replicas);
    let mut table = Table::new(vec!["steps", "TV(empirical, Gibbs)"]);
    for steps in [1u64, 4, 16, 64, 256, 1024] {
        let tv = sim.tv_distance_after(&dynamics, 0, steps, &pi);
        table.push_row(vec![steps.to_string(), format!("{tv:.4}")]);
    }
    format!(
        "Simulation panel — parallel ensemble ({replicas} replicas) of the ring game at beta = {beta}\n\n{}\nThe empirical law of X_t converges to the Gibbs measure as t grows (residual ~ sampling noise).\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fast variants of every experiment must run and produce the PASS
    // conditions they print. These are smoke tests for the harness; the
    // quantitative assertions live in the workspace integration tests.

    #[test]
    fn e1_and_e2_fast_reports_have_rows() {
        let r1 = e1_eigenvalues(true);
        assert!(r1.contains("Theorem 3.1"));
        assert!(r1.matches("true").count() >= 4);
        let r2 = e2_beta_zero(true);
        assert!(r2.lines().count() > 5);
    }

    #[test]
    fn e3_to_e6_fast_reports_have_rows() {
        for report in [
            e3_all_beta_bound(true),
            e4_lower_bound(true),
            e5_small_beta(true),
            e6_zeta(true),
        ] {
            assert!(report.contains("beta"));
            assert!(report.lines().count() > 5, "report too short:\n{report}");
            assert!(
                !report.contains("> budget"),
                "an experiment exceeded its budget:\n{report}"
            );
        }
    }

    #[test]
    fn e12_fast_report_covers_every_rule_through_both_engines() {
        let report = e12_cross_rule(true);
        // Labels are matched with a leading space (table cells are padded) so
        // the bare-rule rows are counted separately from "all-logit (block)".
        for label in [
            " logit ",
            " metropolis ",
            " nbr(0.10) ",
            " fermi ",
            " imitate(0.10) ",
            "all-logit (block)",
        ] {
            // Each rule/schedule appears in both the exact and the simulated
            // table: twice per topology in part 1, once per topology in part 2.
            assert!(
                report.matches(label).count() >= 4,
                "{label:?} missing from the cross-rule report"
            );
        }
        assert!(report.contains("ring"));
        assert!(report.contains("clique"));
        assert!(!report.contains("> budget"), "an exact chain did not mix");
    }

    #[test]
    fn e11_fast_report_simulates_beyond_flat_capacity() {
        let report = e11_large_ring(true);
        assert!(report.contains("in-place profile engine"));
        // The PASS condition on cross-n throughput is actually enforced.
        let spread: f64 = report
            .lines()
            .find(|l| l.starts_with("throughput spread"))
            .and_then(|l| l.split('=').nth(1))
            .expect("spread line present")
            .trim()
            .parse()
            .expect("spread parses");
        assert!(
            spread < 10.0,
            "per-step cost must not scale with n (spread = {spread})"
        );
        // Both fast grid sizes produce a data row.
        assert!(report.contains("1000"), "n=1000 row missing:\n{report}");
        assert!(report.contains("10000"), "n=10000 row missing:\n{report}");
        // Adoption of the risk-dominant strategy happens at beta = 1.5. The
        // fast grid gives n = 1000 fifty updates per player — enough to near
        // consensus (n = 10000 only gets five, so it is still in transit).
        let mean: f64 = report
            .lines()
            .find(|l| l.trim_start().starts_with("1000 "))
            .and_then(|l| l.split_whitespace().nth(5))
            .expect("adopters column present")
            .parse()
            .expect("adopters mean parses");
        assert!(
            mean > 0.5,
            "risk-dominant adoption should exceed one half, got {mean}"
        );
    }

    #[test]
    fn e13_fast_report_shows_at_least_tenfold_tempering_speedup() {
        let report = e13_tempering(true);
        assert!(report.contains("parallel tempering"));
        // The acceptance criterion is enforced, not just printed: the cold
        // replica of the tempered ensemble reaches the opposite well in >= 10x
        // fewer total engine steps than the exact single chain at beta_cold.
        let speedup: f64 = report
            .lines()
            .flat_map(|l| l.split_whitespace())
            .find(|w| w.ends_with('x') && w.chars().next().unwrap().is_ascii_digit())
            .expect("speedup cell present")
            .trim_end_matches('x')
            .parse()
            .expect("speedup parses");
        assert!(
            speedup >= 10.0,
            "tempering should beat the exponential barrier by >= 10x, got {speedup}x"
        );
        // Every trial hit the opposite well within the budget.
        assert!(report.contains("24/24"), "all trials must hit:\n{report}");
        // The ladder is connected: no swap rate collapsed to zero.
        let rates_line = report
            .lines()
            .find(|l| l.starts_with("adjacent swap acceptance"))
            .expect("swap-rate line present");
        let rates: Vec<f64> = rates_line
            .split('[')
            .nth(1)
            .unwrap()
            .trim_end_matches(']')
            .split(',')
            .map(|r| r.trim().parse().expect("rate parses"))
            .collect();
        assert_eq!(rates.len(), 4, "K = 5 rungs give 4 adjacent pairs");
        assert!(
            rates.iter().all(|&r| r > 0.05),
            "swap rates must stay bounded away from 0, got {rates:?}"
        );
    }

    #[test]
    fn e14_fast_report_sweeps_schedules_across_topologies() {
        // The in-process assertions (round-chain stationarity, parallel
        // bit-identity) must already have held for the report to exist.
        let report = e14_coloured_schedules(true);
        for schedule in [
            "uniform single",
            "systematic sweep",
            "random block",
            "all-logit (block)",
            "coloured blocks",
            "coloured par (engine)",
        ] {
            assert_eq!(
                report.matches(schedule).count(),
                4,
                "{schedule:?} must appear once per topology"
            );
        }
        for topology in [" ring ", " torus ", "hypercube", "ER("] {
            assert!(report.contains(topology), "{topology:?} row missing");
        }
        // The exactness contrast is quantitative: the coloured round fixes
        // Gibbs, the all-logit block chain does not.
        let worst: f64 = report
            .lines()
            .find(|l| l.starts_with("worst coloured-round TV"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|v| v.split(';').next())
            .expect("worst-TV line present")
            .trim()
            .parse()
            .expect("worst TV parses");
        assert!(worst < 1e-8, "coloured round drifted from Gibbs: {worst}");
        let smallest_block: f64 = report
            .lines()
            .find(|l| l.starts_with("worst coloured-round TV"))
            .and_then(|l| l.rsplit('=').next())
            .expect("smallest block TV present")
            .trim()
            .parse()
            .expect("block TV parses");
        assert!(
            smallest_block > 1e-3,
            "the all-logit stationary law should visibly differ at beta = 1, got {smallest_block}"
        );
    }

    #[test]
    fn e7_to_e10_fast_reports_have_rows() {
        for report in [
            e7_dominant(true),
            e8_cutwidth(true),
            e9_clique(true),
            e10_ring(true),
        ] {
            assert!(report.lines().count() > 5);
        }
    }

    #[test]
    fn panels_render() {
        assert!(stationary_panel(true).contains("pi(all-0)"));
        assert!(simulation_check(true).contains("TV"));
    }

    #[test]
    fn transient_panel_shows_metastability() {
        let report = transient_panel(true);
        assert!(report.contains("stationary expected fraction"));
        // The early-time rows should show a fraction close to zero (trapped in
        // the wrong consensus) — check the t=1 row mentions 0.0-something.
        let first_row = report
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .expect("t=1 row present");
        let mean: f64 = first_row
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            mean < 0.2,
            "at t=1 the ensemble should still be trapped, mean = {mean}"
        );
    }
}
