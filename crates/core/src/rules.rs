//! Pluggable revision rules: how a selected player resamples her strategy.
//!
//! The paper studies *logit dynamics* — the softmax update of eq. (2) — but
//! its metastability and mixing results are routinely compared against other
//! noisy revision processes on the same game: Metropolis-style chains (same
//! Gibbs stationary distribution, different transition kernel) and noisy
//! best-response dynamics (the mutation model of evolutionary game theory).
//! The [`UpdateRule`] trait is the seam that makes those comparisons
//! expressible: a rule turns the utility vector of the updating player into
//! the distribution her next strategy is drawn from, and everything else —
//! both simulation engines, the exact chain constructions, ensembles, sweeps,
//! annealing — is generic over it (see
//! [`DynamicsEngine`](crate::dynamics::DynamicsEngine)).
//!
//! A rule fills a probability vector from `(β, current strategy, utilities)`.
//! The utilities arrive through the games' batch `utilities_for` hook, so a
//! rule never touches the game itself and costs `O(|S_i|)` per call. On a
//! game with a [`CountKernel`](logit_games::CountKernel) (the graphical
//! coordination and Ising games) the engine calls the rule only when it
//! builds its count table, `2·(d + 1)` times per distinct degree `d`, and
//! an update is a table load; annealing, whose `β` changes every step,
//! calls it on every update.

/// A single-player revision rule: given the inverse noise `β`, the player's
/// current strategy and the utilities of all her strategies (opponents
/// fixed), produces the distribution her next strategy is sampled from.
///
/// Contract: after `fill_probs(beta, current, utils, probs)`,
/// `probs.len() == utils.len()`, every entry is finite and non-negative, and
/// the entries sum to 1 (up to rounding). `current < utils.len()` always
/// holds at the call sites. `fill_probs` is a pure function of its
/// arguments: the same `(beta, current, utils)` always gives the same bits.
/// The engines' count tables rely on that, since they call it once per
/// table entry and replay the result on every update that meets the entry.
pub trait UpdateRule: std::fmt::Debug + Clone + Send + Sync {
    /// Fills `probs` (cleared first) with the update distribution.
    fn fill_probs(&self, beta: f64, current: usize, utils: &[f64], probs: &mut Vec<f64>);

    /// Short identifier used in reports and benchmark rows.
    fn name(&self) -> &'static str;
}

/// The logit (Glauber/softmax) rule of eq. (2) — the paper's dynamics:
/// `σ_i(y | x) ∝ e^{β·u_i(y, x_{-i})}`, independent of the current strategy.
///
/// Numerically stable via the usual log-sum-exp shift, so large `β·u` values
/// do not overflow. Where the largest `β·u` itself overflows to `±∞` the
/// shift cannot help, and the rule returns the `β → ∞` limit instead:
/// uniform over the strategies of largest utility. For potential games the
/// induced (uniform-selection) chain is reversible with respect to the
/// Gibbs measure `π(x) ∝ e^{-βΦ(x)}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Logit;

impl UpdateRule for Logit {
    fn fill_probs(&self, beta: f64, _current: usize, utils: &[f64], probs: &mut Vec<f64>) {
        let max = utils
            .iter()
            .map(|&u| beta * u)
            .fold(f64::NEG_INFINITY, f64::max);
        probs.clear();
        if !max.is_finite() {
            // `∞ − ∞` would fill NaNs. Several `β·u` can be `±∞` at once, so
            // the ties are taken on `u`.
            let best = utils.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let ties = utils.iter().filter(|&&u| u == best).count() as f64;
            probs.extend(
                utils
                    .iter()
                    .map(|&u| if u == best { 1.0 / ties } else { 0.0 }),
            );
            return;
        }
        probs.extend(utils.iter().map(|&u| (beta * u - max).exp()));
        let total: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= total;
        }
    }

    fn name(&self) -> &'static str {
        "logit"
    }
}

/// The Metropolis rule at inverse noise `β`: propose a strategy uniformly at
/// random and accept with probability `min(1, e^{β·(u(y) − u(current))})`;
/// rejected proposals (and proposing the current strategy) stay put.
///
/// For potential games the induced (uniform-selection) chain is — like the
/// logit chain — reversible with respect to the *same* Gibbs measure
/// `π(x) ∝ e^{-βΦ(x)}`: the two dynamics share a stationary distribution but
/// not a kernel, which is exactly what makes their mixing comparison
/// interesting (Metropolis chains can have negative eigenvalues; Theorem 3.1
/// is special to the logit kernel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetropolisLogit;

impl UpdateRule for MetropolisLogit {
    fn fill_probs(&self, beta: f64, current: usize, utils: &[f64], probs: &mut Vec<f64>) {
        let m = utils.len();
        probs.clear();
        probs.resize(m, 0.0);
        let u_cur = utils[current];
        let mut stay = 0.0;
        for (s, &u) in utils.iter().enumerate() {
            if s == current {
                continue;
            }
            // min(1, e^{βΔu}) is safe even when βΔu overflows to +∞.
            let accept = (beta * (u - u_cur)).exp().min(1.0);
            let move_prob = accept / m as f64;
            probs[s] = move_prob;
            stay += move_prob;
        }
        probs[current] = 1.0 - stay;
    }

    fn name(&self) -> &'static str {
        "metropolis"
    }
}

/// Noisy best response with mutation rate `ε`: with probability `1 − ε` pick
/// uniformly among the utility-maximising strategies, with probability `ε`
/// pick uniformly among all strategies.
///
/// `β` is ignored — the noise level is `ε` itself. The induced chain is
/// ergodic for `ε > 0` but is *not* reversible with respect to the Gibbs
/// measure in general; its stationary distribution is obtained by a linear
/// solve (see [`exact_mixing_time_with_rule`](crate::estimate::exact_mixing_time_with_rule)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyBestResponse {
    epsilon: f64,
}

impl NoisyBestResponse {
    /// Creates the rule with mutation rate `ε ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics when `ε` is outside `[0, 1]` or not finite. `ε = 0` (pure best
    /// response) is allowed but yields a non-ergodic chain on most games.
    pub fn new(epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
        Self { epsilon }
    }

    /// The mutation rate `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Default for NoisyBestResponse {
    /// `ε = 0.1`, a conventional mutation rate.
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl UpdateRule for NoisyBestResponse {
    fn fill_probs(&self, _beta: f64, _current: usize, utils: &[f64], probs: &mut Vec<f64>) {
        let m = utils.len();
        probs.clear();
        probs.resize(m, self.epsilon / m as f64);
        let best = utils.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ties = utils.iter().filter(|&&u| u == best).count();
        let share = (1.0 - self.epsilon) / ties as f64;
        for (s, &u) in utils.iter().enumerate() {
            if u == best {
                probs[s] += share;
            }
        }
    }

    fn name(&self) -> &'static str {
        "noisy_best_response"
    }
}

/// The Fermi (pairwise-comparison) rule of evolutionary game theory:
/// propose a strategy uniformly at random — the mean-field form of sampling
/// a co-player and considering her strategy — and adopt it with the
/// logistic probability `1 / (1 + e^{−β·(u(y) − u(current))})` of the
/// payoff difference; otherwise stay.
///
/// The acceptance ratio `a(Δ)/a(−Δ) = e^{βΔ}` is the same as the logit and
/// Metropolis rules', so for potential games the uniform-selection chain is
/// — like theirs — reversible with respect to the Gibbs measure
/// `π(x) ∝ e^{−βΦ(x)}`: a third kernel sharing the stationary law, with
/// its own mixing behaviour (at `Δ = 0` it moves with probability ½ where
/// Metropolis always accepts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fermi;

impl UpdateRule for Fermi {
    fn fill_probs(&self, beta: f64, current: usize, utils: &[f64], probs: &mut Vec<f64>) {
        let m = utils.len();
        probs.clear();
        probs.resize(m, 0.0);
        let u_cur = utils[current];
        let mut stay = 0.0;
        for (s, &u) in utils.iter().enumerate() {
            if s == current {
                continue;
            }
            // 1/(1 + e^{-βΔ}) is safe at both extremes: e^{±∞} gives 0 or 1.
            let accept = 1.0 / (1.0 + (-(beta * (u - u_cur))).exp());
            let move_prob = accept / m as f64;
            probs[s] = move_prob;
            stay += move_prob;
        }
        probs[current] = 1.0 - stay;
    }

    fn name(&self) -> &'static str {
        "fermi"
    }
}

/// Imitate-the-better with mutation rate `ε`: propose a strategy uniformly
/// at random (the strategy of a sampled co-player, in the mean-field view)
/// and copy it **iff it strictly improves** the current payoff; with
/// probability `ε` mutate to a uniformly random strategy instead.
///
/// `β` is ignored — the payoff difference only enters through its sign, the
/// deterministic limit of the [`Fermi`] comparison. The induced chain is
/// ergodic for `ε > 0` but (like noisy best response) not reversible with
/// respect to the Gibbs measure; its stationary law comes from a linear
/// solve on the exact chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImitateBetter {
    epsilon: f64,
}

impl ImitateBetter {
    /// Creates the rule with mutation rate `ε ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics when `ε` is outside `[0, 1]` or not finite. `ε = 0` (pure
    /// imitation) is allowed but absorbs at local optima on most games.
    pub fn new(epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
        Self { epsilon }
    }

    /// The mutation rate `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Default for ImitateBetter {
    /// `ε = 0.1`, matching the conventional mutation rate of
    /// [`NoisyBestResponse`].
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl UpdateRule for ImitateBetter {
    fn fill_probs(&self, _beta: f64, current: usize, utils: &[f64], probs: &mut Vec<f64>) {
        let m = utils.len();
        probs.clear();
        probs.resize(m, self.epsilon / m as f64);
        let u_cur = utils[current];
        // Proposing the current strategy (probability 1/m) always stays.
        let mut stay = (self.epsilon + (1.0 - self.epsilon)) / m as f64;
        for (s, &u) in utils.iter().enumerate() {
            if s == current {
                continue;
            }
            if u > u_cur {
                probs[s] += (1.0 - self.epsilon) / m as f64;
            } else {
                stay += (1.0 - self.epsilon) / m as f64;
            }
        }
        probs[current] = stay;
    }

    fn name(&self) -> &'static str {
        "imitate_better"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_distribution(probs: &[f64]) {
        assert!(probs.iter().all(|p| p.is_finite() && *p >= -1e-15));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn logit_is_softmax() {
        let mut probs = Vec::new();
        Logit.fill_probs(1.0, 0, &[1.0, 0.0], &mut probs);
        let e = 1.0f64.exp();
        assert!((probs[0] - e / (e + 1.0)).abs() < 1e-12);
        assert_distribution(&probs);
        assert_eq!(Logit.name(), "logit");
    }

    #[test]
    fn logit_takes_the_zero_noise_limit_when_beta_u_overflows() {
        // β·u = ±∞ for every strategy: the shifted exponents would be
        // `∞ − ∞`. The limit is the argmax of `u`, ties split evenly.
        let mut probs = Vec::new();
        Logit.fill_probs(1e308, 0, &[2.0, 0.0], &mut probs);
        assert_eq!(probs, vec![1.0, 0.0]);
        Logit.fill_probs(1e308, 0, &[-2.0, -4.0], &mut probs);
        assert_eq!(probs, vec![1.0, 0.0]);
        Logit.fill_probs(1e308, 0, &[0.0, 2.0], &mut probs);
        assert_eq!(probs, vec![0.0, 1.0]);
        Logit.fill_probs(1e308, 1, &[2.0, 2.0], &mut probs);
        assert_eq!(probs, vec![0.5, 0.5]);
    }

    #[test]
    fn logit_beta_zero_is_uniform() {
        let mut probs = Vec::new();
        Logit.fill_probs(0.0, 1, &[5.0, -3.0, 0.5], &mut probs);
        for p in &probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn metropolis_accepts_improvements_and_discounts_losses() {
        let mut probs = Vec::new();
        // current = 1 with utility 0; strategy 0 improves by 1, strategy 2 loses 1.
        MetropolisLogit.fill_probs(2.0, 1, &[1.0, 0.0, -1.0], &mut probs);
        assert!((probs[0] - 1.0 / 3.0).abs() < 1e-12, "improvement accepted");
        assert!((probs[2] - (-2.0f64).exp() / 3.0).abs() < 1e-12);
        assert!((probs[1] - (1.0 - probs[0] - probs[2])).abs() < 1e-12);
        assert_distribution(&probs);
    }

    #[test]
    fn metropolis_survives_huge_beta() {
        let mut probs = Vec::new();
        MetropolisLogit.fill_probs(1e9, 0, &[0.0, 1000.0, -1000.0], &mut probs);
        assert_distribution(&probs);
        assert!(
            (probs[1] - 1.0 / 3.0).abs() < 1e-12,
            "uphill proposal always accepted: proposal mass 1/m"
        );
        assert_eq!(probs[2], 0.0, "downhill proposal fully rejected");
    }

    #[test]
    fn metropolis_beta_zero_is_uniform() {
        let mut probs = Vec::new();
        MetropolisLogit.fill_probs(0.0, 2, &[3.0, -1.0, 0.0], &mut probs);
        for p in &probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn noisy_best_response_mixes_argmax_and_mutation() {
        let rule = NoisyBestResponse::new(0.3);
        let mut probs = Vec::new();
        rule.fill_probs(7.0, 0, &[0.0, 2.0, 1.0], &mut probs);
        assert!((probs[1] - (0.7 + 0.1)).abs() < 1e-12);
        assert!((probs[0] - 0.1).abs() < 1e-12);
        assert_distribution(&probs);
        assert_eq!(rule.epsilon(), 0.3);
    }

    #[test]
    fn noisy_best_response_splits_ties() {
        let rule = NoisyBestResponse::new(0.2);
        let mut probs = Vec::new();
        rule.fill_probs(1.0, 0, &[5.0, 5.0, 0.0], &mut probs);
        assert!((probs[0] - (0.4 + 0.2 / 3.0)).abs() < 1e-12);
        assert!((probs[1] - probs[0]).abs() < 1e-15);
        assert_distribution(&probs);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn noisy_best_response_rejects_bad_epsilon() {
        let _ = NoisyBestResponse::new(1.5);
    }

    #[test]
    fn rules_reuse_the_probs_buffer() {
        let mut probs = vec![9.0; 17];
        Logit.fill_probs(1.0, 0, &[0.0, 0.0], &mut probs);
        assert_eq!(probs.len(), 2);
        MetropolisLogit.fill_probs(1.0, 0, &[0.0, 0.0, 0.0], &mut probs);
        assert_eq!(probs.len(), 3);
        NoisyBestResponse::default().fill_probs(1.0, 0, &[0.0], &mut probs);
        assert_eq!(probs.len(), 1);
        assert!((probs[0] - 1.0).abs() < 1e-12);
        Fermi.fill_probs(1.0, 0, &[0.0, 0.0, 0.0, 0.0], &mut probs);
        assert_eq!(probs.len(), 4);
        ImitateBetter::default().fill_probs(1.0, 1, &[0.0, 0.0], &mut probs);
        assert_eq!(probs.len(), 2);
    }

    #[test]
    fn fermi_accepts_with_the_logistic_of_the_payoff_difference() {
        let mut probs = Vec::new();
        // current = 1 at utility 0; strategy 0 improves by 1, strategy 2 loses 1.
        Fermi.fill_probs(2.0, 1, &[1.0, 0.0, -1.0], &mut probs);
        let up = 1.0 / (1.0 + (-2.0f64).exp());
        let down = 1.0 / (1.0 + 2.0f64.exp());
        assert!((probs[0] - up / 3.0).abs() < 1e-12);
        assert!((probs[2] - down / 3.0).abs() < 1e-12);
        assert!((probs[1] - (1.0 - probs[0] - probs[2])).abs() < 1e-12);
        assert_distribution(&probs);
        // The detailed-balance ratio of the acceptances is e^{βΔ} (here
        // β = 2, Δ = 1), like the logit and Metropolis rules.
        assert!((up / down - 2.0f64.exp()).abs() < 1e-9);
        assert_eq!(Fermi.name(), "fermi");
    }

    #[test]
    fn fermi_moves_with_probability_half_on_ties_and_survives_huge_beta() {
        let mut probs = Vec::new();
        Fermi.fill_probs(5.0, 0, &[1.0, 1.0], &mut probs);
        assert!((probs[1] - 0.25).abs() < 1e-12, "tie accepted at rate 1/2");
        Fermi.fill_probs(1e9, 0, &[0.0, 1000.0, -1000.0], &mut probs);
        assert_distribution(&probs);
        assert!(
            (probs[1] - 1.0 / 3.0).abs() < 1e-12,
            "uphill fully accepted"
        );
        assert_eq!(probs[2], 0.0, "downhill fully rejected");
        // β = 0: every proposal accepted at rate 1/2.
        Fermi.fill_probs(0.0, 0, &[3.0, -1.0, 0.5], &mut probs);
        assert!((probs[1] - 0.5 / 3.0).abs() < 1e-12);
        assert!((probs[2] - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn imitate_better_copies_strict_improvements_only() {
        let rule = ImitateBetter::new(0.3);
        let mut probs = Vec::new();
        // current = 0 at utility 1; strategy 1 improves, strategy 2 ties.
        rule.fill_probs(9.0, 0, &[1.0, 2.0, 1.0], &mut probs);
        assert!((probs[1] - (0.7 / 3.0 + 0.1)).abs() < 1e-12);
        assert!((probs[2] - 0.1).abs() < 1e-12, "ties are not copied");
        assert_distribution(&probs);
        assert_eq!(rule.epsilon(), 0.3);
        assert_eq!(rule.name(), "imitate_better");
        // Pure imitation at a local optimum stays put entirely.
        let pure = ImitateBetter::new(0.0);
        pure.fill_probs(1.0, 1, &[0.0, 5.0, 0.0], &mut probs);
        assert_eq!(probs, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn imitate_better_rejects_bad_epsilon() {
        let _ = ImitateBetter::new(-0.1);
    }
}
