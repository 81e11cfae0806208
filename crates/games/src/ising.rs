//! The Ising model as a strategic game.
//!
//! The paper's related-work discussion observes that the Ising model "can be seen
//! as a special graphical coordination game without risk dominant equilibria, and
//! the Glauber dynamics on the Ising model is equivalent to the logit dynamics".
//! [`IsingGame`] makes this concrete: players are vertices of a graph, strategies
//! `{0, 1}` map to spins `{-1, +1}`, and
//!
//! `u_i(x) = J · Σ_{j ∈ N(i)} σ_i σ_j + h · σ_i`
//!
//! with ferromagnetic coupling `J > 0` and external field `h`. The exact
//! potential (cost convention) is `Φ(x) = -J·Σ_{(u,v) ∈ E} σ_u σ_v - h·Σ_i σ_i`,
//! computed from two exact integers, the spin-product sum and the up-spin
//! count: the [`PotentialTally`] a move updates from the mover's degree
//! and up-spin neighbours alone.
//!
//! With `h = 0` this is, up to a constant per-edge shift, the graphical
//! coordination game with `δ₀ = δ₁ = 2J` — the constant shift changes neither
//! the logit update probabilities nor the Gibbs measure. Like the graphical
//! game, the model holds its graph only as a shared `Arc<CsrGraph>`.

use crate::game::{CountKernel, Game, PotentialGame, PotentialTally};
use crate::graphical::ones_in;
use logit_graphs::CsrGraph;
use std::sync::Arc;

/// Ferromagnetic Ising model on a graph, viewed as a potential game.
#[derive(Debug, Clone)]
pub struct IsingGame {
    /// The graph, frozen to CSR and shared: cloning the game copies the
    /// pointer, not the rows.
    csr: Arc<CsrGraph>,
    coupling: f64,
    field: f64,
}

/// Why an Ising description was rejected: the typed counterpart of the
/// constructor `assert!`s, for admission-time validation in service
/// contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsingError {
    /// The coupling `J` was not strictly positive (or not a number) — the
    /// paper's logit/Glauber correspondence is for the ferromagnetic case.
    NonPositiveCoupling,
    /// The graph had no vertices.
    NoSpins,
}

impl std::fmt::Display for IsingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsingError::NonPositiveCoupling => write!(f, "coupling J must be positive"),
            IsingError::NoSpins => write!(f, "need at least one spin"),
        }
    }
}

impl std::error::Error for IsingError {}

impl IsingGame {
    /// Creates an Ising game with coupling `J > 0` and external field `h`.
    /// The graph is either an owned [`logit_graphs::Graph`], frozen here, or
    /// an `Arc<CsrGraph>` the game then shares.
    ///
    /// # Panics
    /// Panics when `coupling <= 0` (the logit/Glauber correspondence in the paper
    /// is for the ferromagnetic case) or when the graph is empty. Use
    /// [`try_new`](Self::try_new) where the failure must be a value instead.
    pub fn new(graph: impl Into<Arc<CsrGraph>>, coupling: f64, field: f64) -> Self {
        match Self::try_new(graph, coupling, field) {
            Ok(game) => game,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`new`](Self::new): `Err` with a typed
    /// [`IsingError`] instead of panicking on a malformed description.
    pub fn try_new(
        graph: impl Into<Arc<CsrGraph>>,
        coupling: f64,
        field: f64,
    ) -> Result<Self, IsingError> {
        if coupling.is_nan() || coupling <= 0.0 {
            return Err(IsingError::NonPositiveCoupling);
        }
        let csr = graph.into();
        if csr.num_vertices() == 0 {
            return Err(IsingError::NoSpins);
        }
        Ok(Self {
            csr,
            coupling,
            field,
        })
    }

    /// Zero-field Ising model.
    pub fn zero_field(graph: impl Into<Arc<CsrGraph>>, coupling: f64) -> Self {
        Self::new(graph, coupling, 0.0)
    }

    /// The graph in its frozen CSR form.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Coupling constant `J`.
    pub fn coupling(&self) -> f64 {
        self.coupling
    }

    /// External field `h`.
    pub fn field(&self) -> f64 {
        self.field
    }

    /// Spin value `σ ∈ {-1, +1}` of a strategy in `{0, 1}`.
    #[inline]
    pub fn spin(strategy: usize) -> f64 {
        match strategy {
            0 => -1.0,
            1 => 1.0,
            _ => panic!("Ising strategies are 0 and 1, got {strategy}"),
        }
    }

    /// Total magnetisation `Σ_i σ_i` of a profile.
    pub fn magnetization(&self, profile: &[usize]) -> f64 {
        profile.iter().map(|&x| Self::spin(x)).sum()
    }
}

impl Game for IsingGame {
    fn num_players(&self) -> usize {
        self.csr.num_vertices()
    }

    fn num_strategies(&self, _player: usize) -> usize {
        2
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        let si = Self::spin(profile[player]);
        let neighbour_sum: f64 = self
            .csr
            .neighbors(player)
            .iter()
            .map(|&j| Self::spin(profile[j as usize]))
            .sum();
        self.coupling * si * neighbour_sum + self.field * si
    }

    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }

    #[inline]
    fn count_kernel(&self) -> Option<&dyn CountKernel> {
        Some(self)
    }
}

impl IsingGame {
    /// The batch evaluation behind every `utilities_for` hook, on a `usize`
    /// profile or the byte-packed one of the cache-blocked coloured sweeps:
    /// reads the profile immutably (the neighbour spin sum is shared by both
    /// candidate spins), so the parallel frozen-profile path can share it
    /// across workers. Iterates the CSR row and counts up-spins — the spin
    /// sum `2·ones − deg` is an exact integer in `f64`, so the counting
    /// kernel is bitwise equal to the former sequential `±1.0` accumulation.
    pub(crate) fn utilities_readonly<S>(&self, player: usize, profile: &[S], out: &mut [f64])
    where
        S: Copy + Into<usize>,
    {
        let row = self.csr.neighbors(player);
        self.utilities_from_ones(row.len(), ones_in(row, profile), out);
    }
}

/// The count row is the neighbour row.
impl CountKernel for IsingGame {
    #[inline]
    fn count_row(&self, player: usize) -> &[u32] {
        self.csr.neighbors(player)
    }

    fn row_lengths(&self) -> &[u32] {
        self.csr.degrees()
    }

    fn rows_address(&self) -> *const () {
        Arc::as_ptr(&self.csr).cast()
    }

    /// Shared kernel: neighbour spin sum from the up-spin count, then the
    /// two candidate utilities.
    #[inline]
    fn utilities_from_ones(&self, degree: usize, ones: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), 2);
        let neighbour_sum = (2 * ones as i64 - degree as i64) as f64;
        out[0] = -(self.coupling * neighbour_sum + self.field);
        out[1] = self.coupling * neighbour_sum + self.field;
    }
}

impl PotentialGame for IsingGame {
    fn potential(&self, profile: &[usize]) -> f64 {
        self.potential_of_tally(&self.count(profile))
    }

    fn tally(&self, profile: &[usize]) -> Option<PotentialTally> {
        Some(self.count(profile))
    }

    fn retally(&self, tally: &mut PotentialTally, old: usize, degree: usize, ones: usize) {
        let neighbour_sum = 2 * ones as i64 - degree as i64;
        // The mover's spin flips from `2·old − 1`: each of her bonds
        // changes sign, and an up-spin is lost or gained.
        let old_spin = 2 * old as i64 - 1;
        let [bonds, ones] = &mut tally.0;
        *bonds -= 2 * old_spin * neighbour_sum;
        *ones -= old_spin;
    }

    fn potential_of_tally(&self, tally: &PotentialTally) -> f64 {
        let [bonds, ones] = tally.0;
        // Both sums of `±1` terms are exact integers, and the zero of a sum
        // started from `-0.0` is `-0.0` only when it has no terms: the edge
        // term of an edgeless graph (the magnetisation has n ≥ 1 terms).
        let edge_term = if self.csr.num_edges() == 0 {
            -0.0
        } else {
            bonds as f64
        };
        let magnetization = (2 * ones - self.csr.num_vertices() as i64) as f64;
        -self.coupling * edge_term - self.field * magnetization
    }
}

impl IsingGame {
    /// The tally `[Σ_{(u,v) ∈ E} σ_u σ_v, #up-spins]` of `profile` in one
    /// pass over the CSR rows (each bond is seen from both ends).
    fn count(&self, profile: &[usize]) -> PotentialTally {
        let (mut twice_bonds, mut ones) = (0i64, 0i64);
        for (u, &x) in profile.iter().enumerate() {
            let row = self.csr.neighbors(u);
            let neighbour_sum = 2 * ones_in(row, profile) as i64 - row.len() as i64;
            let x = x as i64;
            twice_bonds += (2 * x - 1) * neighbour_sum;
            ones += x;
        }
        PotentialTally([twice_bonds / 2, ones])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::verify_exact_potential;
    use crate::coordination::CoordinationGame;
    use crate::graphical::GraphicalCoordinationGame;
    use logit_graphs::GraphBuilder;

    #[test]
    fn spins_and_magnetization() {
        assert_eq!(IsingGame::spin(0), -1.0);
        assert_eq!(IsingGame::spin(1), 1.0);
        let g = IsingGame::zero_field(GraphBuilder::ring(4), 1.0);
        assert_eq!(g.magnetization(&[1, 1, 0, 0]), 0.0);
        assert_eq!(g.magnetization(&[1, 1, 1, 1]), 4.0);
    }

    #[test]
    fn potential_is_exact() {
        let g = IsingGame::new(GraphBuilder::ring(4), 1.5, 0.3);
        assert!(verify_exact_potential(&g, 1e-9));
        let zf = IsingGame::zero_field(GraphBuilder::clique(4), 0.7);
        assert!(verify_exact_potential(&zf, 1e-9));
    }

    #[test]
    fn zero_field_ground_states_are_consensus() {
        let g = IsingGame::zero_field(GraphBuilder::ring(5), 1.0);
        let all_up = vec![1usize; 5];
        let all_down = vec![0usize; 5];
        let mixed = vec![1, 0, 1, 0, 1];
        assert_eq!(g.potential(&all_up), g.potential(&all_down));
        assert!(g.potential(&all_up) < g.potential(&mixed));
    }

    #[test]
    fn field_breaks_symmetry() {
        let g = IsingGame::new(GraphBuilder::ring(5), 1.0, 0.5);
        let all_up = vec![1usize; 5];
        let all_down = vec![0usize; 5];
        assert!(g.potential(&all_up) < g.potential(&all_down));
    }

    #[test]
    fn potential_zeros_keep_their_signs() {
        // Zero edge term and zero magnetisation: the sign of the zero
        // potential depends on the field's sign, and on whether the graph
        // has edges at all.
        let ring = [1, 1, 0, 0];
        for (field, expected) in [(0.0, -0.0), (0.5, -0.0), (-0.5, 0.0)] {
            let game = IsingGame::new(GraphBuilder::ring(4), 1.5, field);
            assert_eq!(
                game.potential(&ring).to_bits(),
                f64::to_bits(expected),
                "ring, field {field}"
            );
        }
        for field in [0.0, 0.5, -0.5] {
            let game = IsingGame::new(logit_graphs::Graph::new(2), 1.5, field);
            assert_eq!(
                game.potential(&[0, 1]).to_bits(),
                0.0f64.to_bits(),
                "edgeless, field {field}"
            );
        }
    }

    #[test]
    fn zero_field_matches_symmetric_graphical_coordination_up_to_constant() {
        // Ising with coupling J and the graphical coordination game with
        // δ0 = δ1 = 2J differ by the constant J per edge.
        let graph = GraphBuilder::ring(5);
        let j = 0.8;
        let ising = IsingGame::zero_field(graph.clone(), j);
        let coord =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::symmetric(2.0 * j));
        let shift = j * graph.num_edges() as f64;
        let space = ising.profile_space();
        let mut buf = vec![0usize; 5];
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            let diff = ising.potential(&buf) - coord.potential(&buf);
            assert!(
                (diff - shift).abs() < 1e-12,
                "difference should be the constant per-edge shift"
            );
        }
        // In particular the global variation is identical.
        assert!((ising.max_global_variation() - coord.max_global_variation()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn antiferromagnetic_coupling_rejected() {
        let _ = IsingGame::zero_field(GraphBuilder::ring(3), -1.0);
    }
}
