//! # logit-games
//!
//! Strategic-game substrate for the logit-dynamics workspace.
//!
//! A strategic game has `n` players, each with a finite strategy set, and a
//! utility function per player ([`Game`]). *Potential games* additionally admit
//! an exact potential `Φ` with
//! `u_i(a, x_{-i}) - u_i(b, x_{-i}) = Φ(b, x_{-i}) - Φ(a, x_{-i})`
//! (eq. (1) of the paper — note the **cost convention**: higher utility means
//! *lower* potential, so the logit dynamics' stationary distribution is the Gibbs
//! measure `π(x) ∝ e^{-βΦ(x)}`). [`PotentialGame`] captures this.
//!
//! The crate contains every concrete game the paper analyses or uses in a proof:
//!
//! * [`coordination::CoordinationGame`] — the 2×2 basic coordination game of
//!   Section 5 (payoff matrix (10), `δ₀ = a - d`, `δ₁ = b - c`),
//! * [`graphical::GraphicalCoordinationGame`] — the same game played on every
//!   edge of a social graph,
//! * [`ising::IsingGame`] — the zero-field Ising model as the special graphical
//!   coordination game without a risk-dominant equilibrium,
//! * [`well::WellGame`] — the Theorem 3.5 lower-bound construction
//!   `Φ(x) = -l·min{c, |c - w(x)|}`,
//! * [`dominant::AllZeroDominantGame`] — the Theorem 4.3 construction
//!   (`u_i(x) = 0` iff `x = 0`, else `-1`),
//! * [`congestion::CongestionGame`] — Rosenthal congestion games (the related
//!   work on hitting times is stated for these),
//! * [`matrix_game::TwoPlayerGame`] and [`table::TableGame`] /
//!   [`table::TablePotentialGame`] — explicit general-form games used for
//!   randomised testing.
//!
//! [`analysis`] provides best responses, pure Nash equilibria, dominant-strategy
//! detection and exact-potential verification; [`profile`] provides the
//! mixed-radix profile space shared with the Markov-chain layer; [`local`]
//! provides the [`local::LocalGame`] locality contract (bounded interaction
//! neighbourhoods) that the large-`n` in-place simulation engine in
//! `logit-core` builds on.

pub mod analysis;
pub mod congestion;
pub mod coordination;
pub mod dominant;
pub mod game;
pub mod graphical;
pub mod ising;
pub mod local;
pub mod matrix_game;
pub mod profile;
pub mod table;
pub mod well;

pub use analysis::{
    best_responses, find_dominant_profile, find_pure_nash_equilibria, is_dominant_strategy,
    is_pure_nash, verify_exact_potential,
};
pub use congestion::CongestionGame;
pub use coordination::{CoordinationError, CoordinationGame};
pub use dominant::AllZeroDominantGame;
pub use game::{Game, PotentialGame, PotentialTally};
pub use graphical::GraphicalCoordinationGame;
pub use ising::{IsingError, IsingGame};
pub use local::{interaction_graph, LocalGame};
pub use matrix_game::TwoPlayerGame;
pub use profile::ProfileSpace;
pub use table::{TableGame, TablePotentialGame};
pub use well::WellGame;
