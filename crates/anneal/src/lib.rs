//! # logit-anneal
//!
//! Extensions of the logit dynamics beyond the fixed-β setting of the paper.
//!
//! The paper's conclusions single out two follow-up directions:
//!
//! 1. *"Another interesting variant of the logit dynamics is the one in which
//!    the value of β is not fixed, but varies according to some learning
//!    process."* — the [`schedule`] and [`annealed`] modules implement exactly
//!    this: β schedules (constant, linear ramp, geometric, logarithmic) and
//!    the time-inhomogeneous dynamics driven by them. The annealed engine is
//!    a time-varying-β wrapper over *any* `logit_core` update rule (logit,
//!    Metropolis — i.e. classical simulated annealing — or noisy best
//!    response), together with an annealing-based potential minimiser
//!    ([`optimize`]) that can be compared across rules and schedules.
//! 2. The companion line of work (reference \[4\] of the paper) studies the
//!    *stationary expected social welfare* of the logit dynamics — [`welfare`]
//!    computes it exactly from the Gibbs measure and by simulation, along with
//!    the welfare ratio against the optimum.
//!
//! Everything here builds strictly on top of `logit-core`; nothing in the
//! reproduction of the paper's theorems depends on this crate.

pub mod annealed;
pub mod optimize;
pub mod schedule;
pub mod welfare;

pub use annealed::{AnnealedDynamics, AnnealedLogitDynamics};
pub use optimize::{
    anneal_minimize, anneal_minimize_with_rule, tempering_minimize, AnnealingOutcome,
};
pub use schedule::{
    BetaLadder, BetaSchedule, ConstantSchedule, GeometricSchedule, LadderError, LinearRamp,
    LogarithmicSchedule,
};
pub use welfare::{expected_social_welfare, optimal_social_welfare, welfare_ratio};
