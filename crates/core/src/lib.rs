//! # logit-core
//!
//! The logit dynamics for strategic games — the primary contribution of
//! *"Convergence to Equilibrium of Logit Dynamics for Strategic Games"*
//! (Auletta, Ferraioli, Pasquale, Penna, Persiano; SPAA 2011).
//!
//! At every step a player `i` is chosen uniformly at random and refreshes her
//! strategy to `y` with probability
//!
//! `σ_i(y | x) = e^{β·u_i(y, x_{-i})} / Σ_z e^{β·u_i(z, x_{-i})}`   (eq. 2)
//!
//! where `β ≥ 0` is the inverse noise (rationality). This defines an ergodic
//! Markov chain `M_β(G)` over the profile space (eq. 3); for potential games its
//! stationary distribution is the Gibbs measure `π(x) ∝ e^{-βΦ(x)}` (eq. 4, cost
//! convention).
//!
//! The crate provides:
//!
//! * [`dynamics::DynamicsEngine`] — the generic revision-dynamics engine:
//!   pluggable update rules ([`rules`]: logit/Glauber, Metropolis, noisy best
//!   response, Fermi pairwise comparison, imitate-the-better) and selection
//!   schedules ([`schedules`]: uniform single-player, systematic sweep,
//!   parallel all-logit blocks; [`parallel`]: random `k`-blocks and
//!   graph-colouring independent-set blocks), explicit chain construction
//!   (dense, sparse, per-schedule) and single-step simulation — with
//!   [`dynamics::LogitDynamics`] kept as the paper's logit instance,
//! * [`parallel`] — the coloured parallel-revision subsystem: the
//!   [`parallel::RandomBlock`] and [`parallel::ColouredBlocks`] schedules,
//!   the genuinely parallel independent-set engine path
//!   (`step_coloured_pooled`, per-player RNG streams, bit-identical to the
//!   sequential class sweep) and the exact coloured block/round chains,
//! * [`locality`] — the memory-locality layer for `n = 10⁶`–`10⁷`:
//!   reverse-Cuthill–McKee player relabelling ([`locality::LocalityLayout`],
//!   a pure view — draws stay keyed by original ids, so trajectories are
//!   bit-identical after the inverse permutation), byte (SoA) strategy
//!   profiles over CSR adjacency, and cache-blocked pooled class sweeps
//!   sized by [`runtime::RuntimeConfig`]`::block_players`,
//! * [`gibbs`] — numerically stable Gibbs measures and partition functions,
//! * [`simulate`] — trajectory simulation, parallel replica ensembles (one
//!   [`runtime::WorkerPool`] claim per replica) and empirical-distribution
//!   estimation; [`simulate::Simulator`] has one ensemble entry per
//!   executor, each taking the selection schedule explicitly —
//!   `run_profiles` (sequential reference), `run_profiles_pipelined` (farm)
//!   and `run_tempered` (tempered farm),
//! * [`pipeline`] — the PPL-style pipelined ensemble runner: a farm of step
//!   workers feeding one streamed, order-restoring observable reducer
//!   through a bounded channel
//!   ([`simulate::Simulator::run_profiles_pipelined`], cancellable through a
//!   [`pipeline::CancelToken`]), bit-identical to the sequential path under
//!   fixed seeds,
//! * [`runtime`] — the persistent parallel runtime: a spawn-once
//!   [`runtime::WorkerPool`] with a thread registry (worker ids, optional
//!   Linux core pinning), spin/yield/park wait policies, epoch-tagged
//!   chunk-stealing dispatch and per-tick barriers, plus the unified
//!   [`runtime::RuntimeConfig`] worker-count knob shared by every parallel
//!   path (coloured, pipelined, tempered, ensembles, sweeps, annealing),
//! * [`estimate`] — mixing-time measurement: exact (via `logit-markov`), spectral
//!   bounds, and coupling-based upper estimates using the paper's couplings,
//! * [`coupling`] — the maximal per-coordinate coupling of Theorem 3.6 / 4.2 and
//!   the shared-uniform monotone coupling of Theorem 5.6,
//! * [`barrier`] — the potential-barrier quantity `ζ` of Section 3.4 (union-find
//!   saddle computation plus a brute-force cross-check),
//! * [`bounds`] — one function per theorem, returning the paper's closed-form
//!   upper/lower bounds so experiments can print "measured vs. bound" tables,
//! * [`sweep`] — parameter sweeps (over β, n, topologies), parallel over the
//!   grid on a [`runtime::WorkerPool`], producing the rows of every
//!   experiment table in `EXPERIMENTS.md`,
//! * [`tempering`] — replica exchange (parallel tempering) across a β-ladder:
//!   `K` engines sharing one game, Metropolis-accepted adjacent state swaps on
//!   the potential difference, swap-rate diagnostics, and the exact
//!   product-chain constructions the test harness validates the swap kernel
//!   against.

pub mod barrier;
pub mod bounds;
pub mod coupling;
pub mod dynamics;
pub mod estimate;
pub mod gibbs;
pub mod locality;
pub mod observables;
pub mod parallel;
pub mod pipeline;
pub mod rules;
pub mod runtime;
pub mod schedules;
pub mod simulate;
pub mod sweep;
pub mod tempering;

pub use barrier::{zeta, zeta_brute_force, BarrierResult};
pub use coupling::{coupling_time_estimate, CouplingKind};
pub use dynamics::{DynamicsEngine, LogitDynamics, Scratch, StepEvent};
pub use estimate::{
    exact_mixing_time, exact_mixing_time_with_rule, spectral_mixing_bounds, MixingMeasurement,
};
pub use gibbs::{gibbs_distribution, log_partition_function};
pub use locality::LocalityLayout;
pub use observables::{
    ensemble_time_series, HammingToProfile, NamedObservable, Observable, PotentialObservable,
    ProfileObservable, SeriesAccumulator, StrategyFraction, TimeSeries,
};
pub use parallel::{
    coloring_for_game, coloring_for_graph, player_tick_seed, ColouredBlocks, RandomBlock,
};
pub use pipeline::{
    CancelToken, OrderedSeriesReducer, PipelineConfig, PipelineConfigError, SnapshotBatch,
};
pub use rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse, UpdateRule};
pub use runtime::{RuntimeConfig, ThreadRegistry, WaitPolicy, WorkerEntry, WorkerPool};
pub use schedules::{AllLogit, SelectionSchedule, SystematicSweep, UniformSingle};
pub use simulate::{
    simulate_profile_trajectory, simulate_trajectory, EmpiricalLaw, EmptyLawError, EnsembleResult,
    ProfileEnsembleResult, Simulator, TemperedEnsembleResult,
};
pub use sweep::{
    beta_profile_sweep, beta_profile_sweep_with_rule, beta_sweep, beta_sweep_with_rule,
    BetaSweepRow, ProfileSweepRow,
};
pub use tempering::{SwapStats, TemperingEnsemble, TemperingState};
