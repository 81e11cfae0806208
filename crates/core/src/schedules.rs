//! Player-selection schedules: who revises at each tick.
//!
//! The paper's chain selects **one player uniformly at random** per step; its
//! companion line of work studies the parallel "all-logit" variant in which
//! *every* player revises simultaneously, and round-robin (systematic sweep)
//! scans are the standard third point of comparison in the MCMC literature.
//! The [`SelectionSchedule`] trait captures the choice: a schedule names the
//! players revising at tick `t` and says whether they revise sequentially
//! (each seeing the previous updates of the same tick) or as a parallel block
//! (all sampling against the frozen pre-tick profile).
//!
//! The engine-side driver is
//! [`DynamicsEngine::step_scheduled`](crate::dynamics::DynamicsEngine::step_scheduled);
//! the exact counterpart for the parallel block schedule is
//! [`DynamicsEngine::transition_matrix_all_logit`](crate::dynamics::DynamicsEngine::transition_matrix_all_logit).
//!
//! The coloured parallel-revision schedules —
//! [`RandomBlock`](crate::parallel::RandomBlock) random `k`-subsets and
//! [`ColouredBlocks`](crate::parallel::ColouredBlocks) independent-set
//! blocks, with the genuinely parallel engine path — live in
//! [`crate::parallel`].

use rand::Rng;
use std::ops::Range;

/// A selection schedule: which players revise at tick `t`, and how the
/// updates within a tick compose.
pub trait SelectionSchedule: std::fmt::Debug + Clone + Send + Sync {
    /// Writes the players revising at tick `t` into `out` (cleared first), in
    /// the order their updates are applied. May consume randomness.
    fn select_players<R: Rng + ?Sized>(
        &self,
        t: u64,
        num_players: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    );

    /// `true` when the tick is a parallel block update: every selected player
    /// samples her new strategy against the frozen pre-tick profile and all
    /// moves are applied at once. `false` (the default) means sequential
    /// composition within the tick.
    fn parallel(&self) -> bool {
        false
    }

    /// Player updates the ticks `ticks` revise on `num_players` players,
    /// without drawing: what the ensembles size their segments by and the
    /// job server ranks jobs by.
    fn updates_in(&self, ticks: Range<u64>, num_players: usize) -> u64;

    /// Short identifier used in reports and benchmark rows.
    fn name(&self) -> &'static str;
}

/// The paper's schedule: one player, uniformly at random, per tick.
///
/// Consumes exactly one `gen_range` draw per tick — the same stream position
/// as the pre-refactor engine, so `Logit + UniformSingle` trajectories are
/// bit-identical to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformSingle;

impl SelectionSchedule for UniformSingle {
    fn select_players<R: Rng + ?Sized>(
        &self,
        _t: u64,
        num_players: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.push(rng.gen_range(0..num_players));
    }

    fn updates_in(&self, ticks: Range<u64>, _num_players: usize) -> u64 {
        ticks.end.saturating_sub(ticks.start)
    }

    fn name(&self) -> &'static str {
        "uniform_single"
    }
}

/// Deterministic round-robin: tick `t` revises player `t mod n`. A full pass
/// over the players every `n` ticks, no selection randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystematicSweep;

impl SelectionSchedule for SystematicSweep {
    fn select_players<R: Rng + ?Sized>(
        &self,
        t: u64,
        num_players: usize,
        _rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.push((t % num_players as u64) as usize);
    }

    fn updates_in(&self, ticks: Range<u64>, _num_players: usize) -> u64 {
        ticks.end.saturating_sub(ticks.start)
    }

    fn name(&self) -> &'static str {
        "systematic_sweep"
    }
}

/// The parallel block schedule of the all-logit dynamics: every player
/// revises at every tick, all sampling against the frozen pre-tick profile.
///
/// One tick equals `n` player updates (compare throughputs per *update*, not
/// per tick). The induced chain is `P(x, y) = Π_i σ_i(y_i | x)` — dense, and
/// in general *not* reversible even for potential games.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllLogit;

impl SelectionSchedule for AllLogit {
    fn select_players<R: Rng + ?Sized>(
        &self,
        _t: u64,
        num_players: usize,
        _rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..num_players);
    }

    fn parallel(&self) -> bool {
        true
    }

    fn updates_in(&self, ticks: Range<u64>, num_players: usize) -> u64 {
        ticks.end.saturating_sub(ticks.start) * num_players as u64
    }

    fn name(&self) -> &'static str {
        "all_logit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_single_picks_one_player_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = vec![99, 99];
        let mut seen = [false; 5];
        for t in 0..200 {
            UniformSingle.select_players(t, 5, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
            assert!(out[0] < 5);
            seen[out[0]] = true;
        }
        assert!(seen.iter().all(|&s| s), "every player gets selected");
        assert!(!UniformSingle.parallel());
    }

    #[test]
    fn uniform_single_consumes_the_legacy_stream() {
        // One gen_range draw per tick, nothing else — the bit-compatibility
        // contract with the pre-refactor engine.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut out = Vec::new();
        for t in 0..50 {
            UniformSingle.select_players(t, 6, &mut a, &mut out);
            assert_eq!(out[0], b.gen_range(0..6usize));
        }
    }

    #[test]
    fn sweep_is_round_robin_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        for t in 0..9u64 {
            SystematicSweep.select_players(t, 3, &mut rng, &mut out);
            assert_eq!(out, vec![(t % 3) as usize]);
        }
        // The sweep consumed no randomness: the stream is still at its start.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn all_logit_selects_everyone_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        AllLogit.select_players(3, 4, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(AllLogit.parallel());
        assert_eq!(AllLogit.name(), "all_logit");
    }
}
