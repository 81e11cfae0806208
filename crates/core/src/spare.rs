//! Replica buffers kept from one run for the next.
//!
//! A replica of a profile ensemble, and every rung of a tempering
//! ensemble, owns `O(n)` buffers: its profile, its neighbour-count words
//! and its scratch's block buffers (the players a tick selects and the
//! strategies a parallel block stages); a run also holds its start profile
//! and the start's words. Built afresh by every run, they cost whatever
//! the allocator makes them cost: glibc maps a large block afresh, to be
//! faulted in page by page, until some larger free has raised its mmap
//! threshold, so the same job ran up to a third slower or faster depending
//! on what ran before it. Instead, every replica, rung and run start hands
//! its buffers to one process-wide spare list when it drops, and the next
//! one of any run, on any simulator, takes them and overwrites them from
//! its own run's start.
//!
//! The list is bounded by what runs keep live: each run, as it starts a
//! segment, raises the bound to its pool width times the buffer sets each
//! lane holds (one per replica, one per rung of a tempering ensemble),
//! plus its start. Each kind of buffer keeps its largest buffers up to the
//! bound. So the list never holds more sets than some run had live at
//! once, and a run of a shape seen before finds every buffer it needs.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The `O(n)` buffers of one replica or tempering rung.
#[derive(Debug, Default)]
pub(crate) struct ReplicaBuffers {
    pub(crate) profile: Vec<usize>,
    pub(crate) words: Vec<u32>,
    pub(crate) players: Vec<usize>,
    pub(crate) staged: Vec<usize>,
}

/// A snapshot of the spare list, for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpareStats {
    /// Profile buffers the list holds now.
    pub held: usize,
    /// The most profile or words buffers it may hold, and half the block
    /// buffers (a set has two): the most sets a run has kept live at once,
    /// its start included.
    pub bound: usize,
    /// Replicas and rungs built on a spare profile buffer so far.
    pub reused: u64,
    /// Replicas and rungs built on a new one so far.
    pub fresh: u64,
}

/// Spare buffers of one kind.
#[derive(Debug)]
struct Shelf<T>(Vec<Vec<T>>);

impl<T> Shelf<T> {
    /// The smallest buffer that holds `n` elements without growing, else
    /// the largest.
    fn take(&mut self, n: usize) -> Option<Vec<T>> {
        let capacity = |i: &usize| self.0[*i].capacity();
        let fits = (0..self.0.len())
            .filter(|i| capacity(i) >= n)
            .min_by_key(capacity);
        let pick = fits.or_else(|| (0..self.0.len()).max_by_key(capacity))?;
        Some(self.0.swap_remove(pick))
    }

    /// Keeps `buffer` while the shelf holds fewer than `bound`; at the
    /// bound it replaces the smallest buffer if `buffer` is larger, and is
    /// dropped otherwise.
    fn give(&mut self, buffer: Vec<T>, bound: usize) {
        if buffer.capacity() == 0 {
            return;
        }
        if self.0.len() < bound {
            self.0.push(buffer);
        } else if let Some(smallest) = self.0.iter_mut().min_by_key(|held| held.capacity()) {
            if smallest.capacity() < buffer.capacity() {
                *smallest = buffer;
            }
        }
    }
}

/// The process-wide spare list; see the module docs.
#[derive(Debug)]
struct SpareList {
    profiles: Shelf<usize>,
    words: Shelf<u32>,
    /// Scratch block buffers, `players` and `staged` alike.
    blocks: Shelf<usize>,
    stats: SpareStats,
}

impl SpareList {
    const fn new() -> Self {
        Self {
            profiles: Shelf(Vec::new()),
            words: Shelf(Vec::new()),
            blocks: Shelf(Vec::new()),
            stats: SpareStats {
                held: 0,
                bound: 0,
                reused: 0,
                fresh: 0,
            },
        }
    }

    fn keep_live(&mut self, live: usize) {
        self.stats.bound = self.stats.bound.max(live + 1);
    }

    fn take(&mut self, n: usize) -> ReplicaBuffers {
        let profile = self.profiles.take(n);
        match profile {
            Some(_) => self.stats.reused += 1,
            None => self.stats.fresh += 1,
        }
        // A block buffer's size depends on the schedule, not on `n`: the
        // largest serves any.
        let mut block = || self.blocks.take(usize::MAX).unwrap_or_default();
        let (players, staged) = (block(), block());
        ReplicaBuffers {
            profile: profile.unwrap_or_default(),
            words: self.words.take(n).unwrap_or_default(),
            players,
            staged,
        }
    }

    fn give(&mut self, set: ReplicaBuffers) {
        let bound = self.stats.bound;
        self.profiles.give(set.profile, bound);
        self.words.give(set.words, bound);
        self.blocks.give(set.players, 2 * bound);
        self.blocks.give(set.staged, 2 * bound);
    }

    fn stats(&self) -> SpareStats {
        SpareStats {
            held: self.profiles.0.len(),
            ..self.stats
        }
    }
}

static SPARE: Mutex<SpareList> = Mutex::new(SpareList::new());

/// The list, also after a panic elsewhere: a buffer is valid in any
/// state, since every taker overwrites it.
fn spare() -> MutexGuard<'static, SpareList> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounds the list by a run that keeps `live` replica or rung buffer sets
/// live at once, besides its start.
pub(crate) fn keep_live(live: usize) {
    spare().keep_live(live);
}

/// Buffers for a replica or rung of `n` players: spare ones where the
/// list has them, else new ones. The caller overwrites every buffer it
/// reads.
pub(crate) fn take(n: usize) -> ReplicaBuffers {
    spare().take(n)
}

/// Hands a dropped replica's, rung's or run start's buffers back to the
/// list.
pub(crate) fn give(set: ReplicaBuffers) {
    spare().give(set);
}

/// A words buffer for a run's start of `n` players, spare where the list
/// has one; the caller overwrites it.
pub(crate) fn words(n: usize) -> Vec<u32> {
    spare().words.take(n).unwrap_or_default()
}

/// An empty profile buffer with room for `n` players, spare where the
/// list has one.
pub(crate) fn profile_buffer(n: usize) -> Vec<usize> {
    let mut buffer = spare().profiles.take(n).unwrap_or_default();
    buffer.clear();
    buffer
}

/// The profile of `n` players all on `strategy`, written over a spare
/// profile buffer where the list has one. A run handed it as its start
/// gives it back to the list when it drops, so a caller that starts run
/// after run from such profiles reuses the same memory.
pub fn profile(n: usize, strategy: usize) -> Vec<usize> {
    let mut profile = profile_buffer(n);
    profile.resize(n, strategy);
    profile
}

/// What the process-wide spare list holds now, and how many replicas and
/// rungs were built on spare and on new buffers so far.
pub fn spare_stats() -> SpareStats {
    spare().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shelf(capacities: &[usize]) -> Shelf<usize> {
        Shelf(capacities.iter().map(|&c| Vec::with_capacity(c)).collect())
    }

    fn capacities(shelf: &Shelf<usize>) -> Vec<usize> {
        let mut held: Vec<usize> = shelf.0.iter().map(Vec::capacity).collect();
        held.sort_unstable();
        held
    }

    #[test]
    fn a_shelf_keeps_its_largest_buffers_up_to_the_bound() {
        let mut held = shelf(&[]);
        held.give(Vec::with_capacity(10), 0);
        assert!(held.0.is_empty(), "no run has set a bound");
        for capacity in [10, 30, 20, 5] {
            held.give(Vec::with_capacity(capacity), 2);
            assert!(held.0.len() <= 2);
        }
        assert_eq!(capacities(&held), [20, 30]);
    }

    #[test]
    fn a_taker_gets_the_smallest_buffer_that_fits_else_the_largest() {
        let mut held = shelf(&[8, 64, 16]);
        assert_eq!(held.take(10).map(|b| b.capacity()), Some(16));
        assert_eq!(held.take(100).map(|b| b.capacity()), Some(64));
        assert_eq!(held.take(1).map(|b| b.capacity()), Some(8));
        assert_eq!(held.take(1), None);
    }

    #[test]
    fn the_bound_is_the_most_a_run_kept_live_and_counts_its_start() {
        let mut list = SpareList::new();
        list.keep_live(6);
        list.keep_live(2);
        assert_eq!(list.stats.bound, 7);
        let sets: Vec<ReplicaBuffers> = (0..9).map(|_| list.take(100)).collect();
        assert_eq!((list.stats.reused, list.stats.fresh), (0, 9));
        for mut set in sets {
            set.profile.reserve(100);
            list.give(set);
        }
        assert_eq!(list.stats().held, 7);
        list.take(100);
        assert_eq!((list.stats.reused, list.stats().held), (1, 6));
    }
}
