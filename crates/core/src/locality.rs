//! Memory-locality layer for large-`n` simulation: bandwidth-minimising
//! player relabelling plus byte-profile (SoA) coloured sweeps.
//!
//! At `n = 10⁶`–`10⁷` players the coloured engine is memory-bound, not
//! compute-bound: each revision streams the player's neighbour row and
//! gathers the neighbours' current strategies, so the working set per
//! revision is governed by *where* the neighbours live. This module
//! attacks that on three fronts:
//!
//! 1. **Relabelling** ([`LocalityLayout`]): players are renamed along a
//!    reverse Cuthill–McKee ordering of the interaction graph
//!    ([`logit_graphs::rcm_ordering`]), shrinking the graph bandwidth so a
//!    revision's gathers land within a few cache lines of the player's own
//!    strategy slot instead of anywhere in an `O(n)` array.
//! 2. **Byte profiles**: strategies are stored one byte per player
//!    (games with at most 256 strategies — every concrete large-`n` game
//!    here is binary), so the whole strategy vector of a `10⁶`-player game
//!    is 1 MB and sits in L2 during a sweep.
//! 3. **Cache-blocked sweeps**: the pooled class sweep hands out chunks
//!    capped at [`crate::runtime::RuntimeConfig`]`::block_players`, keeping
//!    each worker's write stream and gather window L2-resident.
//!
//! The layer is a *pure view*: draws stay keyed by the **original** player
//! ids (the layout carries `labels[new] = old` into the engine), colour
//! classes are transported verbatim through the permutation, and the
//! utility kernels are bitwise-stable under both the byte representation
//! and the relabelling — so trajectories mapped back through the inverse
//! permutation are bit-identical to the unrelabelled engine's. The
//! relabelled-bit-identity proptest harness pins this across all update
//! rules, topologies, worker counts and block sizes.

use crate::dynamics::{sample_index_from_uniform, CountTable, DynamicsEngine, Scratch};
use crate::parallel::{coloring_for_graph, player_tick_uniform, STAGE_BUFFERS};
use crate::rules::UpdateRule;
use crate::runtime::{RuntimeConfig, WorkerPool};
use logit_games::{interaction_graph, CountKernel, LocalGame};
use logit_graphs::{bandwidth_of_ordering, rcm_ordering, Coloring, Graph, VertexOrdering};

/// How many players ahead of the revision the byte sweeps issue
/// [`LocalGame::prefetch_frozen_bytes`]. A colour-class sweep strides the
/// CSR target array by `num_classes` rows, which defeats the hardware
/// stride prefetcher once the array spills L2; eight players of lookahead
/// (a few hundred bytes of rows in flight) is enough to hide an L3 hit at
/// the per-update cost of the cheapest rule while staying far inside the
/// line-fill-buffer budget. Purely a hint: draws and utilities are
/// untouched, so bit-identity is unaffected.
const PREFETCH_AHEAD: usize = 8;

/// A bandwidth-minimising relabelling of a game's players, with everything
/// the engine needs to run on the relabelled instance and map results back.
///
/// Built once per (graph, colouring) pair; the ordering is reverse
/// Cuthill–McKee, the colouring is the original one transported through the
/// permutation (colour *values* are preserved, so the class-of-tick cycle —
/// and therefore the revision schedule — replays tick-for-tick).
#[derive(Clone, Debug)]
pub struct LocalityLayout {
    /// new position `k` holds original player `ordering.vertex_at(k)`.
    ordering: VertexOrdering,
    /// `labels[new] = old`: the original id of the player at each new
    /// position, in the `u32` width the engine's draw key-path consumes.
    labels: Vec<u32>,
    /// The original colouring transported through the permutation.
    coloring: Coloring,
    /// Graph bandwidth under the identity (original) labelling.
    bandwidth_before: usize,
    /// Graph bandwidth under the RCM labelling.
    bandwidth_after: usize,
}

impl LocalityLayout {
    /// Computes the RCM layout of `graph` and transports `coloring` through
    /// it. `coloring` must be a colouring of `graph` (same vertex count).
    ///
    /// # Panics
    /// Panics when the colouring covers a different vertex count, or when
    /// the graph has more than `u32::MAX` vertices (the label array and the
    /// CSR adjacency share that width).
    pub fn from_graph(graph: &Graph, coloring: &Coloring) -> Self {
        let n = graph.num_vertices();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different vertex count"
        );
        assert!(n <= u32::MAX as usize, "player ids must fit in u32");
        let identity = VertexOrdering::identity(n);
        let bandwidth_before = bandwidth_of_ordering(graph, &identity);
        let ordering = rcm_ordering(graph);
        let bandwidth_after = bandwidth_of_ordering(graph, &ordering);
        let labels = ordering.as_slice().iter().map(|&v| v as u32).collect();
        let coloring = coloring.relabelled(&ordering);
        LocalityLayout {
            ordering,
            labels,
            coloring,
            bandwidth_before,
            bandwidth_after,
        }
    }

    /// The layout of a game's interaction graph under the default colouring
    /// choice ([`coloring_for_graph`]). Returns the layout together with
    /// the graph it was computed from, so callers can build the relabelled
    /// game without bridging the interaction graph a second time.
    pub fn for_game<G: LocalGame>(game: &G) -> (Self, Graph) {
        let graph = interaction_graph(game);
        let coloring = coloring_for_graph(&graph);
        (Self::from_graph(&graph, &coloring), graph)
    }

    /// The RCM ordering: new position `k` holds original player
    /// `ordering.vertex_at(k)`.
    pub fn ordering(&self) -> &VertexOrdering {
        &self.ordering
    }

    /// `labels[new] = old` as `u32`s — the draw-key table the byte engine
    /// paths consume so relabelled players keep their original RNG streams.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The original colouring transported through the permutation.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// Graph bandwidth under the original labelling.
    pub fn bandwidth_before(&self) -> usize {
        self.bandwidth_before
    }

    /// Graph bandwidth under the RCM labelling.
    pub fn bandwidth_after(&self) -> usize {
        self.bandwidth_after
    }

    /// `graph` with its vertices renamed along the layout's ordering — the
    /// graph to build the relabelled game from.
    pub fn relabel_graph(&self, graph: &Graph) -> Graph {
        graph.relabelled(&self.ordering)
    }

    /// Packs an original-label `usize` profile into a relabelled byte
    /// profile: `out[k] = original[ordering.vertex_at(k)]`.
    ///
    /// # Panics
    /// Panics when a strategy does not fit in a byte or the lengths differ.
    pub fn pack_profile(&self, original: &[usize], out: &mut Vec<u8>) {
        assert_eq!(original.len(), self.labels.len(), "profile length mismatch");
        out.clear();
        out.extend(self.labels.iter().map(|&old| {
            let s = original[old as usize];
            assert!(s < 256, "strategy {s} does not fit in a byte");
            s as u8
        }));
    }

    /// Unpacks a relabelled byte profile back into original labels:
    /// `out[labels[k]] = relabelled[k]`.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn unpack_profile(&self, relabelled: &[u8], out: &mut Vec<usize>) {
        assert_eq!(
            relabelled.len(),
            self.labels.len(),
            "profile length mismatch"
        );
        out.clear();
        out.resize(self.labels.len(), 0);
        for (&old, &s) in self.labels.iter().zip(relabelled.iter()) {
            out[old as usize] = s as usize;
        }
    }
}

impl<G: LocalGame, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick on a **byte** strategy profile, sequential: the
    /// players of colour class `t mod num_classes` revise in class order,
    /// utilities through [`LocalGame::utilities_for_frozen_bytes`] (on a
    /// game with a count kernel, a count-table load instead).
    ///
    /// `labels`, when present, maps engine positions to **original** player
    /// ids (`labels[position] = original`): every draw is keyed by the
    /// original id, so an engine running on a relabelled game replays the
    /// unrelabelled trajectory bit-for-bit. Pass `None` when the engine's
    /// own labelling is the original one.
    ///
    /// Returns the number of players that moved.
    ///
    /// # Panics
    /// Panics when the game has more than 256 strategies for some player,
    /// or when the colouring covers a different player count.
    pub fn step_coloured_bytes(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &mut [u8],
        scratch: &mut Scratch,
    ) -> usize {
        let n = self.game().num_players();
        assert!(
            self.game().max_strategies() <= 256,
            "byte profiles require at most 256 strategies per player"
        );
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let class = coloring.class_of_tick(t);
        let mut moved = 0;
        let (utils, probs) = scratch.rule_buffers();
        let members = coloring.class(class);
        let table = self.count_table();
        for (i, &player) in members.iter().enumerate() {
            if let Some(&ahead) = members.get(i + PREFETCH_AHEAD) {
                self.game().prefetch_frozen_bytes(ahead);
            }
            // A colour class is an independent set, so no revising player
            // can observe a same-tick update: reading the live profile here
            // is the same as reading the frozen pre-tick one.
            self.byte_distribution_into(table, player, profile, utils, probs);
            let key = labels.map_or(player, |l| l[player] as usize);
            let strategy =
                sample_index_from_uniform(probs, player_tick_uniform(seed, key, t)) as u8;
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        moved
    }

    /// Fills `probs` with `player`'s update distribution against the byte
    /// `profile`: a load from the count `table` when the game has one, else
    /// [`LocalGame::utilities_for_frozen_bytes`] into `utils` and the rule.
    #[inline]
    fn byte_distribution_into(
        &self,
        table: Option<(&dyn CountKernel, &CountTable)>,
        player: usize,
        profile: &[u8],
        utils: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) {
        if let Some((kernel, table)) = table {
            table.fill(kernel, player, profile, probs);
            return;
        }
        utils.clear();
        utils.resize(self.game().num_strategies(player), 0.0);
        self.game()
            .utilities_for_frozen_bytes(player, profile, utils);
        self.rule()
            .fill_probs(self.beta(), profile[player] as usize, utils, probs);
    }
}

impl<G: LocalGame + Sync, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick on a byte profile through the persistent
    /// [`WorkerPool`]: the byte counterpart of
    /// [`Self::step_coloured_pooled`], with the same narrow-class inline
    /// fallback, the same cache-blocked chunking
    /// ([`RuntimeConfig::sweep_chunk`]) and the same draw keys — so it is
    /// bit-identical to [`Self::step_coloured_bytes`] from the same
    /// `(seed, t, labels)` regardless of worker count or block size.
    ///
    /// Returns the number of players that moved.
    ///
    /// # Panics
    /// Panics when the game has more than 256 strategies for some player,
    /// or when the colouring covers a different player count.
    #[allow(clippy::too_many_arguments)]
    pub fn step_coloured_pooled_bytes(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &mut [u8],
        scratch: &mut Scratch,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) -> usize {
        let n = self.game().num_players();
        assert!(
            self.game().max_strategies() <= 256,
            "byte profiles require at most 256 strategies per player"
        );
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let players = coloring.class(coloring.class_of_tick(t));
        let workers = config.class_workers(players.len()).min(pool.workers() + 1);
        if workers <= 1 {
            return self.step_coloured_bytes(coloring, t, seed, labels, profile, scratch);
        }

        let mut staged = std::mem::take(&mut scratch.staged_bytes);
        staged.clear();
        staged.resize(players.len(), 0);
        let chunk = config.sweep_chunk(players.len(), workers);
        let frozen: &[u8] = profile;
        pool.for_each_chunk(&mut staged, chunk, workers, &|index, out| {
            let start = index * chunk;
            let player_chunk = &players[start..start + out.len()];
            STAGE_BUFFERS.with(|buffers| {
                let (utils, probs) = &mut *buffers.borrow_mut();
                self.stage_class_bytes_with(
                    player_chunk,
                    t,
                    seed,
                    labels,
                    frozen,
                    out,
                    utils,
                    probs,
                );
            });
        });

        let mut moved = 0;
        for (&player, &strategy) in players.iter().zip(staged.iter()) {
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        scratch.staged_bytes = staged;
        moved
    }

    /// Samples the new strategies of `players` against the frozen byte
    /// `profile` into `staged` — the per-worker kernel of
    /// [`Self::step_coloured_pooled_bytes`]. Draw keys come from `labels`
    /// when present (original player ids), else the positions themselves.
    #[allow(clippy::too_many_arguments)]
    fn stage_class_bytes_with(
        &self,
        players: &[usize],
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &[u8],
        staged: &mut [u8],
        utils: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) {
        let table = self.count_table();
        for (i, (&player, slot)) in players.iter().zip(staged.iter_mut()).enumerate() {
            if let Some(&ahead) = players.get(i + PREFETCH_AHEAD) {
                self.game().prefetch_frozen_bytes(ahead);
            }
            self.byte_distribution_into(table, player, profile, utils, probs);
            let key = labels.map_or(player, |l| l[player] as usize);
            *slot = sample_index_from_uniform(probs, player_tick_uniform(seed, key, t)) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::rules::{MetropolisLogit, NoisyBestResponse};
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, IsingGame};
    use logit_graphs::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shuffled_circulant(n: usize, k: usize, seed: u64) -> Graph {
        let g = GraphBuilder::circulant(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        let shuffle = VertexOrdering::random(n, &mut rng);
        g.relabelled(&shuffle)
    }

    #[test]
    fn layout_shrinks_the_bandwidth_of_a_shuffled_circulant() {
        let g = shuffled_circulant(64, 2, 7);
        let coloring = coloring_for_graph(&g);
        let layout = LocalityLayout::from_graph(&g, &coloring);
        assert!(layout.bandwidth_before() > 5, "shuffle left it narrow");
        assert!(
            layout.bandwidth_after() <= 2 * 2 + 1,
            "RCM should recover a near-banded layout, got {}",
            layout.bandwidth_after()
        );
        assert!(layout.bandwidth_after() <= layout.bandwidth_before());
    }

    #[test]
    fn pack_then_unpack_round_trips_a_profile() {
        let g = shuffled_circulant(40, 2, 11);
        let coloring = coloring_for_graph(&g);
        let layout = LocalityLayout::from_graph(&g, &coloring);
        let original: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let mut packed = Vec::new();
        layout.pack_profile(&original, &mut packed);
        let mut back = Vec::new();
        layout.unpack_profile(&packed, &mut back);
        assert_eq!(back, original);
        // And the packed view really is a permutation of the original.
        for k in 0..40 {
            assert_eq!(packed[k] as usize, original[layout.labels()[k] as usize]);
        }
    }

    #[test]
    fn relabelled_byte_sweep_replays_the_unrelabelled_trajectory() {
        // The core bit-identity claim, exercised on both count-kernel games:
        // the relabelled byte engine (draws keyed by original ids via the
        // label table) must reproduce the unrelabelled usize engine's
        // trajectory exactly after unpacking.
        let n = 48;
        let graph = shuffled_circulant(n, 2, 3);
        let coloring = coloring_for_graph(&graph);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        let seed = 0xA11CE;
        let beta = 1.25;

        let base = CoordinationGame::from_deltas(2.0, 1.0);
        let coord = GraphicalCoordinationGame::new(graph.clone(), base);
        let relabelled_coord = GraphicalCoordinationGame::new(layout.relabel_graph(&graph), base);
        let ising = IsingGame::new(graph.clone(), 0.75, 0.2);
        let relabelled_ising = IsingGame::new(layout.relabel_graph(&graph), 0.75, 0.2);

        let start: Vec<usize> = (0..n).map(|i| (i / 3) % 2).collect();
        let ticks = 3 * coloring.num_classes() as u64 + 2;

        check_replay(
            LogitDynamics::new(coord, beta),
            LogitDynamics::new(relabelled_coord, beta),
            &coloring,
            &layout,
            &start,
            seed,
            ticks,
        );
        check_replay(
            DynamicsEngine::with_rule(ising, MetropolisLogit, beta),
            DynamicsEngine::with_rule(relabelled_ising, MetropolisLogit, beta),
            &coloring,
            &layout,
            &start,
            seed ^ 0x5EED,
            ticks,
        );
    }

    fn check_replay<G: LocalGame, U: UpdateRule>(
        reference: DynamicsEngine<G, U>,
        relabelled: DynamicsEngine<G, U>,
        coloring: &Coloring,
        layout: &LocalityLayout,
        start: &[usize],
        seed: u64,
        ticks: u64,
    ) {
        let mut ref_profile = start.to_vec();
        let mut ref_scratch = Scratch::for_game(reference.game());
        let mut bytes = Vec::new();
        layout.pack_profile(start, &mut bytes);
        let mut byte_scratch = Scratch::for_game(relabelled.game());
        let mut unpacked = Vec::new();
        for t in 0..ticks {
            let moved_ref =
                reference.step_coloured(coloring, t, seed, &mut ref_profile, &mut ref_scratch);
            let moved_bytes = relabelled.step_coloured_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut bytes,
                &mut byte_scratch,
            );
            assert_eq!(moved_ref, moved_bytes, "moved count diverged at t={t}");
            layout.unpack_profile(&bytes, &mut unpacked);
            assert_eq!(unpacked, ref_profile, "trajectory diverged at t={t}");
        }
    }

    #[test]
    fn pooled_byte_sweep_matches_the_sequential_byte_sweep() {
        let n = 40;
        let graph = shuffled_circulant(n, 2, 9);
        let coloring = coloring_for_graph(&graph);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        let game = IsingGame::new(layout.relabel_graph(&graph), 0.5, 0.1);
        let engine = DynamicsEngine::with_rule(game, NoisyBestResponse::new(0.15), 2.0);
        let seed = 0xB10C;

        let start: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut seq = Vec::new();
        layout.pack_profile(&start, &mut seq);
        let mut pooled = seq.clone();
        let mut seq_scratch = Scratch::for_game(engine.game());
        let mut pooled_scratch = Scratch::for_game(engine.game());

        let config = RuntimeConfig {
            workers: 3,
            min_class_size: 1,
            block_players: 4,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);

        for t in 0..(2 * layout.coloring().num_classes() as u64 + 3) {
            let a = engine.step_coloured_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut seq,
                &mut seq_scratch,
            );
            let b = engine.step_coloured_pooled_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut pooled,
                &mut pooled_scratch,
                &pool,
                &config,
            );
            assert_eq!(a, b, "moved count diverged at t={t}");
            assert_eq!(seq, pooled, "profiles diverged at t={t}");
        }
    }
}
