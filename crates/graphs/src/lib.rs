//! # logit-graphs
//!
//! Interaction-graph substrate for graphical coordination games (Section 5 of the
//! paper). A *social graph* `G = (V, E)` connects players; each edge carries an
//! instance of a 2×2 basic coordination game.
//!
//! The crate provides:
//!
//! * a simple undirected [`Graph`] with adjacency lists ([`graph`]),
//! * the topologies the paper reasons about — ring, clique, path — plus the usual
//!   suspects needed for the cutwidth experiments: star, grid, torus, hypercube,
//!   complete bipartite graphs, binary trees and Erdős–Rényi random graphs
//!   ([`builders`]); the six the job service admits are defined once, as
//!   row generators that also write CSR directly ([`topology`]),
//! * traversal utilities: BFS distances, connected components, diameter
//!   ([`traversal`]),
//! * a frozen **CSR adjacency** view ([`csr`]): two contiguous `u32`
//!   arrays with a validity check, the memory-locality substrate of the
//!   large-`n` engine paths in `logit-core` and the one adjacency the
//!   graph-backed games hold (as a shared `Arc<CsrGraph>`),
//! * **bandwidth-minimising relabelling** ([`relabel`]): reverse
//!   Cuthill–McKee orderings plus `bandwidth_of_ordering`, sharing the
//!   [`VertexOrdering`] machinery with the cutwidth computations,
//! * proper vertex **colourings** ([`coloring`]): greedy first-fit and
//!   DSATUR constructions with colour classes exposed as contiguous slices —
//!   the independent-set schedule substrate of the coloured parallel-revision
//!   engine in `logit-core` (`χ ≤ Δ + 1` by construction),
//! * **cutwidth** computation ([`cutwidth`]): the quantity `χ(G)` that drives the
//!   Theorem 5.1 upper bound `t_mix ≤ 2n³ e^{χ(G)(δ₀+δ₁)β}(nδ₀β+1)`. Exact values
//!   are computed with a `O(2ⁿ·n)` subset dynamic program; a greedy/local-search
//!   heuristic and closed forms for standard topologies are provided as
//!   cross-checks and for larger graphs.

pub mod builders;
pub mod coloring;
pub mod csr;
pub mod cutwidth;
pub mod graph;
pub mod ordering;
pub mod relabel;
pub mod topology;
pub mod traversal;

pub use builders::GraphBuilder;
pub use coloring::{coloring_for_graph, dsatur_coloring, greedy_coloring, Adjacency, Coloring};
pub use csr::{CsrGraph, CsrIndexError};
pub use cutwidth::{cutwidth_exact, cutwidth_heuristic, cutwidth_of_ordering, CutwidthResult};
pub use graph::Graph;
pub use ordering::VertexOrdering;
pub use relabel::{bandwidth_of_ordering, rcm_ordering};
pub use topology::Topology;
