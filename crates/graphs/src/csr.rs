//! Compressed sparse row (CSR) adjacency: the memory-locality substrate of
//! the large-`n` engine paths.
//!
//! [`Graph`] stores one heap allocation *per vertex* (`Vec<Vec<usize>>`),
//! which is convenient for construction and mutation but hostile to the
//! coloured sweep at `n = 10⁶`–`10⁷`: neighbour lists land wherever the
//! allocator put them, every hop is a pointer chase, and each neighbour id
//! costs 8 bytes. [`CsrGraph`] is the frozen, read-optimised view: **two
//! contiguous `u32` arrays** (`offsets`, `targets`), so a sweep over players
//! `p, p+1, …` walks `targets` strictly forward, the hardware prefetcher
//! sees one linear stream, and the whole adjacency of a degree-8 million-
//! vertex graph is 36 MB instead of ~160 MB of scattered `Vec` headers and
//! `usize` ids.
//!
//! It is also the one adjacency the graph-backed games hold, as a shared
//! `Arc<CsrGraph>`: cloning a game copies the pointer, not the rows.
//!
//! The u32 index choice is a checked contract, not a hope:
//! [`CsrGraph::from_graph`] validates that both the vertex count and the
//! directed-edge count fit, and panics otherwise — beyond `u32` the working
//! set no longer fits any cache hierarchy this engine targets, and a graph
//! that large should be sharded, not silently truncated.

use crate::graph::Graph;
use std::fmt;
use std::sync::Arc;

/// A frozen compressed-sparse-row view of an undirected graph: the
/// neighbours of vertex `u` are `targets[offsets[u]..offsets[u + 1]]`,
/// sorted ascending, with both arrays contiguous `u32`.
///
/// Built from a [`Graph`] with [`CsrGraph::from_graph`], or written
/// straight from a standard topology's rows with
/// [`Topology::try_csr`](crate::Topology::try_csr); immutable by design
/// (relabel or rebuild the source graph and convert again — see
/// `Graph::relabelled`).
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` delimits the row of vertex `u`
    /// (length `n + 1`, monotone, `offsets[n] == targets.len()`).
    offsets: Vec<u32>,
    /// Concatenated neighbour rows, ascending within each row
    /// (length `2m` — each undirected edge appears in both rows).
    targets: Vec<u32>,
    /// The distinct vertex degrees, ascending.
    degrees: Vec<u32>,
}

/// Why a graph cannot be frozen into u32-indexed CSR form: one of the
/// two index-width contracts of [`CsrGraph::from_graph`] (and of
/// [`Topology::try_csr`](crate::Topology::try_csr)) failed. The typed
/// form exists for admission-time validation in service contexts — a
/// malformed job description must come back as a rejection, not kill a
/// shared worker through the `assert!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrIndexError {
    /// The vertex count exceeds `u32::MAX`.
    TooManyVertices(usize),
    /// The directed-edge count (`2m`) exceeds `u32::MAX`.
    TooManyEdges(usize),
}

impl fmt::Display for CsrIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrIndexError::TooManyVertices(n) => {
                write!(f, "CSR u32 indices cannot address {n} vertices")
            }
            CsrIndexError::TooManyEdges(directed) => {
                write!(
                    f,
                    "CSR u32 offsets cannot address {directed} directed edges"
                )
            }
        }
    }
}

impl std::error::Error for CsrIndexError {}

/// The u32-validity contract of [`CsrGraph`] on raw counts, factored out so
/// it is checkable (and unit-testable) without materialising a graph too
/// large to build.
pub(crate) fn check_u32_bounds(
    vertices: usize,
    directed_edges: usize,
) -> Result<(), CsrIndexError> {
    if vertices > u32::MAX as usize {
        return Err(CsrIndexError::TooManyVertices(vertices));
    }
    if directed_edges > u32::MAX as usize {
        return Err(CsrIndexError::TooManyEdges(directed_edges));
    }
    Ok(())
}

impl CsrGraph {
    /// Freezes `graph` into CSR form.
    ///
    /// # Panics
    /// Panics when the vertex count or the directed-edge count (`2m`)
    /// exceeds `u32::MAX` — the u32-index validity check. Use
    /// [`try_from_graph`](Self::try_from_graph) where the failure must be
    /// a value instead.
    pub fn from_graph(graph: &Graph) -> Self {
        match Self::try_from_graph(graph) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`from_graph`](Self::from_graph): `Err` with a
    /// typed [`CsrIndexError`] instead of panicking when the graph exceeds
    /// the u32 index widths.
    pub fn try_from_graph(graph: &Graph) -> Result<Self, CsrIndexError> {
        let n = graph.num_vertices();
        let directed = 2 * graph.num_edges();
        check_u32_bounds(n, directed)?;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(directed);
        offsets.push(0u32);
        for u in 0..n {
            // Graph keeps rows sorted ascending; copy preserves that.
            targets.extend(graph.neighbors(u).iter().map(|&v| v as u32));
            offsets.push(targets.len() as u32);
        }
        debug_assert_eq!(targets.len(), directed);
        Ok(Self::from_parts(offsets, targets))
    }

    /// Wraps row offsets and sorted, symmetric target rows that already
    /// passed the u32 check, recording the distinct degrees.
    pub(crate) fn from_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.last().map(|&end| end as usize), Some(targets.len()));
        let mut seen = Vec::new();
        for row in offsets.windows(2) {
            let degree = (row[1] - row[0]) as usize;
            if degree >= seen.len() {
                seen.resize(degree + 1, false);
            }
            seen[degree] = true;
        }
        let degrees = (0..seen.len() as u32)
            .filter(|&d| seen[d as usize])
            .collect();
        Self {
            n: offsets.len() - 1,
            offsets,
            targets,
            degrees,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u`, ascending, as a slice of the one contiguous
    /// target array.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The row offsets: the row of `u` is
    /// `offsets()[u]..offsets()[u + 1]` of the target array (`n + 1`
    /// entries, monotone, starting at 0).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Iterator over edges as `(u, v)` with `u < v`, in lexicographic order
    /// — [`Graph::edges`]'s contract, row walk and sequence: the `v > u`
    /// entries of each sorted row, rows in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// Hints the cache that the row of `u` is about to be read.
    ///
    /// A colour-class sweep visits rows at a stride of roughly
    /// `num_classes` vertices, which is wide enough (hundreds of bytes at
    /// moderate degree) to defeat the hardware stride prefetcher once the
    /// target array spills out of L2 — exactly the `n ≥ 10⁶` regime this
    /// crate exists for. Issuing the row's first and last line a few
    /// players ahead of use hides that latency. No-op off x86_64.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    #[inline]
    pub fn prefetch_row(&self, u: usize) {
        let start = self.offsets[u] as usize;
        let end = self.offsets[u + 1] as usize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `offsets` is monotone with `offsets[n] == targets.len()`,
        // so `start..end` is in range; a prefetch has no other effect.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let ptr = self.targets.as_ptr();
            _mm_prefetch(ptr.add(start) as *const i8, _MM_HINT_T0);
            if end > start {
                _mm_prefetch(ptr.add(end - 1) as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (start, end);
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees.last().map_or(0, |&d| d as usize)
    }

    /// The distinct vertex degrees, ascending, recorded when the graph was
    /// frozen.
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// The bandwidth of the graph *in its current labelling*: the maximum
    /// `|u - v|` over edges. The quantity the RCM relabelling minimises —
    /// after a good relabelling every neighbourhood row points at nearby
    /// ids, so a sweep's profile reads stay inside a small moving window.
    pub fn bandwidth(&self) -> usize {
        (0..self.n)
            .flat_map(|u| {
                self.neighbors(u)
                    .iter()
                    .map(move |&v| u.abs_diff(v as usize))
            })
            .max()
            .unwrap_or(0)
    }

    /// Heap footprint of the two index arrays in bytes — the number the
    /// memory-locality bench rows report against `Vec<Vec<usize>>`.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph(n={}, m={}, bytes={})",
            self.n,
            self.num_edges(),
            self.memory_bytes()
        )
    }
}

/// Freezes an owned graph through [`CsrGraph::from_graph`], so the game
/// constructors take either a `Graph` or an already shared `Arc<CsrGraph>`.
impl From<Graph> for Arc<CsrGraph> {
    fn from(graph: Graph) -> Self {
        Arc::new(CsrGraph::from_graph(&graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::GraphBuilder;

    #[test]
    fn csr_agrees_with_graph_on_every_builder_topology() {
        for graph in [
            GraphBuilder::path(7),
            GraphBuilder::ring(8),
            GraphBuilder::clique(6),
            GraphBuilder::star(9),
            GraphBuilder::grid(3, 5),
            GraphBuilder::torus(3, 4),
            GraphBuilder::hypercube(4),
            GraphBuilder::circulant(12, 3),
            GraphBuilder::binary_tree(12),
        ] {
            let csr = CsrGraph::from_graph(&graph);
            assert_eq!(csr.num_vertices(), graph.num_vertices());
            assert_eq!(csr.num_edges(), graph.num_edges());
            assert_eq!(csr.max_degree(), graph.max_degree());
            for u in 0..graph.num_vertices() {
                assert_eq!(csr.degree(u), graph.degree(u));
                let row: Vec<usize> = csr.neighbors(u).iter().map(|&v| v as usize).collect();
                assert_eq!(row, graph.neighbors(u), "row {u} differs");
                assert!(csr.neighbors(u).windows(2).all(|w| w[0] < w[1]));
            }
            assert!(csr.edges().eq(graph.edges()), "edge sequences differ");
            let degrees: std::collections::BTreeSet<u32> = (0..graph.num_vertices())
                .map(|u| graph.degree(u) as u32)
                .collect();
            assert!(csr.degrees().iter().eq(&degrees), "distinct degrees differ");
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let csr = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(csr.bandwidth(), 0);
        let csr = CsrGraph::from_graph(&Graph::new(3));
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.edges().count(), 0);
    }

    #[test]
    fn bandwidth_in_current_labels() {
        // Ring of 6: the wrap edge {0, 5} dominates.
        assert_eq!(CsrGraph::from_graph(&GraphBuilder::ring(6)).bandwidth(), 5);
        // Path: every edge spans 1.
        assert_eq!(CsrGraph::from_graph(&GraphBuilder::path(6)).bandwidth(), 1);
    }

    #[test]
    fn memory_is_two_contiguous_u32_arrays() {
        let graph = GraphBuilder::circulant(100, 4);
        let csr = CsrGraph::from_graph(&graph);
        // (n + 1) offsets + 2m targets, 4 bytes each.
        assert_eq!(csr.memory_bytes(), 4 * (101 + 2 * graph.num_edges()));
    }

    #[test]
    fn try_from_graph_matches_the_panicking_constructor_on_valid_input() {
        let graph = GraphBuilder::torus(4, 5);
        let fallible = CsrGraph::try_from_graph(&graph).expect("fits u32 comfortably");
        assert_eq!(fallible, CsrGraph::from_graph(&graph));
    }

    #[test]
    fn u32_bounds_reject_oversized_counts_with_typed_errors() {
        // The raw-count seam: graphs beyond u32 cannot be materialised in a
        // test, so the contract is pinned on the counts themselves.
        assert_eq!(check_u32_bounds(100, 400), Ok(()));
        assert_eq!(
            check_u32_bounds(u32::MAX as usize, u32::MAX as usize),
            Ok(())
        );
        let n = u32::MAX as usize + 1;
        assert_eq!(
            check_u32_bounds(n, 0),
            Err(CsrIndexError::TooManyVertices(n))
        );
        assert_eq!(check_u32_bounds(10, n), Err(CsrIndexError::TooManyEdges(n)));
        // The messages are the exact strings the panicking path raises.
        assert_eq!(
            CsrIndexError::TooManyVertices(n).to_string(),
            format!("CSR u32 indices cannot address {n} vertices")
        );
        assert_eq!(
            CsrIndexError::TooManyEdges(n).to_string(),
            format!("CSR u32 offsets cannot address {n} directed edges")
        );
    }
}
