//! The six standard topologies as row generators.
//!
//! Each topology is defined once, by the sorted neighbours of every vertex
//! ([`Topology::for_each_neighbour`]). [`GraphBuilder`](crate::GraphBuilder)
//! builds its [`Graph`]s from those rows, and [`Topology::try_csr`] writes
//! them straight into a [`CsrGraph`] without building a `Graph` at all:
//! one pass, one allocation per array, sized from the topology's
//! closed-form counts, which also decide the u32 index check before
//! anything is allocated.

use crate::csr::{check_u32_bounds, CsrGraph, CsrIndexError};
use crate::graph::Graph;

/// A standard topology by its parameters.
///
/// Every variant has the preconditions of its [`GraphBuilder`](crate::GraphBuilder)
/// constructor: a ring needs `n ≥ 3`, a torus both dimensions `≥ 3`, a
/// circulant `k ≥ 1` and `n ≥ 2k + 1`. Rows of a topology that violates
/// them are not a simple graph's; [`Topology::try_csr`] and
/// [`Topology::graph`] panic on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The cycle on `n` vertices.
    Ring { n: usize },
    /// The complete graph on `n` vertices.
    Clique { n: usize },
    /// The `rows × cols` grid with wrap-around, vertex `r·cols + c`.
    Torus { rows: usize, cols: usize },
    /// The `rows × cols` 4-neighbour grid, vertex `r·cols + c`.
    Grid { rows: usize, cols: usize },
    /// The `dim`-cube: vertices adjacent when they differ in one bit.
    Hypercube { dim: usize },
    /// The ring on `n` vertices with every vertex also joined to its `k`
    /// nearest neighbours on each side.
    Circulant { n: usize, k: usize },
}

impl Topology {
    /// Number of vertices, saturating at `usize::MAX`.
    pub fn num_vertices(&self) -> usize {
        match *self {
            Topology::Ring { n } | Topology::Clique { n } | Topology::Circulant { n, .. } => n,
            Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
                rows.saturating_mul(cols)
            }
            Topology::Hypercube { dim } => 1usize
                .checked_shl(u32::try_from(dim).unwrap_or(u32::MAX))
                .unwrap_or(usize::MAX),
        }
    }

    /// Number of directed edges (twice the undirected count), in closed
    /// form and saturating at `usize::MAX`, so it is known before any row
    /// is written.
    pub fn num_directed_edges(&self) -> usize {
        let n = self.num_vertices();
        match *self {
            Topology::Ring { .. } => n.saturating_mul(2),
            Topology::Clique { .. } => n.saturating_mul(n.saturating_sub(1)),
            Topology::Torus { .. } => n.saturating_mul(4),
            Topology::Grid { rows, cols } => rows
                .saturating_mul(cols.saturating_sub(1))
                .saturating_add(cols.saturating_mul(rows.saturating_sub(1)))
                .saturating_mul(2),
            Topology::Hypercube { dim } => n.saturating_mul(dim),
            Topology::Circulant { k, .. } => n.saturating_mul(k).saturating_mul(2),
        }
    }

    /// Calls `visit` with the neighbours of vertex `u`, ascending.
    #[inline]
    pub fn for_each_neighbour(&self, u: usize, mut visit: impl FnMut(usize)) {
        match *self {
            Topology::Ring { n } => window(n, 1, u, visit),
            Topology::Circulant { n, k } => window(n, k, u, visit),
            Topology::Clique { n } => (0..u).chain(u + 1..n).for_each(visit),
            Topology::Torus { rows, cols } => {
                let (r, c) = (u / cols, u % cols);
                let mut row = [
                    (r + rows - 1) % rows * cols + c,
                    r * cols + (c + cols - 1) % cols,
                    r * cols + (c + 1) % cols,
                    (r + 1) % rows * cols + c,
                ];
                row.sort_unstable();
                row.into_iter().for_each(visit);
            }
            Topology::Grid { rows, cols } => {
                let (r, c) = (u / cols, u % cols);
                // Already ascending: up, left, right, down.
                if r > 0 {
                    visit(u - cols);
                }
                if c > 0 {
                    visit(u - 1);
                }
                if c + 1 < cols {
                    visit(u + 1);
                }
                if r + 1 < rows {
                    visit(u + cols);
                }
            }
            Topology::Hypercube { dim } => {
                // Clearing a set bit lowers u, the more so the higher the
                // bit; setting a clear bit raises it, the more so the
                // higher the bit.
                for b in (0..dim).rev().filter(|&b| u >> b & 1 == 1) {
                    visit(u ^ (1 << b));
                }
                for b in (0..dim).filter(|&b| u >> b & 1 == 0) {
                    visit(u ^ (1 << b));
                }
            }
        }
    }

    /// The topology as a [`Graph`], its rows written once each.
    ///
    /// # Panics
    /// On a topology that violates its preconditions (see the type docs).
    pub fn graph(&self) -> Graph {
        self.check_preconditions();
        let rows = (0..self.num_vertices())
            .map(|u| {
                let mut row = Vec::new();
                self.for_each_neighbour(u, |v| row.push(v));
                row
            })
            .collect();
        Graph::from_sorted_rows(rows)
    }

    /// The topology frozen to CSR, written row by row without a [`Graph`]:
    /// equal to `CsrGraph::try_from_graph(&self.graph())`. The u32 index
    /// check reads the closed-form counts, so a topology past it is
    /// refused before anything is allocated.
    ///
    /// # Panics
    /// On a topology that violates its preconditions (see the type docs).
    pub fn try_csr(&self) -> Result<CsrGraph, CsrIndexError> {
        let (n, directed) = (self.num_vertices(), self.num_directed_edges());
        check_u32_bounds(n, directed)?;
        self.check_preconditions();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(directed);
        offsets.push(0u32);
        for u in 0..n {
            self.for_each_neighbour(u, |v| targets.push(v as u32));
            offsets.push(targets.len() as u32);
        }
        debug_assert_eq!(targets.len(), directed, "{self:?}: closed-form count");
        Ok(CsrGraph::from_parts(offsets, targets))
    }

    fn check_preconditions(&self) {
        match *self {
            Topology::Ring { n } => assert!(n >= 3, "a ring needs at least 3 vertices, got {n}"),
            Topology::Torus { rows, cols } => assert!(
                rows >= 3 && cols >= 3,
                "torus requires both dimensions >= 3, got {rows}x{cols}"
            ),
            Topology::Circulant { n, k } => {
                assert!(k >= 1, "circulant needs at least one neighbour per side");
                assert!(
                    n > 2 * k,
                    "circulant needs n >= 2k + 1, got n = {n}, k = {k}"
                );
            }
            Topology::Clique { .. } | Topology::Grid { .. } | Topology::Hypercube { .. } => {}
        }
    }
}

/// The neighbours of `u` on the `n`-cycle within distance `k`, ascending:
/// the cyclic interval `[u − k, u + k]` without `u`, which is one range of
/// indices or, where it wraps, a low and a high one (`n > 2k`, so the
/// interval never covers the cycle).
#[inline]
fn window(n: usize, k: usize, u: usize, mut visit: impl FnMut(usize)) {
    let (low, high) = if u < k {
        (0..u + k + 1, u + n - k..n)
    } else if u + k >= n {
        (0..u + k + 1 - n, u - k..n)
    } else {
        (u - k..u + k + 1, n..n)
    };
    for v in low.chain(high) {
        if v != u {
            visit(v);
        }
    }
}

/// The topologies the job service admits, on both sides of both of
/// [`coloring_for_graph`](crate::coloring_for_graph)'s DSATUR caps, each
/// with whether it falls within them.
#[cfg(test)]
pub(crate) fn admitted_topology_table() -> Vec<(Topology, bool)> {
    let mut table = Vec::new();
    // The vertex cap: n ≤ 2¹⁴.
    for n in [3, 4, 5, 1000, 1 << 14, (1 << 14) + 1] {
        table.push((Topology::Ring { n }, n <= 1 << 14));
    }
    for (rows, cols) in [(3, 3), (3, 4), (5, 7), (64, 64), (128, 128), (128, 129)] {
        table.push((Topology::Torus { rows, cols }, rows * cols <= 1 << 14));
    }
    for (rows, cols) in [
        (1, 1),
        (1, 2),
        (1, 9),
        (9, 1),
        (2, 2),
        (9, 14),
        (128, 128),
        (1, 1 << 14),
        (1, (1 << 14) + 1),
    ] {
        table.push((Topology::Grid { rows, cols }, rows * cols <= 1 << 14));
    }
    for dim in 0..=15 {
        table.push((Topology::Hypercube { dim }, dim <= 14));
    }
    // The cell cap: n·(Δ + 1) ≤ 2²².
    for (n, k) in [
        (3, 1),
        (5, 2),
        (7, 3),
        (255, 127),
        (600, 3),
        (10_000, 5),
        (16_384, 127),
        (16_384, 128),
    ] {
        table.push((Topology::Circulant { n, k }, n * (2 * k + 1) <= 1 << 22));
    }
    for n in [1, 2, 3, 40, 1000, 2048, 2049] {
        table.push((Topology::Clique { n }, n * n <= 1 << 22));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{coloring_for_graph, within_dsatur_caps};

    /// Each topology by its edge list, as the builders defined it before
    /// they wrote rows: the reference the rows are checked against.
    fn edge_by_edge(topology: Topology) -> Graph {
        let n = topology.num_vertices();
        let mut edges = Vec::new();
        match topology {
            Topology::Ring { n } => edges.extend((0..n).map(|u| (u, (u + 1) % n))),
            Topology::Circulant { n, k } => {
                edges.extend((0..n).flat_map(|u| (1..=k).map(move |d| (u, (u + d) % n))))
            }
            Topology::Clique { n } => {
                edges.extend((0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))))
            }
            Topology::Torus { rows, cols } | Topology::Grid { rows, cols } => {
                let wrap = matches!(topology, Topology::Torus { .. });
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols || wrap {
                            edges.push((r * cols + c, r * cols + (c + 1) % cols));
                        }
                        if r + 1 < rows || wrap {
                            edges.push((r * cols + c, (r + 1) % rows * cols + c));
                        }
                    }
                }
            }
            Topology::Hypercube { dim } => {
                edges.extend((0..n).flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b)))))
            }
        }
        Graph::from_edges(n, &edges)
    }

    /// Every admitted topology, and in an optimised build the 2²⁰-player
    /// circulant the heavy served workload runs: its rows, written to CSR
    /// without a `Graph`, equal the frozen edge-list graph's, the closed
    /// form counts its edges, and the CSR colours like the `Graph` does,
    /// by the same algorithm on the same side of the caps.
    #[test]
    fn direct_csr_and_its_colouring_equal_the_graph_route_on_every_admitted_topology() {
        let mut table = admitted_topology_table();
        if !cfg!(debug_assertions) {
            table.push((Topology::Circulant { n: 1 << 20, k: 4 }, false));
        }
        for (topology, dsatur) in table {
            let reference = edge_by_edge(topology);
            assert_eq!(topology.graph(), reference, "{topology:?}: the rows");
            let csr = topology.try_csr().expect("admitted topologies fit u32");
            assert_eq!(
                csr,
                CsrGraph::try_from_graph(&reference).unwrap(),
                "{topology:?}: the CSR"
            );
            assert_eq!(
                topology.num_directed_edges(),
                2 * reference.num_edges(),
                "{topology:?}: the closed form"
            );
            assert_eq!(within_dsatur_caps(&csr), dsatur, "{topology:?}: the caps");
            assert_eq!(
                coloring_for_graph(&csr),
                coloring_for_graph(&reference),
                "{topology:?}: the colouring"
            );
        }
    }

    #[test]
    fn a_topology_past_the_u32_limit_is_refused_from_its_counts() {
        // Far too large to allocate: the refusal must come first.
        let n = 1 << 31;
        assert_eq!(
            Topology::Circulant { n, k: 2 }.try_csr(),
            Err(CsrIndexError::TooManyEdges(4 * n))
        );
        assert_eq!(
            Topology::Ring { n: 1 << 33 }.try_csr(),
            Err(CsrIndexError::TooManyVertices(1 << 33))
        );
        let n = 1 << 17;
        assert_eq!(
            Topology::Clique { n }.try_csr(),
            Err(CsrIndexError::TooManyEdges(n * (n - 1)))
        );
    }
}
