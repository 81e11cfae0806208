//! Standard graph topologies.
//!
//! The paper's Section 5 studies graphical coordination games on a general graph
//! (Theorem 5.1, parameterised by cutwidth), on the clique (Theorem 5.5) and on
//! the ring (Theorems 5.6–5.7). The experiment harness sweeps over these plus a
//! handful of other classic topologies with known or easily-computed cutwidths.
//! The six the job service admits (ring, clique, torus, grid, hypercube,
//! circulant) are defined once, by their rows in [`Topology`]; their
//! builders here wrap those rows.

use crate::graph::Graph;
use crate::topology::Topology;
use rand::Rng;

/// Factory for the standard topologies used in the experiments.
///
/// All constructors return simple undirected graphs on vertices `0..n`.
pub struct GraphBuilder;

impl GraphBuilder {
    /// Path `0 - 1 - ... - (n-1)`.
    pub fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// Ring (cycle) on `n ≥ 3` vertices.
    ///
    /// # Panics
    /// Panics for `n < 3` (a cycle needs at least three vertices to be simple).
    pub fn ring(n: usize) -> Graph {
        Topology::Ring { n }.graph()
    }

    /// Complete graph (clique) on `n` vertices.
    ///
    /// Writes each sorted row once, `O(n²)`: inserting the `n²/2` edges one
    /// at a time costs several times that.
    pub fn clique(n: usize) -> Graph {
        Topology::Clique { n }.graph()
    }

    /// Star with centre `0` and `n - 1` leaves.
    pub fn star(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(0, v);
        }
        g
    }

    /// `rows × cols` grid graph (4-neighbour lattice).
    pub fn grid(rows: usize, cols: usize) -> Graph {
        Topology::Grid { rows, cols }.graph()
    }

    /// `rows × cols` torus (grid with wrap-around), requires `rows, cols ≥ 3`
    /// so that wrap-around edges are neither self-loops nor duplicates.
    pub fn torus(rows: usize, cols: usize) -> Graph {
        Topology::Torus { rows, cols }.graph()
    }

    /// Hypercube on `2^d` vertices; vertices are adjacent when their indices
    /// differ in exactly one bit.
    pub fn hypercube(d: usize) -> Graph {
        Topology::Hypercube { dim: d }.graph()
    }

    /// Complete bipartite graph `K_{a,b}`; the first `a` vertices form one side.
    pub fn complete_bipartite(a: usize, b: usize) -> Graph {
        let mut g = Graph::new(a + b);
        for u in 0..a {
            for v in 0..b {
                g.add_edge(u, a + v);
            }
        }
        g
    }

    /// Complete binary tree with `n` vertices in heap order
    /// (vertex `i` has children `2i+1` and `2i+2`).
    pub fn binary_tree(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i, (i - 1) / 2);
        }
        g
    }

    /// Circulant graph: a ring where every vertex is also joined to its `k`
    /// nearest neighbours on each side (degree `2k`, so `min(2k, n - 1)`
    /// when the windows wrap into each other).
    ///
    /// The dense-degree regular topology of the coloured-revision
    /// benchmarks: any `k + 1` consecutive vertices form a clique, so
    /// `χ ≥ k + 1`, while greedy colouring stays within `Δ + 1 = 2k + 1` —
    /// colour classes of size `≈ n / (k + 1)`.
    ///
    /// # Panics
    /// Panics for `k < 1` or `n < 2k + 1` (the windows must not cover the
    /// whole ring).
    pub fn circulant(n: usize, k: usize) -> Graph {
        Topology::Circulant { n, k }.graph()
    }

    /// Erdős–Rényi random graph `G(n, p)`.
    pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// A connected Erdős–Rényi sample: draws `G(n, p)` repeatedly (up to
    /// `max_attempts`) until a connected graph is found, otherwise connects the
    /// components with a spanning path and returns the result.
    pub fn connected_erdos_renyi<R: Rng + ?Sized>(
        n: usize,
        p: f64,
        rng: &mut R,
        max_attempts: usize,
    ) -> Graph {
        for _ in 0..max_attempts {
            let g = Self::erdos_renyi(n, p, rng);
            if crate::traversal::is_connected(&g) {
                return g;
            }
        }
        let mut g = Self::erdos_renyi(n, p, rng);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_properties() {
        let g = GraphBuilder::path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn ring_is_2_regular() {
        let g = GraphBuilder::ring(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_regular(2));
        assert!(g.has_edge(5, 0));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small_panics() {
        let _ = GraphBuilder::ring(2);
    }

    #[test]
    fn clique_edge_count() {
        for n in 1..8 {
            let g = GraphBuilder::clique(n);
            assert_eq!(g.num_edges(), n * (n - 1) / 2);
            if n > 1 {
                assert!(g.is_regular(n - 1));
            }
        }
    }

    #[test]
    fn clique_rows_equal_the_edge_by_edge_build() {
        for n in 0..=64 {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    g.add_edge(u, v);
                }
            }
            assert_eq!(GraphBuilder::clique(n), g, "n = {n}");
        }
    }

    #[test]
    fn star_degrees() {
        let g = GraphBuilder::star(7);
        assert_eq!(g.degree(0), 6);
        for v in 1..7 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn grid_and_torus_edge_counts() {
        let g = GraphBuilder::grid(3, 4);
        // 3*3 horizontal + 2*4 vertical = 9 + 8 = 17
        assert_eq!(g.num_edges(), 17);
        let t = GraphBuilder::torus(3, 4);
        // torus on r x c has 2*r*c edges
        assert_eq!(t.num_edges(), 24);
        assert!(t.is_regular(4));
    }

    #[test]
    fn hypercube_is_d_regular() {
        for d in 1..5 {
            let g = GraphBuilder::hypercube(d);
            assert_eq!(g.num_vertices(), 1 << d);
            assert!(g.is_regular(d));
            assert_eq!(g.num_edges(), d * (1 << d) / 2);
        }
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = GraphBuilder::complete_bipartite(3, 4);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!(!g.has_edge(0, 1)); // same side
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn binary_tree_is_tree() {
        let g = GraphBuilder::binary_tree(10);
        assert_eq!(g.num_edges(), 9);
        assert!(is_connected(&g));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(4, 9));
    }

    #[test]
    fn circulant_is_2k_regular_with_clique_windows() {
        let g = GraphBuilder::circulant(12, 3);
        assert!(g.is_regular(6));
        assert_eq!(g.num_edges(), 12 * 3);
        assert!(is_connected(&g));
        // Any k + 1 consecutive vertices form a clique.
        for base in 0..12 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    assert!(g.has_edge((base + a) % 12, (base + b) % 12));
                }
            }
        }
        // k = 1 degenerates to the plain ring.
        let ring = GraphBuilder::circulant(7, 1);
        assert_eq!(ring.num_edges(), 7);
        assert!(ring.is_regular(2));
    }

    #[test]
    #[should_panic(expected = "n >= 2k + 1")]
    fn circulant_window_overlap_rejected() {
        let _ = GraphBuilder::circulant(6, 3);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = GraphBuilder::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = GraphBuilder::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn connected_erdos_renyi_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let g = GraphBuilder::connected_erdos_renyi(12, 0.15, &mut rng, 50);
            assert!(is_connected(&g));
        }
    }
}
