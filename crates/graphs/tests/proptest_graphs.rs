//! Property-based tests for the graph substrate.

use logit_graphs::traversal::{bfs_distances, connected_components, is_connected};
use logit_graphs::{
    cutwidth_exact, cutwidth_heuristic, cutwidth_of_ordering, dsatur_coloring, greedy_coloring,
    CsrGraph, Graph, GraphBuilder, VertexOrdering,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a random small graph as (n, edge list).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..9).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..(n * (n - 1) / 2));
        (Just(n), edges)
    })
}

fn build(n: usize, raw: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new(n);
    for &(u, v) in raw {
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// Strategy producing a loop-free edge list on `n` vertices in which some
/// edges repeat, in both orientations.
fn edge_list_with_repeats() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10)
        .prop_flat_map(|n| (Just(n), prop::collection::vec((0..n, 0..n), 0..30)))
        .prop_map(|(n, raw)| {
            let mut edges: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            let repeats: Vec<(usize, usize)> = edges
                .iter()
                .step_by(2)
                .map(|&(u, v)| (v, u))
                .chain(edges.iter().step_by(3).copied())
                .collect();
            edges.extend(repeats);
            (n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_edges` stores every distinct edge once, in sorted rows: its
    /// edge sequence is the sorted, deduplicated `(min, max)` pairs,
    /// `has_edge` holds exactly on them, and inserting the edges one at a
    /// time builds an equal graph.
    #[test]
    fn from_edges_stores_each_edge_once_in_sorted_rows((n, edges) in edge_list_with_repeats()) {
        let g = Graph::from_edges(n, &edges);
        let mut expected: Vec<(usize, usize)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(g.num_edges(), expected.len());
        for u in 0..n {
            prop_assert!(g.neighbors(u).windows(2).all(|w| w[0] < w[1]));
            for v in 0..n {
                let listed = expected.binary_search(&(u.min(v), u.max(v))).is_ok();
                prop_assert_eq!(g.has_edge(u, v), listed);
            }
        }
        prop_assert!(CsrGraph::from_graph(&g).edges().eq(g.edges()));
        let mut one_by_one = Graph::new(n);
        for &(u, v) in &edges {
            one_by_one.add_edge(u, v);
        }
        prop_assert_eq!(one_by_one, g);
    }

    /// The handshake lemma: sum of degrees equals twice the edge count.
    #[test]
    fn handshake_lemma((n, raw) in small_graph()) {
        let g = build(n, &raw);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// BFS distances satisfy the triangle-ish property along edges:
    /// adjacent vertices' distances from any source differ by at most one.
    #[test]
    fn bfs_distance_lipschitz((n, raw) in small_graph()) {
        let g = build(n, &raw);
        let d = bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            if d[u] != usize::MAX && d[v] != usize::MAX {
                let hi = d[u].max(d[v]);
                let lo = d[u].min(d[v]);
                prop_assert!(hi - lo <= 1);
            } else {
                // If one endpoint is reachable the other must be too.
                prop_assert_eq!(d[u] == usize::MAX, d[v] == usize::MAX);
            }
        }
    }

    /// Components partition the vertex set and edges never cross components.
    #[test]
    fn components_are_consistent((n, raw) in small_graph()) {
        let g = build(n, &raw);
        let (labels, k) = connected_components(&g);
        prop_assert!(labels.iter().all(|&l| l < k));
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
        prop_assert_eq!(is_connected(&g), k <= 1);
    }

    /// Any ordering's cutwidth upper-bounds the exact cutwidth, and the exact
    /// cutwidth's certificate ordering achieves it.
    #[test]
    fn exact_cutwidth_is_a_lower_bound((n, raw) in small_graph(), seed in 0u64..1000) {
        let g = build(n, &raw);
        let exact = cutwidth_exact(&g);
        prop_assert_eq!(cutwidth_of_ordering(&g, &exact.ordering), exact.cutwidth);

        let mut rng = StdRng::seed_from_u64(seed);
        let random_ordering = VertexOrdering::random(n, &mut rng);
        prop_assert!(cutwidth_of_ordering(&g, &random_ordering) >= exact.cutwidth);

        let heur = cutwidth_heuristic(&g, &mut rng, 3);
        prop_assert!(heur.cutwidth >= exact.cutwidth);
    }

    /// Cutwidth is at least max_degree / 2 (every vertex's edges must cross the
    /// cut on one of its two sides) and at most |E|.
    #[test]
    fn cutwidth_degree_bounds((n, raw) in small_graph()) {
        let g = build(n, &raw);
        let exact = cutwidth_exact(&g).cutwidth;
        prop_assert!(exact <= g.num_edges());
        prop_assert!(exact >= g.max_degree().div_ceil(2));
    }

    /// Colouring satellite: on arbitrary random graphs both constructions are
    /// proper (every colour class is an independent set), stay within the
    /// `Δ + 1` bound, and their classes partition the vertex set. (That
    /// DSATUR uses no more classes than first-fit is deliberately *not*
    /// asserted here: it is an empirical tendency with counterexamples
    /// inside this very distribution, pinned as a majority claim on a
    /// frozen fixture in the coloring module's unit tests instead.)
    #[test]
    fn colourings_are_proper_partitions_within_delta_plus_one((n, raw) in small_graph()) {
        let g = build(n, &raw);
        for coloring in [greedy_coloring(&g), dsatur_coloring(&g)] {
            prop_assert!(coloring.is_proper(&g));
            prop_assert!(coloring.num_classes() <= g.max_degree() + 1);
            // Classes partition 0..n; every edge crosses classes.
            let mut seen = vec![false; n];
            for class in coloring.classes() {
                prop_assert!(!class.is_empty());
                prop_assert!(class.windows(2).all(|w| w[0] < w[1]));
                for &v in class {
                    prop_assert!(!seen[v]);
                    seen[v] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
            for (u, v) in g.edges() {
                prop_assert_ne!(coloring.color_of(u), coloring.color_of(v));
            }
        }
    }
}

#[test]
fn ring_and_clique_cutwidths_scale_as_documented() {
    // The contrast the paper draws in Section 5: χ(ring) = 2 stays constant while
    // χ(clique) = ⌊n²/4⌋ grows quadratically.
    for n in 4..10 {
        let ring = cutwidth_exact(&GraphBuilder::ring(n)).cutwidth;
        let clique = cutwidth_exact(&GraphBuilder::clique(n)).cutwidth;
        assert_eq!(ring, 2);
        assert_eq!(clique, (n / 2) * n.div_ceil(2));
        assert!(clique > ring);
    }
}
