//! Proper vertex colourings: the schedule substrate of coloured parallel
//! revision.
//!
//! A proper colouring partitions the vertices into **independent sets**
//! (colour classes). For the revision dynamics of a `LocalGame` this is
//! exactly the structure that makes parallelism correct: players in one
//! class are pairwise non-adjacent, so their single-tick updates commute —
//! a whole class can revise simultaneously against the frozen pre-tick
//! profile and the result is identical to any sequential ordering of the
//! same updates. The `ColouredBlocks` schedule and the
//! `step_coloured_pooled` engine path in `logit-core` build on the
//! [`Coloring`] type here.
//!
//! Two constructions are provided:
//!
//! * [`greedy_coloring`] — first-fit in vertex order; never uses more than
//!   `Δ + 1` colours (each vertex has at most `Δ` coloured neighbours when
//!   its colour is chosen), the classical bound `χ(G) ≤ Δ + 1`.
//! * [`dsatur_coloring`] — Brélaz's DSATUR: always colour the vertex with
//!   the most distinctly-coloured neighbours (saturation), tie-broken by
//!   degree then index. Also bounded by `Δ + 1`, exact on bipartite graphs,
//!   and on typical graphs it uses no more classes than first-fit (an
//!   empirical tendency, not a theorem — only `Δ + 1` is contractual) —
//!   fewer classes mean larger independent sets, i.e. wider parallel
//!   blocks.

use crate::graph::Graph;

/// A proper vertex colouring with its colour classes materialised as
/// contiguous index slices.
///
/// Internally the vertices are stored as one permutation grouped by colour
/// (`order`), with `starts[c]..starts[c + 1]` delimiting class `c` — so
/// [`Coloring::class`] hands out a contiguous `&[usize]` that a parallel
/// block update can chunk across workers without any gather step. Within a
/// class, vertices are in ascending order (deterministic block order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Colour of every vertex.
    colors: Vec<usize>,
    /// Vertices grouped by colour, ascending within each class.
    order: Vec<usize>,
    /// Class `c` occupies `order[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl Coloring {
    /// Builds the class structure from a per-vertex colour assignment.
    ///
    /// # Panics
    /// Panics when `colors` is empty or the colour values are not exactly
    /// `0..k` for some `k` (no gaps — every class must be non-empty).
    pub fn from_colors(colors: Vec<usize>) -> Self {
        assert!(!colors.is_empty(), "a colouring needs at least one vertex");
        let num_classes = colors.iter().max().expect("non-empty") + 1;
        let mut sizes = vec![0usize; num_classes];
        for &c in &colors {
            sizes[c] += 1;
        }
        assert!(
            sizes.iter().all(|&s| s > 0),
            "colour values must be contiguous 0..k (every class non-empty)"
        );
        let mut starts = Vec::with_capacity(num_classes + 1);
        let mut acc = 0;
        starts.push(0);
        for &s in &sizes {
            acc += s;
            starts.push(acc);
        }
        // Counting sort by colour keeps each class in ascending vertex order.
        let mut cursor = starts[..num_classes].to_vec();
        let mut order = vec![0usize; colors.len()];
        for (v, &c) in colors.iter().enumerate() {
            order[cursor[c]] = v;
            cursor[c] += 1;
        }
        Self {
            colors,
            order,
            starts,
        }
    }

    /// Number of coloured vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// Number of colour classes.
    pub fn num_classes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Colour of vertex `v`.
    pub fn color_of(&self, v: usize) -> usize {
        self.colors[v]
    }

    /// The vertices of class `c`, as a contiguous slice in ascending order.
    pub fn class(&self, c: usize) -> &[usize] {
        &self.order[self.starts[c]..self.starts[c + 1]]
    }

    /// The class revising at tick `t` when classes are cycled round-robin
    /// (the `ColouredBlocks` schedule convention): `t mod num_classes`.
    pub fn class_of_tick(&self, t: u64) -> usize {
        (t % self.num_classes() as u64) as usize
    }

    /// Iterator over the colour classes, in colour order.
    pub fn classes(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.num_classes()).map(move |c| self.class(c))
    }

    /// Size of the largest class (the widest parallel block).
    pub fn max_class_size(&self) -> usize {
        self.classes().map(|c| c.len()).max().unwrap_or(0)
    }

    /// The same colouring transported along a vertex relabelling: the new
    /// vertex `ordering.position_of(v)` gets `v`'s colour. Colour *values*
    /// are preserved verbatim, so class `c` of the result is exactly class
    /// `c` of `self` mapped through the permutation (same sets, same
    /// `class_of_tick` cycle) — the property that lets a relabelled engine
    /// replay the unrelabelled schedule tick for tick. Pairs with
    /// `Graph::relabelled`: a colouring proper for `g` is proper for
    /// `g.relabelled(ordering)` after this transport.
    ///
    /// # Panics
    /// Panics when the ordering covers a different vertex count.
    pub fn relabelled(&self, ordering: &crate::ordering::VertexOrdering) -> Coloring {
        assert_eq!(
            ordering.len(),
            self.num_vertices(),
            "ordering covers a different vertex count"
        );
        let mut colors = vec![0usize; self.colors.len()];
        for (v, &c) in self.colors.iter().enumerate() {
            colors[ordering.position_of(v)] = c;
        }
        Coloring::from_colors(colors)
    }

    /// `true` when the colouring is proper for `graph`: every edge joins two
    /// distinct colours (equivalently, every class is an independent set).
    ///
    /// # Panics
    /// Panics when the vertex counts disagree.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        assert_eq!(
            self.num_vertices(),
            graph.num_vertices(),
            "colouring and graph cover different vertex sets"
        );
        graph.edges().all(|(u, v)| self.colors[u] != self.colors[v])
    }
}

/// First-fit greedy colouring in vertex order: each vertex takes the
/// smallest colour unused by its already-coloured neighbours.
///
/// Uses at most `Δ + 1` colours (the classical `χ(G) ≤ Δ + 1` bound, which
/// [`Coloring`] consumers may rely on to size buffers); the result is
/// always a proper colouring.
pub fn greedy_coloring(graph: &Graph) -> Coloring {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot colour the empty graph");
    let mut colors = vec![usize::MAX; n];
    // `forbidden[c] == v` means colour c is used by a neighbour of v.
    let mut forbidden = vec![usize::MAX; graph.max_degree() + 1];
    for v in 0..n {
        for &u in graph.neighbors(v) {
            if colors[u] != usize::MAX {
                forbidden[colors[u]] = v;
            }
        }
        colors[v] = (0..forbidden.len())
            .find(|&c| forbidden[c] != v)
            .expect("Delta + 1 colours always suffice for first-fit");
    }
    normalise(colors)
}

/// Brélaz's DSATUR colouring: repeatedly colour the uncoloured vertex with
/// the highest *saturation* (number of distinct neighbour colours),
/// tie-broken by degree and then by index, assigning the smallest feasible
/// colour.
///
/// Like first-fit it never exceeds `Δ + 1` colours; it is exact on
/// bipartite graphs and *usually* produces no more classes than first-fit
/// (an empirical tendency, not a theorem: rare tie-break patterns exist
/// where it loses by a class, so callers may rely only on `Δ + 1` and on
/// propriety).
pub fn dsatur_coloring(graph: &Graph) -> Coloring {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot colour the empty graph");
    let max_colors = graph.max_degree() + 1;
    let mut colors = vec![usize::MAX; n];
    // neighbour_colors[v][c]: does v have a neighbour coloured c?
    let mut neighbour_colors = vec![vec![false; max_colors]; n];
    let mut saturation = vec![0usize; n];
    // Selection scans only the still-uncoloured vertices (swap_remove keeps
    // the list compact); the `(saturation, degree, lowest index)` key is a
    // total order, so the winner is independent of the scan order.
    let mut uncoloured: Vec<usize> = (0..n).collect();
    while !uncoloured.is_empty() {
        // Highest saturation, then highest degree, then lowest index.
        let slot = (0..uncoloured.len())
            .max_by(|&i, &j| {
                let (a, b) = (uncoloured[i], uncoloured[j]);
                saturation[a]
                    .cmp(&saturation[b])
                    .then(graph.degree(a).cmp(&graph.degree(b)))
                    .then(b.cmp(&a))
            })
            .expect("an uncoloured vertex remains");
        let v = uncoloured.swap_remove(slot);
        let c = (0..max_colors)
            .find(|&c| !neighbour_colors[v][c])
            .expect("Delta + 1 colours always suffice for DSATUR");
        colors[v] = c;
        for &u in graph.neighbors(v) {
            if colors[u] == usize::MAX && !neighbour_colors[u][c] {
                neighbour_colors[u][c] = true;
                saturation[u] += 1;
            }
        }
    }
    normalise(colors)
}

/// Compacts colour values to `0..k` in first-appearance order (DSATUR can
/// skip a value when a tie-break order never needs it) and builds the class
/// structure.
fn normalise(colors: Vec<usize>) -> Coloring {
    let mut remap: Vec<Option<usize>> = vec![None; colors.iter().max().map_or(0, |&m| m + 1)];
    let mut next = 0usize;
    let compact: Vec<usize> = colors
        .iter()
        .map(|&c| {
            *remap[c].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    Coloring::from_colors(compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_structure(coloring: &Coloring, graph: &Graph) {
        assert!(coloring.is_proper(graph), "colouring must be proper");
        assert!(
            coloring.num_classes() <= graph.max_degree() + 1,
            "chi <= Delta + 1 must hold: {} classes, Delta = {}",
            coloring.num_classes(),
            graph.max_degree()
        );
        // Classes partition the vertex set, ascending within each class.
        let mut seen = vec![false; graph.num_vertices()];
        for class in coloring.classes() {
            assert!(class.windows(2).all(|w| w[0] < w[1]), "class sorted");
            for &v in class {
                assert!(!seen[v], "vertex {v} appears in two classes");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "classes must cover every vertex");
        // color_of agrees with class membership.
        for c in 0..coloring.num_classes() {
            for &v in coloring.class(c) {
                assert_eq!(coloring.color_of(v), c);
            }
        }
    }

    #[test]
    fn greedy_and_dsatur_are_proper_on_every_builder_topology() {
        let mut rng = StdRng::seed_from_u64(7);
        let graphs = vec![
            GraphBuilder::path(7),
            GraphBuilder::ring(8),
            GraphBuilder::ring(9),
            GraphBuilder::clique(6),
            GraphBuilder::star(9),
            GraphBuilder::grid(3, 5),
            GraphBuilder::torus(3, 4),
            GraphBuilder::hypercube(4),
            GraphBuilder::complete_bipartite(3, 5),
            GraphBuilder::binary_tree(12),
            GraphBuilder::circulant(12, 3),
            GraphBuilder::connected_erdos_renyi(14, 0.3, &mut rng, 20),
        ];
        for graph in &graphs {
            check_structure(&greedy_coloring(graph), graph);
            check_structure(&dsatur_coloring(graph), graph);
        }
    }

    #[test]
    fn exact_chromatic_numbers_on_known_topologies() {
        // Even ring: chi = 2; odd ring: chi = 3. Both algorithms achieve it.
        assert_eq!(greedy_coloring(&GraphBuilder::ring(8)).num_classes(), 2);
        assert_eq!(dsatur_coloring(&GraphBuilder::ring(8)).num_classes(), 2);
        assert_eq!(greedy_coloring(&GraphBuilder::ring(9)).num_classes(), 3);
        assert_eq!(dsatur_coloring(&GraphBuilder::ring(9)).num_classes(), 3);
        // Clique: chi = n.
        assert_eq!(greedy_coloring(&GraphBuilder::clique(5)).num_classes(), 5);
        assert_eq!(dsatur_coloring(&GraphBuilder::clique(5)).num_classes(), 5);
        // Bipartite graphs: chi = 2 (DSATUR is exact on bipartite graphs;
        // first-fit in index order also achieves 2 on these).
        for bip in [
            GraphBuilder::complete_bipartite(3, 4),
            GraphBuilder::path(6),
            GraphBuilder::star(7),
            GraphBuilder::grid(4, 4),
            GraphBuilder::hypercube(3),
            GraphBuilder::binary_tree(10),
        ] {
            assert_eq!(dsatur_coloring(&bip).num_classes(), 2, "{bip:?}");
            assert_eq!(greedy_coloring(&bip).num_classes(), 2, "{bip:?}");
        }
    }

    #[test]
    fn classes_are_contiguous_slices_of_one_permutation() {
        let coloring = greedy_coloring(&GraphBuilder::ring(8));
        // Even ring, first-fit: alternating colours.
        assert_eq!(coloring.class(0), &[0, 2, 4, 6]);
        assert_eq!(coloring.class(1), &[1, 3, 5, 7]);
        assert_eq!(coloring.max_class_size(), 4);
        assert_eq!(coloring.class_of_tick(0), 0);
        assert_eq!(coloring.class_of_tick(1), 1);
        assert_eq!(coloring.class_of_tick(2), 0);
        // The two classes are adjacent slices of the same backing array.
        let base = coloring.class(0).as_ptr();
        assert_eq!(unsafe { base.add(4) }, coloring.class(1).as_ptr());
    }

    #[test]
    fn relabelled_colouring_transports_classes_through_the_permutation() {
        use crate::ordering::VertexOrdering;
        let graph = GraphBuilder::circulant(10, 2);
        let coloring = greedy_coloring(&graph);
        let ordering = VertexOrdering::new(vec![7, 3, 9, 0, 5, 1, 8, 2, 6, 4]).unwrap();
        let relabelled = coloring.relabelled(&ordering);
        assert_eq!(relabelled.num_classes(), coloring.num_classes());
        // Vertexwise transport and exact class-set correspondence.
        for v in 0..10 {
            assert_eq!(
                relabelled.color_of(ordering.position_of(v)),
                coloring.color_of(v)
            );
        }
        for c in 0..coloring.num_classes() {
            let mut mapped: Vec<usize> = coloring
                .class(c)
                .iter()
                .map(|&v| ordering.position_of(v))
                .collect();
            mapped.sort_unstable();
            assert_eq!(relabelled.class(c), mapped.as_slice());
        }
        // Propriety survives alongside Graph::relabelled.
        assert!(relabelled.is_proper(&graph.relabelled(&ordering)));
    }

    #[test]
    fn from_colors_roundtrips_and_validates() {
        let coloring = Coloring::from_colors(vec![1, 0, 1, 2, 0]);
        assert_eq!(coloring.num_classes(), 3);
        assert_eq!(coloring.class(0), &[1, 4]);
        assert_eq!(coloring.class(1), &[0, 2]);
        assert_eq!(coloring.class(2), &[3]);
        assert_eq!(coloring.color_of(3), 2);
        assert_eq!(coloring.num_vertices(), 5);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gapped_colors_rejected() {
        let _ = Coloring::from_colors(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_coloring_rejected() {
        let _ = Coloring::from_colors(Vec::new());
    }

    #[test]
    fn improper_colouring_detected() {
        let graph = GraphBuilder::path(3);
        let proper = Coloring::from_colors(vec![0, 1, 0]);
        let improper = Coloring::from_colors(vec![0, 0, 1]);
        assert!(proper.is_proper(&graph));
        assert!(!improper.is_proper(&graph));
    }

    #[test]
    fn dsatur_rarely_beaten_by_greedy_on_small_random_graphs() {
        // "DSATUR <= first-fit" is an empirical tendency, NOT a theorem:
        // adversarial tie-break patterns exist where DSATUR loses by a
        // class (e.g. an 8-vertex graph with greedy = 3, DSATUR = 4). This
        // pins the tendency on a frozen fixture — every graph within one
        // class of first-fit, and the strict majority at or below it —
        // without codifying the false universal claim.
        let mut rng = StdRng::seed_from_u64(99);
        let mut at_most_greedy = 0usize;
        let mut graphs = 0usize;
        for _ in 0..30 {
            let g = GraphBuilder::erdos_renyi(12, 0.35, &mut rng);
            if g.num_edges() == 0 {
                continue;
            }
            graphs += 1;
            let greedy = greedy_coloring(&g).num_classes();
            let dsatur = dsatur_coloring(&g).num_classes();
            assert!(
                dsatur <= greedy + 1,
                "DSATUR used {dsatur} classes where first-fit used {greedy} on {g:?}"
            );
            if dsatur <= greedy {
                at_most_greedy += 1;
            }
        }
        assert!(
            at_most_greedy * 10 >= graphs * 9,
            "DSATUR should match or beat first-fit on ~all of the fixture: {at_most_greedy}/{graphs}"
        );
    }

    #[test]
    fn circulant_colouring_has_clique_lower_bound() {
        // circulant(n, k) contains cliques of size k + 1 (any k + 1
        // consecutive vertices), so chi >= k + 1; greedy stays within
        // Delta + 1 = 2k + 1.
        let g = GraphBuilder::circulant(30, 4);
        let coloring = greedy_coloring(&g);
        assert!(coloring.num_classes() >= 5);
        assert!(coloring.num_classes() <= 9);
        check_structure(&coloring, &g);
    }
}
