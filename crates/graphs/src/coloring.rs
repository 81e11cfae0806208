//! Proper vertex colourings: the schedule substrate of coloured parallel
//! revision.
//!
//! A proper colouring partitions the vertices into **independent sets**
//! (colour classes). For the revision dynamics of a `LocalGame` this is
//! exactly the structure that makes parallelism correct: players in one
//! class are pairwise non-adjacent, so their single-tick updates commute —
//! a whole class can revise simultaneously against the frozen pre-tick
//! profile and the result is identical to any sequential ordering of the
//! same updates. The `ColouredBlocks` schedule and the coloured byte
//! engine (`step_coloured_pooled_bytes`) in `logit-core` build on the
//! [`Coloring`] type here.
//!
//! Two constructions are provided, and [`coloring_for_graph`] chooses
//! between them by the graph's size:
//!
//! * [`greedy_coloring`] — first-fit in vertex order; never uses more than
//!   `Δ + 1` colours (each vertex has at most `Δ` coloured neighbours when
//!   its colour is chosen), the classical bound `χ(G) ≤ Δ + 1`;
//!   `O(n + m)` time.
//! * [`dsatur_coloring`] — Brélaz's DSATUR: always colour the vertex with
//!   the most distinctly-coloured neighbours (saturation), tie-broken by
//!   degree then index. Also bounded by `Δ + 1`, exact on bipartite graphs,
//!   and on typical graphs it uses no more classes than first-fit (an
//!   empirical tendency, not a theorem — only `Δ + 1` is contractual) —
//!   fewer classes mean larger independent sets, i.e. wider parallel
//!   blocks. It finds each next vertex in a bucket queue by saturation
//!   rather than by scanning the uncoloured ones: `O(m + n·Δ/64 + n²/64)`
//!   time in the worst case, with `O(n·Δ)` bits of bookkeeping; on the
//!   sparse builder topologies the queue's word scans stay short, and a
//!   2¹⁴-vertex torus colours in under a millisecond.
//!
//! Both read sorted adjacency rows through [`Adjacency`], which [`Graph`]
//! and [`CsrGraph`] implement, and colour the same graph alike in either
//! form: the job service colours the CSR it admits and never builds a
//! `Graph`.

use crate::csr::CsrGraph;
use crate::graph::Graph;

/// The sorted adjacency rows a colouring reads.
pub trait Adjacency {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Maximum degree over all vertices (0 for the empty graph).
    fn max_degree(&self) -> usize;
    /// Degree of `u`.
    fn degree(&self, u: usize) -> usize;
    /// Neighbours of `u`, ascending.
    fn row(&self, u: usize) -> impl Iterator<Item = usize> + '_;
}

impl Adjacency for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }
    fn degree(&self, u: usize) -> usize {
        Graph::degree(self, u)
    }
    fn row(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors(u).iter().copied()
    }
}

impl Adjacency for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }
    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }
    fn degree(&self, u: usize) -> usize {
        CsrGraph::degree(self, u)
    }
    fn row(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors(u).iter().map(|&v| v as usize)
    }
}

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
pub fn greedy_coloring<A: Adjacency + ?Sized>(graph: &A) -> Coloring {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot colour the empty graph");
    let mut colors = vec![usize::MAX; n];
    // `forbidden[c] == v` means colour c is used by a neighbour of v.
    let mut forbidden = vec![usize::MAX; graph.max_degree() + 1];
    for v in 0..n {
        for u in graph.row(v) {
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
///
/// The uncoloured vertices wait in a bucket queue by saturation: one
/// bitset per saturation level over a static rank (degree descending, then
/// index ascending), so the next vertex is the lowest set rank of the
/// highest non-empty level, and a vertex whose saturation rises moves up
/// one level in two bit flips. Each vertex's neighbour colours are one row
/// of a flat bitset. Time is `O(m + n·Δ/64 + n²/64)` in the worst case
/// (the last term is the levels' word scans, small next to `m` on dense
/// graphs and short on sparse ones), memory `O(n·Δ)` bits.
pub fn dsatur_coloring<A: Adjacency + ?Sized>(graph: &A) -> Coloring {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot colour the empty graph");
    let max_degree = graph.max_degree();
    let mut queue = SaturationQueue::new(graph, max_degree);
    // Row v of `neighbour_colors` has bit c set when a neighbour of v holds
    // colour c; colours run over 0..=Δ.
    let row_words = (max_degree + 1).div_ceil(64);
    let mut neighbour_colors = vec![0u64; n * row_words];
    let mut colors = vec![usize::MAX; n];
    for _ in 0..n {
        let v = queue.pop();
        let row = &neighbour_colors[v * row_words..(v + 1) * row_words];
        let c = row
            .iter()
            .position(|&word| word != u64::MAX)
            .map(|w| w * 64 + row[w].trailing_ones() as usize)
            .expect("Delta + 1 colours always suffice for DSATUR");
        colors[v] = c;
        let (word, bit) = (c / 64, 1u64 << (c % 64));
        for u in graph.row(v) {
            let cell = &mut neighbour_colors[u * row_words + word];
            if colors[u] == usize::MAX && *cell & bit == 0 {
                *cell |= bit;
                queue.raise(u);
            }
        }
    }
    normalise(colors)
}

/// DSATUR's queue of uncoloured vertices, bucketed by saturation.
///
/// Every vertex has a static *rank*: vertices sorted by degree descending,
/// then index ascending. Level `s` is a bitset over ranks holding the
/// uncoloured vertices of saturation `s`. The scan's total order — highest
/// saturation, then highest degree, then lowest index — is then "highest
/// non-empty level, lowest set rank", found without visiting the other
/// vertices.
struct SaturationQueue {
    /// `rank[v]`: v's position in the static order.
    rank: Vec<usize>,
    /// `by_rank[r]`: the vertex of rank `r`.
    by_rank: Vec<usize>,
    /// Saturation of every uncoloured vertex (its level).
    saturation: Vec<usize>,
    /// Level `s` occupies `bits[s * words..(s + 1) * words]`.
    bits: Vec<u64>,
    /// Words per level: `⌈n / 64⌉`.
    words: usize,
    /// Vertices per level.
    count: Vec<usize>,
    /// Every word of level `s` below `first_word[s]` is zero.
    first_word: Vec<usize>,
    /// No level above `top` holds a vertex.
    top: usize,
}

impl SaturationQueue {
    /// All `n` vertices at saturation 0. Saturation never exceeds a
    /// vertex's degree, so levels `0..=max_degree` suffice.
    fn new<A: Adjacency + ?Sized>(graph: &A, max_degree: usize) -> Self {
        let n = graph.num_vertices();
        // Counting sort by degree, descending; stable, so index ascending
        // within each degree.
        let mut starts = vec![0usize; max_degree + 2];
        for v in 0..n {
            starts[max_degree - graph.degree(v) + 1] += 1;
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        let mut rank = vec![0usize; n];
        let mut by_rank = vec![0usize; n];
        for v in 0..n {
            let slot = &mut starts[max_degree - graph.degree(v)];
            rank[v] = *slot;
            by_rank[*slot] = v;
            *slot += 1;
        }
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; (max_degree + 1) * words];
        bits[..words].fill(u64::MAX);
        if !n.is_multiple_of(64) {
            bits[words - 1] = (1u64 << (n % 64)) - 1;
        }
        let mut count = vec![0usize; max_degree + 1];
        count[0] = n;
        Self {
            rank,
            by_rank,
            saturation: vec![0; n],
            bits,
            words,
            count,
            first_word: vec![0; max_degree + 1],
            top: 0,
        }
    }

    /// Removes and returns the uncoloured vertex of highest saturation,
    /// then highest degree, then lowest index.
    ///
    /// # Panics
    /// Panics when no vertex is left.
    fn pop(&mut self) -> usize {
        while self.count[self.top] == 0 {
            self.top = self.top.checked_sub(1).expect("a vertex is left");
        }
        let level = &mut self.bits[self.top * self.words..(self.top + 1) * self.words];
        let mut w = self.first_word[self.top];
        while level[w] == 0 {
            w += 1;
        }
        self.first_word[self.top] = w;
        let bit = level[w].trailing_zeros() as usize;
        level[w] &= !(1u64 << bit);
        self.count[self.top] -= 1;
        self.by_rank[w * 64 + bit]
    }

    /// Moves uncoloured vertex `v` up one saturation level.
    fn raise(&mut self, v: usize) {
        let (r, s) = (self.rank[v], self.saturation[v]);
        let (w, bit) = (r / 64, 1u64 << (r % 64));
        self.bits[s * self.words + w] &= !bit;
        self.bits[(s + 1) * self.words + w] |= bit;
        self.count[s] -= 1;
        self.count[s + 1] += 1;
        self.first_word[s + 1] = self.first_word[s + 1].min(w);
        self.saturation[v] = s + 1;
        self.top = self.top.max(s + 1);
    }
}

/// The scale-aware colouring every coloured schedule uses: DSATUR (usually
/// the fewest classes, exact on bipartite graphs) when the graph is within
/// two caps, first-fit greedy beyond them — the same `χ ≤ Δ + 1`
/// guarantee, `O(n + m)` time and `O(Δ)` extra memory (on the dense
/// circulant bench instance the two produce the *same* class count). Both
/// are deterministic, so the choice depends only on the graph, never the
/// host, and a [`Graph`] and its [`CsrGraph`] get the same colouring.
pub fn coloring_for_graph<A: Adjacency + ?Sized>(graph: &A) -> Coloring {
    if within_dsatur_caps(graph) {
        dsatur_coloring(graph)
    } else {
        greedy_coloring(graph)
    }
}

/// Whether [`coloring_for_graph`] colours `graph` with DSATUR.
///
/// The caps only choose the algorithm; both colourings run in about their
/// output's time. They must not move: they decide which graphs get
/// DSATUR's classes rather than first-fit's, so moving either would change
/// the colouring, and with it every coloured stream, of the graphs between
/// the old and the new cap. The cell cap bounds DSATUR's `O(n·Δ)` bits of
/// bookkeeping; the vertex cap covers every exact-analysis instance with a
/// wide margin.
pub(crate) fn within_dsatur_caps<A: Adjacency + ?Sized>(graph: &A) -> bool {
    let n = graph.num_vertices();
    n.saturating_mul(graph.max_degree() + 1) <= 1 << 22 && n <= 1 << 14
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference DSATUR: each next vertex found by scanning every
    /// uncoloured one, `O(n²)`. The bucket queue must make exactly its
    /// choices.
    fn dsatur_by_scan(graph: &Graph) -> Coloring {
        let n = graph.num_vertices();
        assert!(n > 0, "cannot colour the empty graph");
        let max_colors = graph.max_degree() + 1;
        let mut colors = vec![usize::MAX; n];
        // neighbour_colors[v][c]: does v have a neighbour coloured c?
        let mut neighbour_colors = vec![vec![false; max_colors]; n];
        let mut saturation = vec![0usize; n];
        // Selection scans only the still-uncoloured vertices (swap_remove
        // keeps the list compact); the `(saturation, degree, lowest index)`
        // key is a total order, so the winner is independent of the scan
        // order.
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

    /// The integration suite's `small_graph()`: 3–8 vertices, a random
    /// edge list (loops dropped, repeats ignored).
    fn small_graph() -> impl Strategy<Value = Graph> {
        (3usize..9).prop_flat_map(|n| {
            prop::collection::vec((0..n, 0..n), 0..(n * (n - 1) / 2)).prop_map(move |raw| {
                let edges: Vec<(usize, usize)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            })
        })
    }

    /// Denser and larger: `G(n, p)` with n up to 300 and p from 0 to 1 in
    /// steps of 1/20, followed by up to 7 isolated vertices.
    fn dense_graph() -> impl Strategy<Value = Graph> {
        (1usize..301, 0u32..21, 0u64..1 << 32, 0usize..8).prop_map(|(n, p, seed, isolated)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = GraphBuilder::erdos_renyi(n, f64::from(p) / 20.0, &mut rng);
            Graph::from_edges(n + isolated, &g.edges().collect::<Vec<_>>())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bucket queue picks every vertex the scan picks, so the two
        /// colourings are equal, on small sparse and on dense graphs.
        #[test]
        fn dsatur_buckets_match_the_scan(small in small_graph(), dense in dense_graph()) {
            prop_assert_eq!(dsatur_coloring(&small), dsatur_by_scan(&small));
            prop_assert_eq!(dsatur_coloring(&dense), dsatur_by_scan(&dense));
        }
    }

    /// Every topology the service admits, on both sides of both caps:
    /// `coloring_for_graph` takes DSATUR exactly inside them, and there its
    /// colouring equals the scan's; beyond them it is first-fit's.
    #[test]
    fn coloring_for_graph_matches_the_scan_on_every_admitted_topology() {
        // The scan takes seconds per 2¹⁴-vertex graph unoptimised, so a
        // debug build compares the rows up to 2¹² vertices; an optimised
        // build (CI runs this test with --release too) compares them all.
        let scanned = if cfg!(debug_assertions) {
            1 << 12
        } else {
            usize::MAX
        };
        for (topology, dsatur) in crate::topology::admitted_topology_table() {
            let graph = topology.graph();
            assert_eq!(
                within_dsatur_caps(&graph),
                dsatur,
                "{topology:?}: the caps moved"
            );
            let chosen = coloring_for_graph(&graph);
            if !dsatur {
                assert_eq!(chosen, greedy_coloring(&graph), "{topology:?}");
            } else if graph.num_vertices() <= scanned {
                assert_eq!(chosen, dsatur_by_scan(&graph), "{topology:?}");
            }
        }
    }

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
