//! Triangulation of moral graphs by node elimination.
//!
//! Eliminating a node connects all of its remaining neighbors (the *fill*
//! edges) and records the induced clique `{node} ∪ neighbors`. Running this
//! to completion yields a chordal supergraph whose maximal cliques are a
//! subset of the recorded elimination cliques. Finding the minimum-fill
//! triangulation is NP-hard, so the elimination order is chosen greedily by
//! one of two classic [`Heuristic`]s; ties break towards the smaller clique
//! state space and then the lower node index, keeping results deterministic.

use crate::graph::UndirectedGraph;

/// Greedy node-selection heuristic for the elimination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Heuristic {
    /// Eliminate the node introducing the fewest fill edges. Usually the
    /// best cliques; costs O(n·d²) per step.
    #[default]
    MinFill,
    /// Eliminate the node with the fewest *weighted* neighbors (smallest
    /// induced-clique state space). Faster, often slightly worse.
    MinDegree,
}

/// Result of triangulating a graph.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// The elimination order (every node exactly once).
    pub order: Vec<usize>,
    /// The chordal graph: input plus fill edges.
    pub filled: UndirectedGraph,
    /// Number of fill edges added.
    pub fill_edges: usize,
    /// Maximal cliques of the chordal graph, each sorted ascending.
    pub cliques: Vec<Vec<usize>>,
    /// Σ over maximal cliques of the product of member cardinalities — the
    /// junction-tree state space this triangulation induces.
    pub total_states: f64,
}

/// Triangulates `graph`, where `weights[v]` is the cardinality of node `v`
/// (used for weighted tie-breaking and cost reporting).
///
/// # Panics
///
/// Panics if `weights.len() != graph.num_nodes()` or any weight is zero.
///
/// # Example
///
/// ```
/// use swact_bayesnet::graph::UndirectedGraph;
/// use swact_bayesnet::triangulate::{triangulate, Heuristic};
///
/// // A 4-cycle needs exactly one chord.
/// let mut g = UndirectedGraph::new(4);
/// for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
///     g.add_edge(a, b);
/// }
/// let t = triangulate(&g, &[2, 2, 2, 2], Heuristic::MinFill);
/// assert_eq!(t.fill_edges, 1);
/// assert_eq!(t.cliques.len(), 2); // two triangles
/// ```
pub fn triangulate(
    graph: &UndirectedGraph,
    weights: &[usize],
    heuristic: Heuristic,
) -> Triangulation {
    let n = graph.num_nodes();
    assert_eq!(weights.len(), n, "one weight per node");
    assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
    let mut work = graph.clone();
    let mut filled = graph.clone();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut raw_cliques: Vec<Vec<usize>> = Vec::new();
    let mut fill_edges = 0usize;

    for _ in 0..n {
        let node = select_node(&work, weights, &eliminated, heuristic);
        let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
        // Record the induced clique.
        let mut clique = neighbors.clone();
        clique.push(node);
        clique.sort_unstable();
        raw_cliques.push(clique);
        // Add fill edges among neighbors.
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if !work.has_edge(a, b) {
                    work.add_edge(a, b);
                    filled.add_edge(a, b);
                    fill_edges += 1;
                }
            }
        }
        work.isolate(node);
        eliminated[node] = true;
        order.push(node);
    }

    let cliques = maximal_cliques(raw_cliques);
    let total_states = cliques
        .iter()
        .map(|c| c.iter().map(|&v| weights[v] as f64).product::<f64>())
        .sum();
    Triangulation {
        order,
        filled,
        fill_edges,
        cliques,
        total_states,
    }
}

/// Estimates the junction-tree state space a graph would induce under the
/// given heuristic, without keeping the triangulation. Used by circuit
/// segmentation to decide when a sub-network is getting too expensive.
pub fn estimate_cost(graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) -> f64 {
    triangulate(graph, weights, heuristic).total_states
}

fn select_node(
    work: &UndirectedGraph,
    weights: &[usize],
    eliminated: &[bool],
    heuristic: Heuristic,
) -> usize {
    // (score, clique_states, node): ties break towards the smaller clique
    // state space, then the lower node index.
    let mut best: Option<(f64, f64, usize)> = None;
    for node in 0..work.num_nodes() {
        if eliminated[node] {
            continue;
        }
        let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
        let clique_states: f64 = weights[node] as f64
            * neighbors
                .iter()
                .map(|&v| weights[v] as f64)
                .product::<f64>();
        let score = match heuristic {
            Heuristic::MinFill => {
                let mut fill = 0usize;
                for (i, &a) in neighbors.iter().enumerate() {
                    for &b in &neighbors[i + 1..] {
                        if !work.has_edge(a, b) {
                            fill += 1;
                        }
                    }
                }
                fill as f64
            }
            Heuristic::MinDegree => clique_states,
        };
        let candidate = (score, clique_states, node);
        let better = match best {
            None => true,
            Some(b) => {
                candidate.0 < b.0
                    || (candidate.0 == b.0 && candidate.1 < b.1)
                    || (candidate.0 == b.0 && candidate.1 == b.1 && candidate.2 < b.2)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("at least one uneliminated node").2
}

/// Filters a list of sorted cliques down to the maximal ones.
fn maximal_cliques(mut cliques: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    // Sort by descending size so any superset precedes its subsets.
    cliques.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    cliques.dedup();
    let mut kept: Vec<Vec<usize>> = Vec::new();
    'outer: for clique in cliques {
        for big in &kept {
            if is_subset(&clique, big) {
                continue 'outer;
            }
        }
        kept.push(clique);
    }
    kept.sort();
    kept
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    // Both sorted.
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j >= big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Verifies that a graph is chordal by checking that the given elimination
/// order is *perfect*: at each step, the not-yet-eliminated neighbors of
/// the eliminated node form a clique. Test helper.
pub fn is_perfect_elimination_order(graph: &UndirectedGraph, order: &[usize]) -> bool {
    let mut work = graph.clone();
    for &node in order {
        let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
        if !work.is_clique(&neighbors) {
            return false;
        }
        work.isolate(node);
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> UndirectedGraph {
        let mut g = UndirectedGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn triangle_is_already_chordal() {
        let g = cycle(3);
        let t = triangulate(&g, &[2; 3], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.cliques, vec![vec![0, 1, 2]]);
        assert_eq!(t.total_states, 8.0);
    }

    #[test]
    fn square_gets_one_chord() {
        let g = cycle(4);
        for h in [Heuristic::MinFill, Heuristic::MinDegree] {
            let t = triangulate(&g, &[2; 4], h);
            assert_eq!(t.fill_edges, 1, "{h:?}");
            assert_eq!(t.cliques.len(), 2);
            assert!(is_perfect_elimination_order(&t.filled, &t.order));
        }
    }

    #[test]
    fn long_cycle_fill_count() {
        // An n-cycle needs n-3 chords.
        for n in [5, 6, 8] {
            let t = triangulate(&cycle(n), &vec![2; n], Heuristic::MinFill);
            assert_eq!(t.fill_edges, n - 3, "cycle of {n}");
            assert!(is_perfect_elimination_order(&t.filled, &t.order));
        }
    }

    #[test]
    fn tree_needs_no_fill() {
        // A star: node 0 connected to 1..=4.
        let mut g = UndirectedGraph::new(5);
        for i in 1..5 {
            g.add_edge(0, i);
        }
        let t = triangulate(&g, &[2; 5], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.cliques.len(), 4);
        assert!(t.cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn cliques_are_maximal_and_cover_edges() {
        let g = cycle(6);
        let t = triangulate(&g, &[3; 6], Heuristic::MinDegree);
        // Every original edge must lie inside some clique.
        for a in 0..6 {
            for &b in g.neighbors(a) {
                assert!(
                    t.cliques.iter().any(|c| c.contains(&a) && c.contains(&b)),
                    "edge ({a},{b}) uncovered"
                );
            }
        }
        // No clique is a subset of another.
        for (i, a) in t.cliques.iter().enumerate() {
            for (j, b) in t.cliques.iter().enumerate() {
                if i != j {
                    assert!(!is_subset(a, b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_triangulates() {
        let mut g = UndirectedGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(3, 5);
        let t = triangulate(&g, &[2; 6], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.order.len(), 6);
        // Cliques: {0,1}, isolated {2}, triangle {3,4,5}.
        assert!(t.cliques.contains(&vec![2]));
        assert!(t.cliques.contains(&vec![3, 4, 5]));
    }

    #[test]
    fn weights_steer_min_degree() {
        // Path 0-1-2 where node 1 is huge: both heuristics still eliminate
        // endpoints first (no fill), but cost accounts for weights.
        let mut g = UndirectedGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let t = triangulate(&g, &[2, 100, 2], Heuristic::MinDegree);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.total_states, 200.0 + 200.0);
    }

    #[test]
    fn estimate_cost_matches_triangulation() {
        let g = cycle(5);
        let t = triangulate(&g, &[2; 5], Heuristic::MinFill);
        assert_eq!(
            estimate_cost(&g, &[2; 5], Heuristic::MinFill),
            t.total_states
        );
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
    }
}
