//! Triangulation of moral graphs by node elimination.
//!
//! Eliminating a node connects all of its remaining neighbors (the *fill*
//! edges) and records the induced clique `{node} ∪ neighbors`. Running this
//! to completion yields a chordal supergraph whose maximal cliques are a
//! subset of the recorded elimination cliques. Finding the minimum-fill
//! triangulation is NP-hard, so the elimination order is chosen greedily by
//! one of two classic [`Heuristic`]s; ties break towards the smaller clique
//! state space and then the lower node index, keeping results deterministic.
//!
//! One incremental engine serves both the compile path ([`triangulate`])
//! and the segmentation planner's cost check ([`estimate_cost`]). Every
//! node's `(score, clique_states, node)` key sits in a min-heap, so the
//! next node comes off the heap rather than out of a scan over all nodes;
//! the order is exactly the scan's, tie-break included. After an
//! elimination only the keys that can have changed are updated: the
//! eliminated node's neighbors, and under min-fill every other node
//! adjacent to both ends of a new fill edge (it loses one unit of fill).
//! Min-fill scores are updated from counts gathered while the fill edges
//! are added, never by rescanning a neighborhood. Maximal cliques are read
//! off the elimination tree in linear time instead of by pairwise subset
//! tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::UndirectedGraph;

/// Greedy node-selection heuristic for the elimination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Heuristic {
    /// Eliminate the node introducing the fewest fill edges. Usually the
    /// best cliques. A step eliminating a node of degree `d` that adds `f`
    /// fill edges costs one merge of each neighbor's adjacency list with
    /// the `d` neighbors, one walk of two adjacency lists per fill edge,
    /// and O(log n) heap work per changed key.
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
    let adjacency = (0..graph.num_nodes())
        .map(|v| graph.neighbors(v).iter().copied().collect())
        .collect();
    let elimination = Elimination::run(adjacency, weights, heuristic);
    let mut filled = graph.clone();
    for &(a, b) in &elimination.fill {
        filled.add_edge(a, b);
    }
    let cliques = elimination
        .maximal
        .iter()
        .map(|&step| elimination.clique(step).to_vec())
        .collect();
    Triangulation {
        total_states: elimination.total_states(weights),
        fill_edges: elimination.fill.len(),
        order: elimination.order,
        filled,
        cliques,
    }
}

/// Estimates the junction-tree state space the graph over `num_nodes`
/// nodes whose edges connect each of `cliques` pairwise (a moral graph is
/// the union of its families) would induce under the given heuristic —
/// [`triangulate`]'s `total_states`, without building either graph. Used
/// by circuit segmentation to decide when a sub-network is getting too
/// expensive.
///
/// # Panics
///
/// Panics if `weights.len() != num_nodes`, any weight is zero, or a clique
/// names a node `≥ num_nodes`.
pub fn estimate_cost(
    num_nodes: usize,
    cliques: &[Vec<usize>],
    weights: &[usize],
    heuristic: Heuristic,
) -> f64 {
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for clique in cliques {
        for &a in clique {
            adjacency[a].extend(clique.iter().copied().filter(|&b| b != a));
        }
    }
    for neighbors in &mut adjacency {
        neighbors.sort_unstable();
        neighbors.dedup();
    }
    Elimination::run(adjacency, weights, heuristic).total_states(weights)
}

/// A finished greedy elimination.
struct Elimination {
    /// Nodes in elimination order.
    order: Vec<usize>,
    /// Fill edges `(a, b)` with `a < b`, in the order they were added.
    fill: Vec<(usize, usize)>,
    /// The elimination cliques back to back, each sorted ascending; step
    /// `i`'s clique is `members[start[i]..start[i + 1]]`.
    members: Vec<usize>,
    start: Vec<usize>,
    /// Steps whose clique is maximal, in lexicographic clique order.
    maximal: Vec<usize>,
}

impl Elimination {
    fn run(adjacency: Vec<Vec<usize>>, weights: &[usize], heuristic: Heuristic) -> Elimination {
        let n = adjacency.len();
        assert_eq!(weights.len(), n, "one weight per node");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let mut engine = Engine::new(adjacency, weights, heuristic);
        let mut elimination = Elimination {
            order: Vec::with_capacity(n),
            fill: Vec::new(),
            members: Vec::new(),
            start: vec![0],
            maximal: Vec::new(),
        };
        while let Some(node) = engine.pop() {
            let neighbors = engine.eliminate(node, &mut elimination.fill);
            let at = neighbors.partition_point(|&u| u < node);
            elimination.members.extend_from_slice(&neighbors[..at]);
            elimination.members.push(node);
            elimination.members.extend_from_slice(&neighbors[at..]);
            elimination.start.push(elimination.members.len());
            elimination.order.push(node);
        }
        elimination.maximal = elimination.maximal_steps();
        elimination
    }

    fn clique(&self, step: usize) -> &[usize] {
        &self.members[self.start[step]..self.start[step + 1]]
    }

    /// The maximal elimination cliques, read off the elimination tree. A
    /// step's parent is the first-eliminated node of its clique after
    /// itself; the clique `C_v` is contained in another exactly when some
    /// child `u` of `v` has `|C_u| = |C_v| + 1` (then `C_u = {u} ∪ C_v`).
    /// Elimination cliques are pairwise distinct, since each holds its own
    /// node and only later ones, so nothing needs deduplicating.
    fn maximal_steps(&self) -> Vec<usize> {
        let steps = self.order.len();
        let mut position = vec![0; steps];
        for (step, &node) in self.order.iter().enumerate() {
            position[node] = step;
        }
        let mut contained = vec![false; steps];
        for step in 0..steps {
            let clique = self.clique(step);
            let parent = clique
                .iter()
                .map(|&u| position[u])
                .filter(|&p| p > step)
                .min();
            if let Some(parent) = parent {
                if clique.len() == self.clique(parent).len() + 1 {
                    contained[parent] = true;
                }
            }
        }
        let mut maximal: Vec<usize> = (0..steps).filter(|&s| !contained[s]).collect();
        maximal.sort_unstable_by(|&a, &b| self.clique(a).cmp(self.clique(b)));
        maximal
    }

    /// Σ over maximal cliques (in lexicographic order) of the product of
    /// member weights.
    fn total_states(&self, weights: &[usize]) -> f64 {
        self.maximal
            .iter()
            .map(|&step| {
                self.clique(step)
                    .iter()
                    .map(|&v| weights[v] as f64)
                    .product::<f64>()
            })
            .sum()
    }
}

/// The elimination engine's working state: the remaining graph as sorted
/// adjacency lists (`O(n + edges + fill)` memory) and every remaining
/// node's selection key in a heap (one entry per key change until popped).
struct Engine<'w> {
    adjacency: Vec<Vec<usize>>,
    weights: &'w [usize],
    heuristic: Heuristic,
    /// Each remaining node's key `(score, clique_states)`: the state count
    /// as `f64` bits (non-negative, so bit order is numeric order), the
    /// score as the fill count itself under min-fill. [`ELIMINATED`] once
    /// the node is gone.
    key: Vec<(u64, u64)>,
    /// `(score, clique_states, node)` entries; the minimum entry that is
    /// still its node's current key is the next node to eliminate, with
    /// the full tie-break. Superseded entries are skipped when popped.
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Scratch membership flags (all false between uses): the neighborhood
    /// being counted, or the clique being formed.
    member: Vec<bool>,
    /// Scratch for one elimination: the clique members' rebuilt adjacency
    /// lists and their fill bookkeeping.
    rebuilt: Vec<Vec<usize>>,
    tally: Vec<Tally>,
}

/// The key of an eliminated node; no queue entry carries it, since fill
/// counts stay far below `u64::MAX` and the largest state count bits are
/// those of `f64::INFINITY`.
const ELIMINATED: (u64, u64) = (u64::MAX, u64::MAX);

/// Fill bookkeeping for one member `a` of the clique an elimination forms.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// `a`'s degree before the elimination.
    old_degree: u64,
    /// Clique members `a` was not adjacent to (its new fill edges).
    gained: u64,
    /// New fill edges between two of `a`'s old clique neighbors.
    inner: u64,
    /// Over `a`'s new fill edges `(a, m)`: common neighbors of `a` and `m`
    /// outside the clique.
    outer: u64,
}

impl<'w> Engine<'w> {
    fn new(adjacency: Vec<Vec<usize>>, weights: &'w [usize], heuristic: Heuristic) -> Engine<'w> {
        let n = adjacency.len();
        let mut engine = Engine {
            adjacency,
            weights,
            heuristic,
            key: vec![(0, 0); n],
            queue: BinaryHeap::with_capacity(n),
            member: vec![false; n],
            rebuilt: Vec::new(),
            tally: Vec::new(),
        };
        for node in 0..n {
            let states = engine.clique_states(node);
            let score = match heuristic {
                Heuristic::MinFill => engine.count_fill(node),
                Heuristic::MinDegree => states,
            };
            engine.key[node] = (score, states);
            engine.queue.push(Reverse((score, states, node)));
        }
        engine
    }

    /// Takes the remaining node with the smallest current key.
    fn pop(&mut self) -> Option<usize> {
        while let Some(Reverse((score, states, node))) = self.queue.pop() {
            if self.key[node] == (score, states) {
                self.key[node] = ELIMINATED;
                return Some(node);
            }
        }
        None
    }

    /// Bits of the state count of `node`'s induced clique, multiplied in
    /// ascending neighbor order.
    fn clique_states(&self, node: usize) -> u64 {
        let states = self.weights[node] as f64
            * self.adjacency[node]
                .iter()
                .map(|&v| self.weights[v] as f64)
                .product::<f64>();
        states.to_bits()
    }

    /// Fill edges eliminating `node` now would add: neighbor pairs minus
    /// the edges among the neighbors, counted by flagging the neighborhood
    /// and walking the upper part of each neighbor's list once.
    fn count_fill(&mut self, node: usize) -> u64 {
        let neighbors = &self.adjacency[node];
        let d = neighbors.len() as u64;
        for &u in neighbors {
            self.member[u] = true;
        }
        let mut edges = 0u64;
        for &u in neighbors {
            let list = &self.adjacency[u];
            edges += list[list.partition_point(|&w| w <= u)..]
                .iter()
                .filter(|&&w| self.member[w])
                .count() as u64;
        }
        for &u in neighbors {
            self.member[u] = false;
        }
        d * d.saturating_sub(1) / 2 - edges
    }

    fn rekey(&mut self, node: usize, key: (u64, u64)) {
        if self.key[node] != key {
            self.key[node] = key;
            self.queue.push(Reverse((key.0, key.1, node)));
        }
    }

    /// Eliminates `node` (already taken off the queue): makes its
    /// neighbors `K` a clique, appending the new fill edges to `fill`, and
    /// updates every key the elimination changed. Returns `K`.
    ///
    /// Under min-fill no neighborhood is rescanned. A member `a` of `K`
    /// with old neighbors `S ∪ {node}` splits `S` into `A = S ∩ K` and its
    /// private neighbors `B = S \ K`, and gains `M = K \ S \ {a}`. Pairs
    /// inside `K` are now all edges and no edge touching `B` changes, so
    ///
    /// `fill'(a) = fill(a) − |B| − fill(A) + |B|·|M| − edges(B, M)`,
    ///
    /// where `fill(A)` counts the new fill edges inside `A`, and
    /// `edges(B, M)` sums, over `m ∈ M`, the common neighbors of `a` and
    /// `m` outside `K ∪ {node}`. Both come from one walk of the two old
    /// lists per new fill edge, which also finds the outside nodes adjacent
    /// to both ends: each such node has one fill edge fewer.
    fn eliminate(&mut self, node: usize, fill: &mut Vec<(usize, usize)>) -> Vec<usize> {
        let clique = std::mem::take(&mut self.adjacency[node]);
        let k = clique.len();
        let first_fill = fill.len();
        if self.rebuilt.len() < k {
            self.rebuilt.resize_with(k, Vec::new);
        }
        self.tally.clear();
        self.tally.resize(k, Tally::default());

        // Each member's new list is (old ∪ K) \ {itself, node}; a member of
        // K it did not have yet is a fill edge.
        for (slot, &a) in clique.iter().enumerate() {
            let old = &self.adjacency[a];
            let tally = &mut self.tally[slot];
            tally.old_degree = old.len() as u64;
            let out = &mut self.rebuilt[slot];
            out.clear();
            let (mut i, mut j) = (0, 0);
            loop {
                let x = match (old.get(i), clique.get(j)) {
                    (None, None) => break,
                    (Some(&p), Some(&q)) if p == q => {
                        i += 1;
                        j += 1;
                        p
                    }
                    (Some(&p), Some(&q)) if p < q => {
                        i += 1;
                        p
                    }
                    (Some(&p), None) => {
                        i += 1;
                        p
                    }
                    (_, Some(&q)) => {
                        j += 1;
                        if q != a {
                            tally.gained += 1;
                            if q > a {
                                fill.push((a, q));
                            }
                        }
                        q
                    }
                };
                if x != a && x != node {
                    out.push(x);
                }
            }
        }

        if self.heuristic == Heuristic::MinFill {
            for &u in &clique {
                self.member[u] = true;
            }
            for &(a, m) in &fill[first_fill..] {
                // Common neighbors of a and m before the elimination.
                let (list_a, list_m) = (&self.adjacency[a], &self.adjacency[m]);
                let mut outside = 0;
                let (mut i, mut j) = (0, 0);
                while i < list_a.len() && j < list_m.len() {
                    let (p, q) = (list_a[i], list_m[j]);
                    if p < q {
                        i += 1;
                    } else if q < p {
                        j += 1;
                    } else {
                        if self.member[p] {
                            self.tally[slot_of(&clique, p)].inner += 1;
                        } else if p != node {
                            let key = &mut self.key[p];
                            key.0 -= 1;
                            self.queue.push(Reverse((key.0, key.1, p)));
                            outside += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
                self.tally[slot_of(&clique, a)].outer += outside;
                self.tally[slot_of(&clique, m)].outer += outside;
            }
            for &u in &clique {
                self.member[u] = false;
            }
        }

        for (slot, &a) in clique.iter().enumerate() {
            std::mem::swap(&mut self.adjacency[a], &mut self.rebuilt[slot]);
            let states = self.clique_states(a);
            let score = match self.heuristic {
                Heuristic::MinFill => {
                    let t = self.tally[slot];
                    let kept = k as u64 - 1 - t.gained;
                    let private = t.old_degree - 1 - kept;
                    self.key[a].0 + private * t.gained - private - t.inner - t.outer
                }
                Heuristic::MinDegree => states,
            };
            self.rekey(a, (score, states));
        }
        clique
    }
}

/// Position of `node` in the sorted `clique`.
fn slot_of(clique: &[usize], node: usize) -> usize {
    clique
        .binary_search(&node)
        .expect("node is a clique member")
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
        let edges: Vec<Vec<usize>> = (0..5).map(|i| vec![i, (i + 1) % 5]).collect();
        for h in [Heuristic::MinFill, Heuristic::MinDegree] {
            assert_eq!(
                estimate_cost(5, &edges, &[2; 5], h).to_bits(),
                triangulate(&g, &[2; 5], h).total_states.to_bits()
            );
        }
        // Overlapping families collapse to one moral graph.
        let families = [vec![0, 1, 2], vec![1, 2, 3], vec![0, 1]];
        let mut moral = UndirectedGraph::new(4);
        for f in &families {
            for &a in f {
                for &b in f {
                    moral.add_edge(a, b);
                }
            }
        }
        assert_eq!(
            estimate_cost(4, &families, &[2, 3, 4, 2], Heuristic::MinFill),
            triangulate(&moral, &[2, 3, 4, 2], Heuristic::MinFill).total_states
        );
        assert_eq!(t.total_states, 8.0 * 3.0);
    }

    /// Whether sorted `small` is a subset of sorted `big`.
    fn is_subset(small: &[usize], big: &[usize]) -> bool {
        small.iter().all(|x| big.binary_search(x).is_ok())
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
    }
}
