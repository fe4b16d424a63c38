//! Differential property test for the incremental elimination engine:
//! on random graphs, [`triangulate`] and [`estimate_cost`] must agree
//! exactly with a from-scratch greedy elimination that scans every
//! remaining node at every step and prunes non-maximal cliques by pairwise
//! subset tests — the same order, cliques, fill and state count bits.

use proptest::prelude::*;
use swact_bayesnet::graph::UndirectedGraph;
use swact_bayesnet::triangulate::{
    estimate_cost, is_perfect_elimination_order, triangulate, Heuristic, Triangulation,
};

/// The reference: rescans all nodes at every step, keeping the engine's
/// `(score, clique_states, node)` tie-break.
fn select_node(
    work: &UndirectedGraph,
    weights: &[usize],
    eliminated: &[bool],
    heuristic: Heuristic,
) -> usize {
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

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    small.iter().all(|x| big.binary_search(x).is_ok())
}

/// Keeps the cliques no other clique contains, lexicographically sorted.
fn maximal_cliques(mut cliques: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    cliques.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    cliques.dedup();
    let mut kept: Vec<Vec<usize>> = Vec::new();
    for clique in cliques {
        if !kept.iter().any(|big| is_subset(&clique, big)) {
            kept.push(clique);
        }
    }
    kept.sort();
    kept
}

fn reference(graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) -> Triangulation {
    let n = graph.num_nodes();
    let mut work = graph.clone();
    let mut filled = graph.clone();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut raw_cliques = Vec::new();
    let mut fill_edges = 0;
    for _ in 0..n {
        let node = select_node(&work, weights, &eliminated, heuristic);
        let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
        let mut clique = neighbors.clone();
        clique.push(node);
        clique.sort_unstable();
        raw_cliques.push(clique);
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

/// A random graph of up to 70 nodes cut into consecutive blocks, each
/// isolated nodes, a dense (near-)clique, a sparse random graph or a cycle,
/// plus a few cross-block edges; weights all 4 (the planner's case) or
/// mixed from {2, 3, 4}. Dense blocks of weight-3 nodes push clique state
/// products past 2⁵³, where the product order decides the bits.
fn arb_graph() -> impl Strategy<Value = (UndirectedGraph, Vec<usize>)> {
    (1usize..70, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = UndirectedGraph::new(n);
        let mut start = 0;
        while start < n {
            let len = (1 + next() as usize % 40).min(n - start);
            let block: Vec<usize> = (start..start + len).collect();
            match next() % 4 {
                0 => {} // isolated nodes
                1 => {
                    // Dense: each pair present with probability ≥ 7/8.
                    let miss = next() % 9;
                    for (i, &a) in block.iter().enumerate() {
                        for &b in &block[i + 1..] {
                            if next() % 8 >= miss.min(1) {
                                g.add_edge(a, b);
                            }
                        }
                    }
                }
                2 => {
                    let density = 1 + next() % 5;
                    for (i, &a) in block.iter().enumerate() {
                        for &b in &block[i + 1..] {
                            if next() % 12 < density {
                                g.add_edge(a, b);
                            }
                        }
                    }
                }
                _ => {
                    for i in 0..len {
                        g.add_edge(block[i], block[(i + 1) % len]);
                    }
                }
            }
            start += len;
        }
        for _ in 0..next() % 4 {
            let (a, b) = (next() as usize % n, next() as usize % n);
            g.add_edge(a, b);
        }
        let mixed = next() % 2 == 0;
        let weights = (0..n)
            .map(|_| if mixed { 2 + next() as usize % 3 } else { 4 })
            .collect();
        (g, weights)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn engine_matches_scanning_reference((graph, weights) in arb_graph()) {
        let n = graph.num_nodes();
        let edges: Vec<Vec<usize>> = (0..n)
            .flat_map(|a| graph.neighbors(a).iter().map(move |&b| vec![a, b]))
            .collect();
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let engine = triangulate(&graph, &weights, heuristic);
            let expected = reference(&graph, &weights, heuristic);
            prop_assert_eq!(&engine.order, &expected.order, "{:?}", heuristic);
            prop_assert_eq!(&engine.cliques, &expected.cliques, "{:?}", heuristic);
            prop_assert_eq!(engine.fill_edges, expected.fill_edges, "{:?}", heuristic);
            prop_assert!(engine.filled == expected.filled, "{:?}: filled graphs differ", heuristic);
            prop_assert_eq!(
                engine.total_states.to_bits(),
                expected.total_states.to_bits(),
                "{:?}",
                heuristic
            );
            prop_assert!(is_perfect_elimination_order(&engine.filled, &engine.order));
            prop_assert_eq!(
                estimate_cost(n, &edges, &weights, heuristic).to_bits(),
                expected.total_states.to_bits(),
                "{:?}",
                heuristic
            );
        }
    }
}
