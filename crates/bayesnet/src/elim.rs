//! Variable elimination — an independent exact-inference engine.
//!
//! Junction-tree propagation and variable elimination compute the same
//! marginals by very different code paths, so agreement between them is a
//! strong correctness check; the `swact` test suites exploit this. For
//! one-off single-variable queries VE can also be cheaper than compiling a
//! full tree.

use crate::triangulate::Heuristic;
use crate::{BayesError, BayesNet, Factor, VarId};

/// Computes the posterior marginal `P(var | evidence)` by variable
/// elimination, using the given heuristic to order eliminations.
///
/// # Errors
///
/// Returns [`BayesError::Empty`] for an empty network and
/// [`BayesError::EvidenceOutOfRange`] for invalid evidence.
///
/// # Example
///
/// ```
/// use swact_bayesnet::{elim::eliminate, BayesNet, Cpt, Heuristic};
///
/// # fn main() -> Result<(), swact_bayesnet::BayesError> {
/// let mut net = BayesNet::new();
/// let a = net.add_var("a", 2, &[], Cpt::prior(vec![0.25, 0.75]))?;
/// let b = net.add_var("b", 2, &[a], Cpt::rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]))?;
/// let p = eliminate(&net, b, &[], Heuristic::MinFill)?;
/// assert!((p[1] - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eliminate(
    net: &BayesNet,
    var: VarId,
    evidence: &[(VarId, usize)],
    heuristic: Heuristic,
) -> Result<Vec<f64>, BayesError> {
    if net.num_vars() == 0 {
        return Err(BayesError::Empty);
    }
    for &(e, state) in evidence {
        if state >= net.card(e) {
            return Err(BayesError::EvidenceOutOfRange {
                var: e.0,
                state,
                card: net.card(e),
            });
        }
    }
    // Collect CPT factors, insert evidence.
    let mut factors: Vec<Factor> = net
        .var_ids()
        .map(|v| {
            let mut f = net.cpt_factor(v).clone();
            for &(e, state) in evidence {
                f.reduce(e, state);
            }
            f
        })
        .collect();

    // Only the query's ancestors-with-evidence matter, but for simplicity we
    // eliminate every variable except the query, in a greedy order over the
    // interaction graph.
    let order = elimination_order(net, var, heuristic);
    for v in order {
        // Gather factors mentioning v.
        let (mentioning, rest): (Vec<Factor>, Vec<Factor>) =
            factors.into_iter().partition(|f| f.position(v).is_some());
        factors = rest;
        if mentioning.is_empty() {
            continue;
        }
        let mut product = Factor::scalar(1.0);
        for f in &mentioning {
            product = product.product(f);
        }
        factors.push(product.sum_out(v));
    }
    let mut result = Factor::scalar(1.0);
    for f in &factors {
        result = result.product(f);
    }
    let mut marginal = result.marginalize_keep(&[var]);
    marginal.normalize();
    Ok(marginal.values().to_vec())
}

/// Greedy elimination order over the network's moral graph, excluding the
/// query variable (which must survive).
fn elimination_order(net: &BayesNet, keep: VarId, heuristic: Heuristic) -> Vec<VarId> {
    let mut graph = crate::graph::moral_graph(net);
    let cards = net.cards();
    let n = net.num_vars();
    let mut eliminated = vec![false; n];
    eliminated[keep.index()] = true; // never pick the query
    let mut order = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        let mut best: Option<(f64, f64, usize)> = None;
        for node in 0..n {
            if eliminated[node] {
                continue;
            }
            let neighbors: Vec<usize> = graph
                .neighbors(node)
                .iter()
                .copied()
                .filter(|&m| !eliminated[m] || m == keep.index())
                .collect();
            let states: f64 =
                cards[node] as f64 * neighbors.iter().map(|&m| cards[m] as f64).product::<f64>();
            let score = match heuristic {
                Heuristic::MinFill => {
                    let mut fill = 0;
                    for (i, &a) in neighbors.iter().enumerate() {
                        for &b in &neighbors[i + 1..] {
                            if !graph.has_edge(a, b) {
                                fill += 1;
                            }
                        }
                    }
                    fill as f64
                }
                Heuristic::MinDegree => states,
            };
            let candidate = (score, states, node);
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
        let node = best.expect("nodes remain").2;
        let neighbors: Vec<usize> = graph.neighbors(node).iter().copied().collect();
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                graph.add_edge(a, b);
            }
        }
        graph.isolate(node);
        eliminated[node] = true;
        order.push(VarId::from_index(node));
    }
    order
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Cpt;

    fn diamond() -> (BayesNet, [VarId; 4]) {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.4, 0.6]))
            .unwrap();
        let b = net
            .add_var(
                "b",
                2,
                &[a],
                Cpt::rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]),
            )
            .unwrap();
        let c = net
            .add_var(
                "c",
                3,
                &[a],
                Cpt::rows(vec![vec![0.5, 0.3, 0.2], vec![0.1, 0.2, 0.7]]),
            )
            .unwrap();
        let d = net
            .add_var(
                "d",
                2,
                &[b, c],
                Cpt::rows(vec![
                    vec![1.0, 0.0],
                    vec![0.7, 0.3],
                    vec![0.5, 0.5],
                    vec![0.3, 0.7],
                    vec![0.2, 0.8],
                    vec![0.0, 1.0],
                ]),
            )
            .unwrap();
        (net, [a, b, c, d])
    }

    #[test]
    fn matches_brute_force_without_evidence() {
        let (net, vars) = diamond();
        for var in vars {
            for h in [Heuristic::MinFill, Heuristic::MinDegree] {
                let ve = eliminate(&net, var, &[], h).unwrap();
                let bf = net.brute_force_marginal(var, &[]);
                for (x, y) in ve.iter().zip(&bf) {
                    assert!((x - y).abs() < 1e-12, "{var} {h:?}: {ve:?} vs {bf:?}");
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_with_evidence() {
        let (net, [a, b, c, d]) = diamond();
        let cases: Vec<Vec<(VarId, usize)>> =
            vec![vec![(d, 1)], vec![(b, 0), (c, 2)], vec![(a, 1), (d, 0)]];
        for evidence in &cases {
            for var in [a, b, c, d] {
                if evidence.iter().any(|&(e, _)| e == var) {
                    continue;
                }
                let ve = eliminate(&net, var, evidence, Heuristic::MinFill).unwrap();
                let bf = net.brute_force_marginal(var, evidence);
                for (x, y) in ve.iter().zip(&bf) {
                    assert!((x - y).abs() < 1e-12, "{var} ev={evidence:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_junction_tree() {
        let (net, vars) = diamond();
        let tree = crate::JunctionTree::compile(&net).unwrap();
        let compiled = crate::CompiledTree::new(tree, &net).unwrap();
        let mut state = compiled.new_state();
        compiled.set_evidence(&mut state, vars[3], 1).unwrap();
        compiled.calibrate(&mut state);
        for var in &vars[..3] {
            let jt = compiled.marginal(&state, *var);
            let ve = eliminate(&net, *var, &[(vars[3], 1)], Heuristic::MinFill).unwrap();
            for (x, y) in jt.iter().zip(&ve) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn errors() {
        let net = BayesNet::new();
        assert!(matches!(
            eliminate(&net, VarId::from_index(0), &[], Heuristic::MinFill),
            Err(BayesError::Empty)
        ));
        let (net, [a, ..]) = diamond();
        assert!(matches!(
            eliminate(&net, a, &[(a, 9)], Heuristic::MinFill),
            Err(BayesError::EvidenceOutOfRange { .. })
        ));
    }
}
