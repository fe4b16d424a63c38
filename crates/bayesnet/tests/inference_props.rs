//! Property tests for exact inference: junction-tree propagation against
//! the brute-force joint on random networks.

use proptest::prelude::*;
use swact_bayesnet::{
    initial_potentials, BayesNet, CompiledTree, Cpt, Heuristic, JunctionTree, SparseMode, VarId,
};

/// A random discrete Bayesian network with ≤ 7 variables of cardinality
/// 2–3, random parent sets among earlier variables, and random CPTs.
fn arb_net() -> impl Strategy<Value = BayesNet> {
    (3usize..7, any::<u64>()).prop_map(|(n, seed)| {
        // Simple deterministic PRNG so shrinking stays meaningful.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut net = BayesNet::new();
        for i in 0..n {
            let card = 2 + (next() % 2) as usize;
            // Up to two random parents among earlier variables.
            let mut parents: Vec<VarId> = Vec::new();
            if i > 0 {
                for _ in 0..(next() % 3) {
                    let p = VarId::from_index((next() % i as u64) as usize);
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
            }
            let rows: usize = parents.iter().map(|&p| net.card(p)).product();
            let cpt: Vec<Vec<f64>> = (0..rows)
                .map(|_| {
                    let raw: Vec<f64> = (0..card).map(|_| 1.0 + (next() % 1000) as f64).collect();
                    let total: f64 = raw.iter().sum();
                    raw.into_iter().map(|x| x / total).collect()
                })
                .collect();
            net.add_var(format!("v{i}"), card, &parents, Cpt::rows(cpt))
                .expect("generated net is valid");
        }
        net
    })
}

/// `net` compiled over `tree` with the given zero-compression policy, so
/// the brute-force checks cover the dense and the support-list kernels.
fn compile(tree: &JunctionTree, net: &BayesNet, mode: SparseMode) -> CompiledTree {
    CompiledTree::from_parts_with(tree.clone(), initial_potentials(tree, net), mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prior marginals from the junction tree equal brute force, for both
    /// triangulation heuristics and both kernel families.
    #[test]
    fn jt_marginals_match_brute_force(net in arb_net()) {
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let tree = JunctionTree::compile_with(&net, heuristic).expect("compiles");
            prop_assert!(tree.satisfies_running_intersection());
            for mode in [SparseMode::Auto, SparseMode::Off] {
                let compiled = compile(&tree, &net, mode);
                let mut state = compiled.new_state();
                compiled.calibrate(&mut state);
                for var in net.var_ids() {
                    let jt = compiled.marginal(&state, var);
                    let bf = net.brute_force_marginal(var, &[]);
                    for (a, b) in jt.iter().zip(&bf) {
                        prop_assert!((a - b).abs() < 1e-9, "{var} {heuristic:?} {mode:?}");
                    }
                }
            }
        }
    }

    /// Posterior marginals with random evidence match brute force.
    #[test]
    fn jt_posteriors_match_brute_force(net in arb_net(), pick in any::<u64>()) {
        let observed = VarId::from_index((pick % net.num_vars() as u64) as usize);
        let state = (pick / 7) as usize % net.card(observed);
        // Skip impossible evidence (brute force normalizes to NaN there).
        let prior = net.brute_force_marginal(observed, &[]);
        prop_assume!(prior[state] > 1e-6);
        let tree = JunctionTree::compile(&net).expect("compiles");
        for mode in [SparseMode::Auto, SparseMode::Off] {
            let compiled = compile(&tree, &net, mode);
            let mut prop = compiled.new_state();
            compiled.set_evidence(&mut prop, observed, state).expect("in range");
            compiled.calibrate(&mut prop);
            for var in net.var_ids() {
                if var == observed { continue; }
                let jt = compiled.marginal(&prop, var);
                let bf = net.brute_force_marginal(var, &[(observed, state)]);
                for (a, b) in jt.iter().zip(&bf) {
                    prop_assert!((a - b).abs() < 1e-9, "{mode:?}");
                }
            }
            // And the evidence probability equals the prior mass of the state.
            prop_assert!((prop.evidence_probability() - prior[state]).abs() < 1e-9);
        }
    }

    /// The pairwise marginal across cliques equals the brute-force joint.
    #[test]
    fn pairwise_marginal_matches_brute_force(net in arb_net(), pick in any::<u64>()) {
        let n = net.num_vars() as u64;
        let a = VarId::from_index((pick % n) as usize);
        let b = VarId::from_index(((pick / n) % n) as usize);
        prop_assume!(a != b);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let compiled = CompiledTree::new(tree, &net).expect("nonempty");
        let mut prop = compiled.new_state();
        compiled.calibrate(&mut prop);
        if let Some(joint) = compiled.pairwise_marginal(&mut prop, a, b) {
            let reference = net.joint().marginalize_keep(&[a.min(b), a.max(b)]);
            for (x, y) in joint.values().iter().zip(reference.values()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }

    /// Max-product MPE decoding matches brute-force argmax of the joint.
    #[test]
    fn mpe_matches_brute_force(net in arb_net(), pick in any::<u64>()) {
        let tree = JunctionTree::compile(&net).expect("compiles");
        let compiled = CompiledTree::new(tree, &net).expect("nonempty");
        let mut prop = compiled.new_state();
        // Optionally add evidence on one variable.
        let observed = VarId::from_index((pick % net.num_vars() as u64) as usize);
        let state = (pick / 11) as usize % net.card(observed);
        let with_evidence = pick % 2 == 0;
        let mut joint = net.joint();
        if with_evidence {
            let prior = net.brute_force_marginal(observed, &[]);
            prop_assume!(prior[state] > 1e-9);
            compiled.set_evidence(&mut prop, observed, state).expect("in range");
            joint.reduce(observed, state);
        }
        compiled.max_calibrate(&mut prop);
        let (assignment, p) = compiled.most_probable_assignment(&prop);
        let (best_idx, best_p) = joint.argmax();
        // Probabilities must match exactly; the assignment may differ only
        // on exact ties.
        prop_assert!((p - best_p).abs() < 1e-9, "p {} vs brute {}", p, best_p);
        let decoded_p = joint.values()[joint.index_of(&assignment)];
        prop_assert!((decoded_p - best_p).abs() < 1e-9);
        let _ = best_idx;
    }

    /// The joint of the whole network sums to one (CPT validation holds
    /// together with the chain rule).
    #[test]
    fn joint_is_normalized(net in arb_net()) {
        prop_assert!((net.joint().total() - 1.0).abs() < 1e-9);
    }
}
