//! The paper's Section 3 theory as executable checks: LIDAGs are I-maps,
//! junction-tree inference agrees with independent exact engines, and the
//! semi-graphoid axioms hold for d-separation on circuit-induced DAGs.

use swact::{InputSpec, Lidag};
use swact_bayesnet::dsep::{d_separated, independent_in_joint, markov_blanket};
use swact_bayesnet::elim::eliminate;
use swact_bayesnet::{
    initial_potentials, CompiledTree, Heuristic, JunctionTree, SparseMode, VarId,
};
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::catalog;

fn small_random_lidag(seed: u64) -> (swact_circuit::Circuit, Lidag) {
    let circuit = generate(&GeneratorConfig {
        inputs: 4,
        outputs: 2,
        gates: 6,
        seed,
        ..GeneratorConfig::default_for("theory")
    });
    let spec = InputSpec::independent((0..4).map(|i| 0.25 + 0.15 * i as f64));
    let lidag = Lidag::build(&circuit, &spec, 4).expect("builds");
    (circuit, lidag)
}

#[test]
fn lidag_is_an_i_map_on_random_circuits() {
    // Theorem 3: every d-separation displayed by the LIDAG corresponds to
    // a true conditional independence of the switching distribution.
    for seed in 0..4u64 {
        let (_, lidag) = small_random_lidag(seed);
        let net = lidag.net();
        let n = net.num_vars();
        let vars: Vec<VarId> = net.var_ids().collect();
        // Enumerate a systematic family of triples (x, y, {z}).
        let mut checked = 0;
        for &x in &vars {
            for &y in &vars {
                if x >= y {
                    continue;
                }
                for z_mask in 0..n.min(6) {
                    let z: Vec<VarId> = vars
                        .iter()
                        .copied()
                        .filter(|v| *v != x && *v != y && v.index() % n.min(6) == z_mask)
                        .take(2)
                        .collect();
                    if d_separated(net, &[x], &[y], &z) {
                        checked += 1;
                        assert!(
                            independent_in_joint(net, &[x], &[y], &z, 1e-9),
                            "seed {seed}: {x} ⟂̸ {y} | {z:?} despite d-separation"
                        );
                    }
                }
            }
        }
        // The family must actually exercise some separations.
        assert!(checked > 0, "seed {seed}: no d-separations sampled");
    }
}

#[test]
fn dsep_symmetry_and_decomposition_axioms() {
    // Theorem 1's symmetry and decomposition axioms, spot-checked
    // graphically on the paper's example.
    let circuit = catalog::paper_example();
    let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).unwrap();
    let net = lidag.net();
    let v = |name: &str| lidag.var_by_name(name).unwrap();
    let (x, z) = (vec![v("1")], vec![v("5")]);
    let yw = vec![v("2"), v("3")];
    // Symmetry.
    assert_eq!(d_separated(net, &x, &yw, &z), d_separated(net, &yw, &x, &z));
    // Decomposition: I(X, Z, Y ∪ W) ⇒ I(X, Z, Y) and I(X, Z, W).
    if d_separated(net, &x, &yw, &z) {
        assert!(d_separated(net, &x, &[yw[0]], &z));
        assert!(d_separated(net, &x, &[yw[1]], &z));
    }
}

#[test]
fn markov_boundary_matches_gate_families() {
    // Theorem 3's proof hinges on each output variable's Markov boundary
    // being its gate family; verify blanket ⊇ parents and numeric
    // shielding on random circuits.
    for seed in 0..4u64 {
        let (circuit, lidag) = small_random_lidag(100 + seed);
        let net = lidag.net();
        for line in circuit.gate_lines() {
            let var = lidag.var_by_name(circuit.line_name(line)).unwrap();
            let blanket = markov_blanket(net, var);
            for &p in net.parents(var) {
                assert!(blanket.contains(&p));
            }
            // Conditioned on the blanket, the variable is d-separated from
            // everything else.
            let rest: Vec<VarId> = net
                .var_ids()
                .filter(|v| *v != var && !blanket.contains(v))
                .collect();
            if !rest.is_empty() {
                assert!(d_separated(net, &[var], &rest, &blanket));
            }
        }
    }
}

#[test]
fn junction_tree_agrees_with_variable_elimination_on_lidags() {
    for seed in [5u64, 17, 23] {
        let (_, lidag) = small_random_lidag(seed);
        let net = lidag.net();
        let tree = JunctionTree::compile(net).unwrap();
        assert!(tree.satisfies_running_intersection());
        let compiled = CompiledTree::new(tree, net).unwrap();
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        for var in net.var_ids() {
            let jt = compiled.marginal(&state, var);
            let ve = eliminate(net, var, &[], Heuristic::MinDegree).unwrap();
            for (a, b) in jt.iter().zip(&ve) {
                assert!((a - b).abs() < 1e-10, "seed {seed} var {var}");
            }
        }
    }
}

#[test]
fn posterior_queries_with_evidence_agree_across_engines() {
    let (_, lidag) = small_random_lidag(42);
    let net = lidag.net();
    let tree = JunctionTree::compile(net).unwrap();
    let last = VarId::from_index(net.num_vars() - 1);
    // Both kernel families: the default and the all-dense one.
    for mode in [SparseMode::Auto, SparseMode::Off] {
        let compiled =
            CompiledTree::from_parts_with(tree.clone(), initial_potentials(&tree, net), mode);
        let mut state = compiled.new_state();
        // Observe the last variable rising.
        compiled.set_evidence(&mut state, last, 1).unwrap();
        compiled.calibrate(&mut state);
        for var in net.var_ids() {
            if var == last {
                continue;
            }
            let jt = compiled.marginal(&state, var);
            let ve = eliminate(net, var, &[(last, 1)], Heuristic::MinFill).unwrap();
            let bf = net.brute_force_marginal(var, &[(last, 1)]);
            for ((a, b), c) in jt.iter().zip(&ve).zip(&bf) {
                assert!((a - b).abs() < 1e-10, "{mode:?}");
                assert!((a - c).abs() < 1e-10, "{mode:?}");
            }
        }
    }
}
