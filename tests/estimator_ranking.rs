//! Cross-estimator consistency and ranking — the Table 2 story as
//! executable assertions.

use swact::{estimate, Backend, InputModel, InputSpec, Options};
use swact_baselines::{
    BddExact, Independence, PairwiseCorrelation, SwitchingEstimator, TransitionDensity,
};
use swact_circuit::catalog;
use swact_sim::{measure_activity, StreamModel};

fn mean_abs_error(estimate: &[f64], truth: &[f64]) -> f64 {
    estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / truth.len() as f64
}

#[test]
fn bn_matches_bdd_exact_on_single_bn_circuits() {
    // Two completely independent exact engines (junction tree vs BDD).
    for name in ["c17", "pcler8"] {
        let circuit = catalog::benchmark(name).unwrap();
        let spec = InputSpec::from_models(
            (0..circuit.num_inputs())
                .map(|i| InputModel::new(0.3 + 0.04 * (i % 10) as f64, 0.15).unwrap())
                .collect(),
        );
        let bn = estimate(&circuit, &spec, &Options::single_bn()).unwrap();
        let bdd = BddExact::default().estimate(&circuit, &spec).unwrap();
        for line in circuit.line_ids() {
            assert!(
                (bn.switching(line) - bdd[line.index()]).abs() < 1e-9,
                "{name} line {}",
                circuit.line_name(line)
            );
        }
    }
}

#[test]
fn estimator_ranking_on_benchmarks() {
    // BN ≤ pairwise ≤ independence in mean error against simulation —
    // the Table 2 ordering (with a small tolerance for ties).
    for name in ["c499", "c880"] {
        let circuit = catalog::benchmark(name).unwrap();
        let spec = InputSpec::uniform(circuit.num_inputs());
        let truth = measure_activity(
            &circuit,
            &StreamModel::uniform(circuit.num_inputs()),
            1 << 19,
            0xbeef,
        )
        .switching;
        let bn = estimate(&circuit, &spec, &Options::default()).unwrap();
        let bn_err = mean_abs_error(&bn.switching_all(), &truth);
        let pw_err = mean_abs_error(
            &PairwiseCorrelation::default()
                .estimate(&circuit, &spec)
                .unwrap(),
            &truth,
        );
        let ind_err = mean_abs_error(&Independence.estimate(&circuit, &spec).unwrap(), &truth);
        assert!(
            bn_err <= pw_err + 1e-3,
            "{name}: BN {bn_err} vs pairwise {pw_err}"
        );
        assert!(
            pw_err <= ind_err + 1e-3,
            "{name}: pairwise {pw_err} vs indep {ind_err}"
        );
        assert!(
            ind_err < 3.0 * bn_err + 0.5,
            "sanity: independence should not be absurd"
        );
    }
}

#[test]
fn density_bounds_activity_from_above_on_average() {
    // Transition density over-counts; on realistic circuits its mean must
    // not be below the true mean activity.
    let circuit = catalog::benchmark("c432").unwrap();
    let spec = InputSpec::uniform(circuit.num_inputs());
    let truth = measure_activity(
        &circuit,
        &StreamModel::uniform(circuit.num_inputs()),
        1 << 18,
        1,
    )
    .switching;
    let density = TransitionDensity.estimate(&circuit, &spec).unwrap();
    let mean_truth: f64 = truth.iter().sum::<f64>() / truth.len() as f64;
    let mean_density: f64 = density.iter().sum::<f64>() / density.len() as f64;
    assert!(
        mean_density >= mean_truth * 0.95,
        "density {mean_density} vs truth {mean_truth}"
    );
}

#[test]
fn two_state_model_degrades_under_temporal_correlation() {
    // Ablation A2 as a regression test: the four-state model must beat the
    // two-state proxy when inputs are temporally correlated.
    use swact_sim::SignalModel;
    let circuit = catalog::benchmark("count").unwrap();
    let n = circuit.num_inputs();
    let spec = InputSpec::from_models(vec![InputModel::new(0.5, 0.1).unwrap(); n]);
    let model = StreamModel {
        signals: vec![SignalModel::new(0.5, 0.1); n],
        groups: Vec::new(),
    };
    let truth = measure_activity(&circuit, &model, 1 << 19, 3).switching;
    let four = estimate(&circuit, &spec, &Options::default()).unwrap();
    let two = estimate(&circuit, &spec, &Options::with_backend(Backend::TwoState)).unwrap();
    let four_err = mean_abs_error(&four.switching_all(), &truth);
    let two_err = mean_abs_error(&two.switching_all(), &truth);
    assert!(
        four_err * 3.0 < two_err,
        "expected clear four-state win: {four_err} vs {two_err}"
    );
}
