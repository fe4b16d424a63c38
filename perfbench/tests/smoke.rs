//! Seconds-long smoke runs of every workload on the smoke corpus (c17 and
//! a 200-gate synthetic circuit), untraced and traced.

use std::path::PathBuf;

use swact_perfbench::inputs::Corpus;
use swact_perfbench::report::{END_TO_END, PER_LAYER};
use swact_perfbench::workloads::{run, Config, Workload};

fn smoke(workload: Workload, trace: bool) -> swact_perfbench::workloads::Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    run(&Config {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        corpus: Corpus::Smoke,
        out_dir,
    })
}

fn check(workload: Workload) {
    let untraced = smoke(workload, false);
    assert_eq!(untraced.failed, 0, "{:?}", untraced.failures);
    assert!(untraced.attempted > 0);
    assert!(untraced.latency_samples > 0);
    for (name, _) in END_TO_END {
        let value = untraced.metrics[name];
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }

    let traced = smoke(workload, true);
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    for (name, _) in PER_LAYER {
        assert!(traced.metrics[name].is_finite(), "{name}");
    }
    // `jtree.build_s` is a difference of spans and may clamp to 0 on c17.
    for name in ["circuit.build_s", "compile.s", "plan.s", "calibrate.s"] {
        assert!(traced.metrics[name] > 0.0, "{name}");
    }
    let breakdown = traced
        .breakdown
        .expect("traced runs break time down per circuit");
    assert!(breakdown.contains("\"c17\"") && breakdown.contains("cold_dominant"));
    assert!(!traced.tracer.spans().is_empty());
}

#[test]
fn cold_corpus_smoke() {
    check(Workload::ColdCorpus);
}

#[test]
fn random_scenarios_smoke() {
    check(Workload::RandomScenarios);
}

#[test]
fn input_sweep_smoke() {
    check(Workload::InputSweep);
}
