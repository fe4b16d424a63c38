//! Segmentation-strategy isolation: no two strategies can ever share a
//! cache entry or an on-disk artifact.

use swact::{artifact, CompiledEstimator, InputSpec, Options, SegmentationStrategy};
use swact_circuit::catalog;

fn options_with(segmentation: SegmentationStrategy, budget: usize) -> Options {
    Options {
        segment_budget: budget,
        segmentation,
        ..Options::default()
    }
}

/// Each strategy keys a distinct model: artifacts and engine cache
/// entries can never be served across strategies.
#[test]
fn strategies_never_share_a_model_key() {
    let c17 = catalog::c17();
    let spec = InputSpec::uniform(c17.num_inputs());
    let key = |s| artifact::model_key(&c17, Some(&spec), &options_with(s, 1 << 17));
    assert_ne!(
        key(SegmentationStrategy::TopoCover),
        key(SegmentationStrategy::BalancedCut)
    );
}

/// A persisted topo-cover artifact warm-loads bit-identically, and a
/// balanced-cut request can never pick it up — its key names a different
/// file.
#[test]
fn persisted_topo_cover_artifact_is_strategy_isolated_and_bit_identical() {
    let c432 = catalog::benchmark("c432").unwrap();
    let spec = InputSpec::uniform(c432.num_inputs());
    let options = options_with(SegmentationStrategy::TopoCover, 1 << 12);
    let compiled = CompiledEstimator::compile_for(&c432, &spec, &options).unwrap();
    let fresh = compiled.estimate(&spec).unwrap();

    let dir = std::env::temp_dir().join(format!("swact-strategy-iso-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let key = artifact::model_key(&c432, Some(&spec), &options);
    artifact::write_artifact(&dir, key, &compiled).unwrap();

    // The balanced-cut file name differs, so such a request misses cleanly.
    let cut_options = options_with(SegmentationStrategy::BalancedCut, 1 << 12);
    let cut_key = artifact::model_key(&c432, Some(&spec), &cut_options);
    assert_ne!(key, cut_key);
    let cut_path = dir.join(artifact::artifact_file_name(cut_key));
    assert!(
        !cut_path.exists(),
        "balanced-cut key must not address the topo-cover artifact"
    );

    // The topo-cover warm start reproduces the fresh estimate bit-for-bit.
    let path = dir.join(artifact::artifact_file_name(key));
    let (_, loaded) = artifact::read_artifact(&path, Some(key)).unwrap();
    let warm = loaded.estimate(&spec).unwrap();
    for line in c432.line_ids() {
        assert_eq!(
            fresh.switching(line).to_bits(),
            warm.switching(line).to_bits(),
            "line {}",
            c432.line_name(line)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
