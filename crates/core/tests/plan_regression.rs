//! Plan-identity regression: segmentation plans at default options must
//! stay byte-identical on the large corpus circuits.
//!
//! Each fingerprint is FNV-1a 64 over every segment's gate lines, root
//! lines with their [`RootSource`], and the little-endian `to_bits()` bytes
//! of the planner's per-segment estimated costs. Any change to the
//! elimination order the planner's cost estimate uses, to where segments
//! close, or to root provenance shows up here as a hash mismatch. The
//! golden values were captured before the planner moved onto the
//! incremental elimination engine.

use swact::pipeline::PlannedCircuit;
use swact::{Options, RootSource, SegmentationStrategy};
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::{catalog, Circuit};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// (segments, boundary roots, fingerprint) of `circuit`'s plan at default
/// options under `strategy`.
fn fingerprint(circuit: &Circuit, strategy: SegmentationStrategy) -> (usize, usize, u64) {
    let options = Options {
        segmentation: strategy,
        ..Options::default()
    };
    let planned = PlannedCircuit::new(circuit, &options).unwrap();
    let plan = planned.plan();
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for seg in plan.segments() {
        put(seg.gates.len() as u64);
        for g in &seg.gates {
            put(g.index() as u64);
        }
        put(seg.roots.len() as u64);
        for (line, source) in &seg.roots {
            put(line.index() as u64);
            put(match source {
                RootSource::PrimaryInput(pos) => *pos as u64,
                RootSource::Boundary => u64::MAX,
            });
        }
    }
    for cost in plan.estimated_costs(planned.working(), 4, options.heuristic) {
        put(cost.to_bits());
    }
    (plan.segments().len(), plan.boundary_roots(), fnv1a(&bytes))
}

fn both(circuit: &Circuit) -> [(usize, usize, u64); 2] {
    [
        fingerprint(circuit, SegmentationStrategy::TopoCover),
        fingerprint(circuit, SegmentationStrategy::BalancedCut),
    ]
}

fn catalog_plans(name: &str) -> [(usize, usize, u64); 2] {
    both(&catalog::benchmark(name).unwrap())
}

#[test]
fn c432_plans_are_pinned() {
    assert_eq!(
        catalog_plans("c432"),
        [(4, 13, 0x67162d80e5f0a23e), (5, 16, 0x4dfbdbcd4332f4a9)]
    );
}

#[test]
fn alu2_plans_are_pinned() {
    assert_eq!(
        catalog_plans("alu2"),
        [(4, 34, 0x6eb5c14f2571dd49), (6, 37, 0xbfc59f20e9b32693)]
    );
}

#[test]
fn c880_plans_are_pinned() {
    assert_eq!(
        catalog_plans("c880"),
        [(5, 44, 0xa100be9d3e5f0f47), (7, 50, 0xaf40a4db40004bda)]
    );
}

#[test]
fn c3540_plans_are_pinned() {
    assert_eq!(
        catalog_plans("c3540"),
        [(28, 319, 0xa83cb03f14567fc5), (42, 336, 0xd3d206d6a8541d5e)]
    );
}

#[test]
fn c7552_plans_are_pinned() {
    assert_eq!(
        catalog_plans("c7552"),
        [(29, 571, 0x75adfb7d5dcb489f), (67, 596, 0x64c6b7a12efbffc8)]
    );
}

#[test]
fn c6288_plans_are_pinned() {
    assert_eq!(
        catalog_plans("c6288"),
        [(10, 372, 0x3db30337d3e2a3b2), (17, 390, 0x910ca45ae1f30197)]
    );
}

#[test]
fn seeded_benchgen_plans_are_pinned() {
    let circuit = generate(&GeneratorConfig {
        inputs: 64,
        outputs: 32,
        gates: 2_000,
        seed: 14,
        ..GeneratorConfig::default_for("synth_2k")
    });
    assert_eq!(
        both(&circuit),
        [(21, 348, 0x95f73916f664426a), (38, 361, 0xad825e121d9e05b6)]
    );
}
