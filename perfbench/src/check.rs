//! Correctness gates: every estimate is checked before its timing counts.

use swact::Estimate;
use swact_circuit::Circuit;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scalar fingerprint of an estimate, as pinned by the core crate's
/// backend regression test: (segments, FNV-1a 64 over the little-endian
/// `to_bits()` of all four transition probabilities of every line in
/// `line_ids()` order, bits of the mean switching activity).
pub type Fingerprint = (usize, u64, u64);

pub fn fingerprint(circuit: &Circuit, estimate: &Estimate) -> Fingerprint {
    let bytes = circuit.line_ids().flat_map(|line| {
        estimate
            .distribution(line)
            .as_array()
            .into_iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
    });
    (
        estimate.num_segments(),
        fnv1a(bytes),
        estimate.mean_switching().to_bits(),
    )
}

/// Golden fingerprints of the catalog circuits under a uniform spec and
/// default options. c17, c432 and alu2 equal the hashes pinned in
/// `crates/core/tests/backend_regression.rs`.
const GOLDEN: [(&str, Fingerprint); 7] = [
    ("c17", (1, 0x0820_f9a4_2e22_330d, 0x3fde_1745_d174_5d17)),
    ("c432", (4, 0x1c5e_3e53_2e60_b850, 0x3fd8_5a80_7386_0d61)),
    ("alu2", (4, 0x6e98_23d6_57c4_2a74, 0x3fd6_7a88_90c9_1701)),
    ("c880", (5, 0xd508_d56c_3629_4172, 0x3fd8_8ad1_b8fd_68ac)),
    ("c3540", (28, 0x5fc8_7dcc_01f9_9133, 0x3fd6_8d6a_9eea_a6b7)),
    ("c7552", (29, 0xe639_b4c7_0e79_b66b, 0x3fd7_16c8_e3c7_a83a)),
    ("c6288", (10, 0x0ec8_3d9b_8fc7_f350, 0x3fd5_4bcf_f2ce_a2bb)),
];

/// The pinned fingerprint of a catalog circuit, if it has one.
pub fn golden(name: &str) -> Option<Fingerprint> {
    GOLDEN.iter().find(|(n, _)| *n == name).map(|&(_, fp)| fp)
}

/// Checks one estimate: not degraded, and every line's activity and
/// transition probabilities finite and in [0, 1]. Returns the first
/// violation found.
pub fn validate(circuit: &Circuit, estimate: &Estimate) -> Result<(), String> {
    if estimate.is_degraded() {
        return Err(format!(
            "{}: estimate degraded ({} segments)",
            circuit.name(),
            estimate.degradations().len()
        ));
    }
    for line in circuit.line_ids() {
        let activity = estimate.switching(line);
        let dist = estimate.distribution(line).as_array();
        let ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        if !ok(activity) || !dist.into_iter().all(ok) {
            return Err(format!(
                "{}: line {} out of range (activity {activity}, distribution {dist:?})",
                circuit.name(),
                circuit.line_name(line)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact::{estimate, InputSpec, Options};
    use swact_circuit::catalog;

    #[test]
    fn c17_matches_its_golden_and_validates() {
        let c17 = catalog::c17();
        let est = estimate(&c17, &InputSpec::uniform(5), &Options::default()).expect("c17");
        assert_eq!(Some(fingerprint(&c17, &est)), golden("c17"));
        assert_eq!(validate(&c17, &est), Ok(()));
        assert_eq!(golden("synth_10k"), None);
    }
}
