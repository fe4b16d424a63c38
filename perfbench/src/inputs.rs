//! Seeded workload inputs: the circuit corpus and the scenario streams.
//!
//! Everything the estimator receives is made here from the workload seed:
//! the synthetic circuit, every random scenario, and which inputs the
//! sweep varies. The same seed gives the same inputs.

use swact::{InputModel, InputSpec};
use swact_circuit::benchgen::{self, GeneratorConfig};
use swact_circuit::{catalog, Circuit};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose of one workload seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut mix = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream identifiers, so each use of the seed draws its own sequence.
pub const STREAM_SYNTH: u64 = 1;
pub const STREAM_SCENARIOS: u64 = 2;
pub const STREAM_SWEEP: u64 = 3;
pub const STREAM_VERIFY: u64 = 4;

/// Where a corpus circuit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A named stand-in from `swact_circuit::catalog`.
    Catalog,
    /// A `benchgen` circuit seeded from the workload seed.
    Synth {
        gates: usize,
        inputs: usize,
        outputs: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitDef {
    pub name: &'static str,
    pub source: Source,
}

const fn catalog(name: &'static str) -> CircuitDef {
    CircuitDef {
        name,
        source: Source::Catalog,
    }
}

const SYNTH_10K: CircuitDef = CircuitDef {
    name: "synth_10k",
    source: Source::Synth {
        gates: 10_000,
        inputs: 300,
        outputs: 150,
    },
};

const SYNTH_SMALL: CircuitDef = CircuitDef {
    name: "synth_small",
    source: Source::Synth {
        gates: 200,
        inputs: 16,
        outputs: 8,
    },
};

/// The benchmark corpus, or the seconds-long smoke corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    Full,
    Smoke,
}

impl Corpus {
    /// Circuits a "new netlist arrives" workload compiles cold.
    pub fn cold(self) -> Vec<CircuitDef> {
        match self {
            Corpus::Full => vec![
                catalog("c432"),
                catalog("alu2"),
                catalog("c880"),
                catalog("c3540"),
                catalog("c7552"),
                catalog("c6288"),
                SYNTH_10K,
            ],
            Corpus::Smoke => vec![catalog("c17"), SYNTH_SMALL],
        }
    }

    /// Circuits the warm workloads precompile in set-up.
    pub fn warm(self) -> Vec<CircuitDef> {
        match self {
            Corpus::Full => vec![catalog("alu2"), catalog("c3540"), catalog("c7552")],
            Corpus::Smoke => vec![catalog("c17"), SYNTH_SMALL],
        }
    }
}

/// Builds a corpus circuit; synthetic ones derive from `seed`.
pub fn build_circuit(def: &CircuitDef, seed: u64) -> Circuit {
    match def.source {
        Source::Catalog => catalog::benchmark(def.name).expect("corpus names are catalog entries"),
        Source::Synth {
            gates,
            inputs,
            outputs,
        } => benchgen::generate(&GeneratorConfig {
            inputs,
            outputs,
            gates,
            seed: Rng::stream(seed, STREAM_SYNTH).next_u64(),
            ..GeneratorConfig::default_for(def.name)
        }),
    }
}

/// One input model drawn fresh: p1 in [0.05, 0.95], activity anywhere in
/// its feasible range [0, 2·min(p1, 1 − p1)].
pub fn random_model(rng: &mut Rng) -> InputModel {
    let p1 = 0.05 + 0.9 * rng.unit();
    let activity = rng.unit() * 2.0 * p1.min(1.0 - p1);
    InputModel::new(p1, activity).expect("drawn inside the feasible range")
}

pub fn random_spec(rng: &mut Rng, num_inputs: usize) -> InputSpec {
    InputSpec::from_models((0..num_inputs).map(|_| random_model(rng)).collect())
}

/// Points per input sweep.
pub const SWEEP_POINTS: usize = 16;

/// Strata of swept inputs per circuit. Consecutive sweeps of a circuit
/// take their inputs from the strata in turn; at the nominal run length
/// an `input_sweep` repetition sweeps one input of each.
pub const SWEEP_STRATA: usize = 5;

/// Chooses which input a sweep of one circuit varies. The seed picks the
/// input, stratified by the size of its transitive fan-out cone: the
/// inputs are ranked by cone size and cut into [`SWEEP_STRATA`] strata. A
/// sweep's cost follows how much of the circuit the input reaches, so
/// every run sweeps small and large cones alike whatever its seed.
pub struct SweepPlan {
    /// Input positions, smallest fan-out cone first.
    ranked: Vec<usize>,
}

impl SweepPlan {
    pub fn new(circuit: &Circuit) -> SweepPlan {
        let fanouts = circuit.fanouts();
        let cone = |input: usize| {
            let mut seen = vec![false; circuit.num_lines()];
            let mut stack = vec![circuit.inputs()[input]];
            let mut size = 0;
            while let Some(line) = stack.pop() {
                if !std::mem::replace(&mut seen[line.index()], true) {
                    size += 1;
                    stack.extend(&fanouts[line.index()]);
                }
            }
            size
        };
        let mut ranked: Vec<usize> = (0..circuit.num_inputs()).collect();
        ranked.sort_by_cached_key(|&input| (cone(input), input));
        SweepPlan { ranked }
    }

    /// A seeded input of `stratum` (below [`SWEEP_STRATA`]).
    pub fn pick(&self, stratum: usize, rng: &mut Rng) -> usize {
        let n = self.ranked.len();
        let lo = stratum * n / SWEEP_STRATA;
        let hi = ((stratum + 1) * n / SWEEP_STRATA).max(lo + 1).min(n);
        self.ranked[lo + rng.below(hi - lo)]
    }
}

/// `base` with input `input` moved to the `point`-th of
/// [`SWEEP_POINTS`] p1 values spread over [0.05, 0.95]. The input keeps
/// its base activity where that stays feasible.
pub fn sweep_spec(base: &InputSpec, input: usize, point: usize) -> InputSpec {
    let p1 = 0.05 + 0.9 * point as f64 / (SWEEP_POINTS - 1) as f64;
    let activity = base.model(input).activity().min(2.0 * p1.min(1.0 - p1));
    let mut models = base.models().to_vec();
    models[input] = InputModel::new(p1, activity).expect("activity clamped to the feasible range");
    InputSpec::from_models(models)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::stream(seed, STREAM_SCENARIOS);
            let spec = random_spec(&mut rng, 5);
            spec.models()
                .iter()
                .map(|m| (m.p1().to_bits(), m.activity().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let synth = |seed| swact_circuit::write::to_bench(&build_circuit(&SYNTH_SMALL, seed));
        assert_eq!(synth(3), synth(3));
        assert_ne!(synth(3), synth(4));
    }

    #[test]
    fn sweep_plan_picks_within_each_stratum() {
        let circuit = catalog::benchmark("c432").expect("catalog circuit");
        let plan = SweepPlan::new(&circuit);
        let n = circuit.num_inputs();
        let rank = |input: usize| plan.ranked.iter().position(|&i| i == input);
        let mut rng = Rng::new(5);
        for stratum in 0..SWEEP_STRATA {
            for _ in 0..8 {
                let r = rank(plan.pick(stratum, &mut rng)).expect("a ranked input");
                assert!(stratum * n / SWEEP_STRATA <= r && r < (stratum + 1) * n / SWEEP_STRATA);
            }
        }
        // Ten inputs, five strata: every stratum is non-empty.
        let alu2 = catalog::benchmark("alu2").expect("catalog circuit");
        let plan = SweepPlan::new(&alu2);
        for stratum in 0..SWEEP_STRATA {
            assert!(plan.pick(stratum, &mut rng) < alu2.num_inputs());
        }
    }

    #[test]
    fn sweep_points_span_the_range() {
        let mut rng = Rng::new(1);
        let base = random_spec(&mut rng, 3);
        let first = sweep_spec(&base, 1, 0);
        let last = sweep_spec(&base, 1, SWEEP_POINTS - 1);
        assert!((first.model(1).p1() - 0.05).abs() < 1e-12);
        assert!((last.model(1).p1() - 0.95).abs() < 1e-12);
        assert_eq!(first.model(0), base.model(0));
    }
}
