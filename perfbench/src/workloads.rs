//! The three workloads, their set-up, and the correctness gates around
//! every call into the estimator.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swact::artifact::{artifact_file_name, decode_artifact, encode_artifact, model_key};
use swact::{CompiledEstimator, ErrorStats, Estimate, InputSpec, Options};
use swact_circuit::Circuit;
use swact_engine::Engine;
use swact_sim::{measure_activity, StreamModel};

use crate::check::{fingerprint, golden, validate, Fingerprint};
use crate::inputs::{
    build_circuit, random_spec, sweep_spec, CircuitDef, Corpus, Rng, SweepPlan, STREAM_SCENARIOS,
    STREAM_SWEEP, STREAM_VERIFY, SWEEP_POINTS, SWEEP_STRATA,
};
use crate::layers::layer_metrics;
use crate::probe::probe;
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median. A warm workload replays
/// its requests once after each set-up but the first.
pub const SETUP_REPEATS: usize = 3;
/// Vector pairs of the ground-truth simulation, and its fixed seed.
pub const TRUTH_PAIRS: usize = 1 << 16;
pub const TRUTH_SEED: u64 = 0x5EED;
/// The `--seconds` the timed work below is sized for. Other values scale
/// it linearly, so a run's work depends only on its seed and `--seconds`,
/// never on how fast the host happens to be. On a 2-CPU x86-64 host each
/// workload measures for about this long.
pub const NOMINAL_SECONDS: f64 = 25.0;
/// `cold_corpus` passes over the corpus at [`NOMINAL_SECONDS`], and at
/// least.
pub const COLD_PASSES: usize = 3;
pub const COLD_MIN_PASSES: usize = 2;
/// `estimate_batch` calls per repetition of `random_scenarios` at
/// [`NOMINAL_SECONDS`] (200 scenarios, enough for a p95 with ten samples
/// beyond it), and at least.
pub const SCENARIO_CALLS: usize = 25;
pub const SCENARIO_MIN_CALLS: usize = 3;
/// Scenarios per `estimate_batch` call in `random_scenarios`.
pub const BATCH_SCENARIOS: usize = 8;
/// Warm scenarios per circuit re-checked against an `incremental: false`
/// compile.
pub const VERIFY_PER_CIRCUIT: usize = 4;
/// Share of warm scenarios drawn into the verification sample.
const VERIFY_ONE_IN: usize = 32;
/// At most this many failure messages are kept for the run record.
const MAX_FAILURE_MESSAGES: usize = 20;

/// `units` of timed work scaled from [`NOMINAL_SECONDS`] to `seconds`,
/// and at least `min`.
fn scaled(units: usize, min: usize, seconds: f64) -> usize {
    ((units as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(min)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdCorpus,
    RandomScenarios,
    InputSweep,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold_corpus",
            Workload::RandomScenarios => "random_scenarios",
            Workload::InputSweep => "input_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::ColdCorpus,
            Workload::RandomScenarios,
            Workload::InputSweep,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corpus: Corpus,
    /// Where the run writes side files (the engine's artifact cache).
    pub out_dir: PathBuf,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub circuits: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Latency samples behind `latency_ms_*`, and what one sample is.
    pub latency_samples: usize,
    pub latency_unit: &'static str,
    /// Traced run only: per-circuit layer breakdown (JSON) and spans.
    pub breakdown: Option<String>,
    pub tracer: Tracer,
}

/// Runs one workload.
pub fn run(config: &Config) -> Outcome {
    let bench = Bench::new(config);
    match config.workload {
        Workload::ColdCorpus => bench.cold_corpus(),
        Workload::RandomScenarios => bench.random_scenarios(),
        Workload::InputSweep => bench.input_sweep(),
    }
}

/// A circuit and its ground truth.
struct Prepared {
    circuit: Circuit,
    truth: Vec<f64>,
}

/// What an onboarding keeps for the workload besides its timings; the
/// rest is dropped at once, so a pass never holds two large models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keep {
    Nothing,
    Estimator,
    Artifact,
}

enum Kept {
    Nothing,
    /// The estimator decoded from the circuit's artifact.
    Estimator(Box<CompiledEstimator>),
    /// The artifact bytes and their model key.
    Artifact(u128, Vec<u8>),
}

/// Cold and warm-start timings of one circuit arriving.
struct Onboarded {
    kept: Kept,
    /// Compile + first estimate.
    cold: Duration,
    /// Decode from memory + first estimate.
    warm: Duration,
    error: ErrorStats,
    fingerprint: Fingerprint,
}

/// Onboarding timings of every repetition (pass or set-up), per circuit.
#[derive(Default)]
struct ColdSeries {
    cold: BestOf,
    warm: BestOf,
    /// Cold + warm start.
    both: BestOf,
    errors: Vec<ErrorStats>,
}

impl ColdSeries {
    fn push(&mut self, round: &[Onboarded]) {
        for (index, o) in round.iter().enumerate() {
            self.cold.push(index, index, o.cold.as_secs_f64());
            self.warm.push(index, index, o.warm.as_secs_f64());
            self.both
                .push(index, index, (o.cold + o.warm).as_secs_f64());
        }
        if self.errors.is_empty() {
            self.errors = round.iter().map(|o| o.error).collect();
        }
    }

    fn record(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        metrics.insert("cold_corpus_s", self.cold.total());
        let cold_ms: Vec<f64> = self.cold.samples().map(|(_, s)| s * 1e3).collect();
        metrics.insert("cold_geomean_ms", geomean(&cold_ms).unwrap_or(0.0));
        metrics.insert("warm_start_s", self.warm.total());
        let mean = |f: fn(&ErrorStats) -> f64| {
            self.errors.iter().map(f).sum::<f64>() / self.errors.len().max(1) as f64
        };
        metrics.insert("mean_abs_err", mean(|e| e.mean_abs_error));
        metrics.insert("sigma_err", mean(|e| e.std_error));
    }
}

/// The fastest sample of each request over the repetitions of a run,
/// keyed by request number. The host these numbers come from has slow
/// phases, about 1.5x, that last from seconds to a minute. They only ever
/// add time, so a request's fastest repetition is its least disturbed
/// sample, and a run reads slow only if every repetition of a request was
/// slow.
#[derive(Default)]
struct BestOf {
    /// Per request: its circuit index and fastest seconds.
    best: Vec<Option<(usize, f64)>>,
}

impl BestOf {
    fn push(&mut self, request: usize, circuit: usize, seconds: f64) {
        if self.best.len() <= request {
            self.best.resize(request + 1, None);
        }
        let slot = &mut self.best[request];
        let fastest = slot.map_or(seconds, |(_, best)| best.min(seconds));
        *slot = Some((circuit, fastest));
    }

    /// (circuit, fastest seconds) of every request with a sample.
    fn samples(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.best.iter().flatten().copied()
    }

    fn len(&self) -> usize {
        self.samples().count()
    }

    fn total(&self) -> f64 {
        self.samples().map(|(_, s)| s).sum()
    }

    /// Mean fastest seconds per circuit index (`None` for a circuit
    /// without samples).
    fn per_circuit_means(&self) -> Vec<Option<f64>> {
        let circuits = self.samples().map(|(c, _)| c + 1).max().unwrap_or(0);
        (0..circuits)
            .map(|c| {
                let mine: Vec<f64> = self.samples().filter(|s| s.0 == c).map(|s| s.1).collect();
                (!mine.is_empty()).then(|| mine.iter().sum::<f64>() / mine.len() as f64)
            })
            .collect()
    }
}

/// Latency samples of the timed work, split by whether the request was
/// traced.
#[derive(Default)]
struct Latencies {
    untraced: BestOf,
    traced: BestOf,
}

impl Latencies {
    fn push(&mut self, request: usize, circuit: usize, traced: bool, seconds: f64) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.push(request, circuit, seconds);
    }

    /// The central latency is the geometric mean over circuits of each
    /// circuit's mean, so neither the circuit mix nor one large circuit
    /// sets it. A mean, not a median: on `input_sweep` one request's cost
    /// depends 30-fold on the swept input, and a run sweeps only five
    /// inputs per circuit, so a median there is set by one or two inputs.
    /// p95 is taken over all requests.
    fn record(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        let means: Vec<f64> = self
            .untraced
            .per_circuit_means()
            .into_iter()
            .flatten()
            .collect();
        let all: Vec<f64> = self.untraced.samples().map(|(_, s)| s * 1e3).collect();
        metrics.insert("latency_ms_mean", 1e3 * geomean(&means).unwrap_or(0.0));
        metrics.insert("latency_ms_p95", quantile(&all, 0.95).unwrap_or(0.0));
    }

    /// Traced over untraced latency, minus one, in %: the geometric mean
    /// of the ratio over the requests that ran both traced and untraced,
    /// so the mix of requests on either side does not enter.
    fn overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced
            .best
            .iter()
            .zip(&self.untraced.best)
            .filter_map(|(traced, untraced)| Some(traced.as_ref()?.1 / untraced.as_ref()?.1))
            .collect();
        geomean(&ratios).map_or(0.0, |r| 100.0 * (r - 1.0))
    }
}

/// The estimate of every request in the first repetition, so later
/// repetitions can be checked against it.
#[derive(Default)]
struct Replays {
    first: Vec<Option<Fingerprint>>,
}

impl Replays {
    /// `Some(true)` the first time `request` is seen, `Some(false)` when
    /// `fp` matches what it gave then, `None` when it does not.
    fn check(&mut self, request: usize, fp: Fingerprint) -> Option<bool> {
        if self.first.len() <= request {
            self.first.resize(request + 1, None);
        }
        match self.first[request] {
            None => {
                self.first[request] = Some(fp);
                Some(true)
            }
            Some(first) => (first == fp).then_some(false),
        }
    }
}

/// A warm scenario kept for the `incremental: false` cross-check.
struct Sample {
    circuit: usize,
    spec: InputSpec,
    fingerprint: Fingerprint,
}

struct Bench<'a> {
    config: &'a Config,
    options: Options,
    tracer: Tracer,
    defs: Vec<CircuitDef>,
    attempted: Cell<u64>,
    failed: Cell<u64>,
    failures: RefCell<Vec<String>>,
    samples: RefCell<Vec<Sample>>,
    verify_rng: RefCell<Rng>,
}

impl<'a> Bench<'a> {
    fn new(config: &'a Config) -> Bench<'a> {
        let defs = match config.workload {
            Workload::ColdCorpus => config.corpus.cold(),
            _ => config.corpus.warm(),
        };
        Bench {
            config,
            options: Options::default(),
            tracer: Tracer::new(config.trace),
            defs,
            attempted: Cell::new(0),
            failed: Cell::new(0),
            failures: RefCell::new(Vec::new()),
            samples: RefCell::new(Vec::new()),
            verify_rng: RefCell::new(Rng::stream(config.seed, STREAM_VERIFY)),
        }
    }

    fn attempt(&self, n: u64) {
        self.attempted.set(self.attempted.get() + n);
    }

    fn fail(&self, message: String) {
        self.failed.set(self.failed.get() + 1);
        let mut failures = self.failures.borrow_mut();
        if failures.len() < MAX_FAILURE_MESSAGES {
            failures.push(message);
        }
    }

    /// Checks an estimate; a violation counts as a failed operation.
    fn accept(&self, circuit: &Circuit, estimate: &Estimate) -> bool {
        match validate(circuit, estimate) {
            Ok(()) => true,
            Err(message) => {
                self.fail(message);
                false
            }
        }
    }

    /// Records the per-layer counts an estimate reports about itself.
    fn count_estimate(&self, circuit: usize, estimate: &Estimate) {
        let stages = estimate.stage_timings();
        let reuse = estimate.reuse_stats();
        for (name, value) in [
            ("estimate.propagate_s", stages.propagate.as_secs_f64()),
            ("estimate.forward_s", stages.forward.as_secs_f64()),
            ("incremental.messages_reused", reuse.messages_reused as f64),
            (
                "incremental.messages_recomputed",
                reuse.messages_recomputed as f64,
            ),
            (
                "incremental.segments_skipped",
                reuse.segments_skipped as f64,
            ),
            ("incremental.segments", estimate.num_segments() as f64),
        ] {
            self.tracer.count(circuit, name, value);
        }
    }

    /// One checked `CompiledEstimator::estimate` call and its wall time.
    fn estimate(
        &self,
        index: usize,
        estimator: &CompiledEstimator,
        circuit: &Circuit,
        spec: &InputSpec,
    ) -> Option<(Estimate, Duration)> {
        let start = Instant::now();
        let result = self.tracer.span("estimate", || estimator.estimate(spec));
        let elapsed = start.elapsed();
        match result {
            Ok(estimate) => {
                self.count_estimate(index, &estimate);
                self.accept(circuit, &estimate)
                    .then_some((estimate, elapsed))
            }
            Err(e) => {
                self.fail(format!("{}: estimate failed: {e}", circuit.name()));
                None
            }
        }
    }

    /// Keeps a seeded sample of warm scenarios (always each circuit's
    /// first) for the `incremental: false` cross-check.
    fn maybe_sample(&self, circuit: usize, spec: &InputSpec, fp: Fingerprint) {
        let mut samples = self.samples.borrow_mut();
        let taken = samples.iter().filter(|s| s.circuit == circuit).count();
        let draw = self.verify_rng.borrow_mut().below(VERIFY_ONE_IN) == 0;
        if taken == 0 || (draw && taken < VERIFY_PER_CIRCUIT) {
            samples.push(Sample {
                circuit,
                spec: spec.clone(),
                fingerprint: fp,
            });
        }
    }

    /// Builds every corpus circuit and simulates its ground truth.
    fn prepare(&self) -> Vec<Prepared> {
        let t = &self.tracer;
        self.defs
            .iter()
            .enumerate()
            .map(|(i, def)| {
                let circuit = t.request("circuit", i, || build_circuit(def, self.config.seed));
                let truth = t.request("sim", i, || {
                    let model = StreamModel::uniform(circuit.num_inputs());
                    measure_activity(&circuit, &model, TRUTH_PAIRS, TRUTH_SEED).switching
                });
                Prepared { circuit, truth }
            })
            .collect()
    }

    /// Repeats `setup` [`SETUP_REPEATS`] times, dropping each result
    /// before the next starts. Returns the median seconds and the last
    /// result.
    fn repeat_setup<T>(&self, mut setup: impl FnMut() -> T) -> (f64, T) {
        let mut seconds = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let start = Instant::now();
            last = Some(setup());
            seconds.push(start.elapsed().as_secs_f64());
        }
        let last = last.expect("at least one set-up");
        (median(&seconds).expect("at least one set-up"), last)
    }

    /// A new netlist arrives: compile and first-estimate it, encode its
    /// artifact, then decode it from memory and estimate again (the
    /// `--cache-dir` restart path). Checks the golden fingerprint and
    /// that the decoded artifact reproduces the estimate bit for bit.
    /// With `encoded`, the artifact an earlier onboarding of the same
    /// circuit encoded is decoded instead of encoding it again; encoding
    /// is not timed, and it costs seconds on the largest circuits.
    fn onboard(
        &self,
        index: usize,
        prepared: &Prepared,
        keep: Keep,
        encoded: Option<&[u8]>,
    ) -> Option<Onboarded> {
        self.tracer.request("onboard", index, || {
            self.onboard_inner(index, prepared, keep, encoded)
        })
    }

    fn onboard_inner(
        &self,
        index: usize,
        prepared: &Prepared,
        keep: Keep,
        encoded: Option<&[u8]>,
    ) -> Option<Onboarded> {
        let circuit = &prepared.circuit;
        let name = self.defs[index].name;
        let uniform = InputSpec::uniform(circuit.num_inputs());
        self.attempt(1);
        let start = Instant::now();
        let compiled = self.tracer.span("compile", || {
            CompiledEstimator::compile(circuit, &self.options)
        });
        let compiled = match compiled {
            Ok(compiled) => compiled,
            Err(e) => {
                self.fail(format!("{name}: compile failed: {e}"));
                return None;
            }
        };
        let (first, _) = self.estimate(index, &compiled, circuit, &uniform)?;
        let cold = start.elapsed();
        let fp = fingerprint(circuit, &first);
        if let Some(expected) = golden(name) {
            if fp != expected {
                self.fail(format!(
                    "{name}: fingerprint {fp:x?} differs from golden {expected:x?}"
                ));
                return None;
            }
        }
        let key = model_key(circuit, Some(&uniform), &self.options);
        let fresh = encoded.is_none().then(|| {
            let artifact = self
                .tracer
                .span("encode", || encode_artifact(key, &compiled));
            self.tracer
                .count(index, "artifact.bytes", artifact.len() as f64);
            artifact
        });
        let artifact = encoded.or(fresh.as_deref()).expect("encoded now or before");
        drop(compiled);

        self.attempt(1);
        let start = Instant::now();
        let decoded = self
            .tracer
            .span("decode", || decode_artifact(artifact, Some(key)));
        let estimator = match decoded {
            Ok((_, estimator)) => estimator,
            Err(e) => {
                self.fail(format!("{name}: artifact decode failed: {e}"));
                return None;
            }
        };
        let (again, _) = self.estimate(index, &estimator, circuit, &uniform)?;
        let warm = start.elapsed();
        if fingerprint(circuit, &again) != fp {
            self.fail(format!("{name}: decoded artifact estimates differently"));
            return None;
        }
        Some(Onboarded {
            kept: match keep {
                Keep::Nothing => Kept::Nothing,
                Keep::Estimator => Kept::Estimator(Box::new(estimator)),
                Keep::Artifact => {
                    Kept::Artifact(key, fresh.expect("only a fresh encoding is kept"))
                }
            },
            cold,
            warm,
            error: ErrorStats::between(&first.switching_all(), &prepared.truth),
            fingerprint: fp,
        })
    }

    /// Onboards every prepared circuit, decoding the `encoded` artifacts
    /// where given; `None` if any fails.
    fn onboard_all(
        &self,
        prepared: &[Prepared],
        keep: Keep,
        encoded: &[Vec<u8>],
    ) -> Option<Vec<Onboarded>> {
        prepared
            .iter()
            .enumerate()
            .map(|(i, p)| self.onboard(i, p, keep, encoded.get(i).map(Vec::as_slice)))
            .collect::<Vec<_>>()
            .into_iter()
            .collect()
    }

    /// The set-ups and timed work of a warm workload. Each of the
    /// [`SETUP_REPEATS`] set-ups drops the previous state and builds a
    /// fresh one. After every set-up but the first, which also warms the
    /// process up, `requests` are replayed on it, so every repetition
    /// does the same work from the same state, spread over the run. With tracing on, each request is traced in about half of the
    /// repetitions, picked by a hash of (repetition, request), so traced
    /// and untraced samples cover the same requests. Returns the median
    /// set-up seconds and the last state.
    fn warm_run<S>(
        &self,
        requests: usize,
        mut setup: impl FnMut() -> Option<S>,
        mut step: impl FnMut(&S, usize, bool),
    ) -> Option<(f64, S)> {
        let (mut setups, mut state) = (Vec::new(), None);
        for rep in 0..SETUP_REPEATS {
            drop(state.take());
            let start = Instant::now();
            let current = setup()?;
            setups.push(start.elapsed().as_secs_f64());
            let replays = if rep == 0 { 0 } else { requests };
            for request in 0..replays {
                let pick = Rng::new(((rep as u64) << 32) | request as u64).next_u64();
                let traced = self.config.trace && pick & 1 == 1;
                self.tracer.set_enabled(traced);
                step(&current, request, traced);
            }
            self.tracer.set_enabled(self.config.trace);
            state = Some(current);
        }
        Some((median(&setups)?, state?))
    }

    /// Checks that a replayed request estimated as it did the first time;
    /// a difference counts as a failed operation. `Some(first)` if it
    /// passed, where `first` tells whether this was the first time.
    fn replayed(
        &self,
        replays: &mut Replays,
        request: usize,
        name: &str,
        fp: Fingerprint,
    ) -> Option<bool> {
        let checked = replays.check(request, fp);
        if checked.is_none() {
            self.fail(format!("{name}: a replayed request estimated differently"));
        }
        checked
    }

    fn cold_corpus(self) -> Outcome {
        let (setup_s, prepared) = self.repeat_setup(|| self.prepare());
        let mut series = ColdSeries::default();
        let mut latencies = Latencies::default();
        let mut replays = Replays::default();
        // A traced run makes one untraced and one traced pass, for the
        // overhead; the probe after them covers the layers.
        let passes = if self.config.trace {
            2
        } else {
            scaled(COLD_PASSES, COLD_MIN_PASSES, self.config.seconds)
        };
        // The first pass's artifacts, which later untraced passes decode.
        let mut artifacts: Vec<Vec<u8>> = Vec::new();
        for pass in 0..passes {
            let traced = self.config.trace && pass == 1;
            self.tracer.set_enabled(traced);
            let (keep, encoded) = match (pass, traced) {
                (0, _) => (Keep::Artifact, &[][..]),
                (_, true) => (Keep::Nothing, &[][..]),
                _ => (Keep::Nothing, &artifacts[..]),
            };
            let Some(mut round) = self.onboard_all(&prepared, keep, encoded) else {
                break;
            };
            for (index, o) in round.iter().enumerate() {
                // The synthetic circuit has no golden: across passes it
                // must at least repeat itself exactly.
                let name = self.defs[index].name;
                if self
                    .replayed(&mut replays, index, name, o.fingerprint)
                    .is_some()
                {
                    latencies.push(index, index, traced, o.cold.as_secs_f64());
                }
            }
            if !traced {
                series.push(&round);
            }
            if pass == 0 {
                artifacts = round
                    .iter_mut()
                    .filter_map(|o| match std::mem::replace(&mut o.kept, Kept::Nothing) {
                        Kept::Artifact(_, bytes) => Some(bytes),
                        _ => None,
                    })
                    .collect();
            }
        }
        drop(artifacts);
        self.tracer.set_enabled(self.config.trace);
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", setup_s);
        series.record(&mut metrics);
        // Two estimates per onboarding: the first, and the decoded one.
        let estimates = 2 * series.both.len();
        metrics.insert("scenarios_per_s", estimates as f64 / series.both.total());
        latencies.record(&mut metrics);
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let circuits = prepared.iter().map(|p| &p.circuit).collect::<Vec<_>>();
        self.finish(metrics, &latencies, &circuits, "onboarding")
    }

    fn random_scenarios(self) -> Outcome {
        let cache_dir = self
            .config
            .out_dir
            .join(format!("cache-{}", std::process::id()));
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut series = ColdSeries::default();
        let setup = || {
            let prepared = self.prepare();
            let round = self.onboard_all(&prepared, Keep::Artifact, &[])?;
            series.push(&round);
            let expected = round.len();
            // Restart path of a serving process: the engine loads every
            // artifact from its cache directory before the first request.
            let engine = self.tracer.span("prewarm", || {
                write_artifacts(&cache_dir, round)?;
                let engine = Engine::with_jobs(jobs).with_cache_dir(&cache_dir);
                let loaded = engine.prewarm();
                std::fs::remove_dir_all(&cache_dir)?;
                Ok::<_, std::io::Error>((engine, loaded))
            });
            match engine {
                Ok((engine, loaded)) if loaded == expected => Some((prepared, engine)),
                Ok((_, loaded)) => {
                    self.fail(format!(
                        "engine prewarm loaded {loaded} of {expected} artifacts"
                    ));
                    None
                }
                Err(e) => {
                    self.fail(format!("artifact cache directory: {e}"));
                    None
                }
            }
        };

        // The calls every repetition replays: circuits rotate per call,
        // and every input of every scenario is drawn fresh.
        let inputs: Vec<usize> = self
            .defs
            .iter()
            .map(|def| build_circuit(def, self.config.seed).num_inputs())
            .collect();
        let mut rng = Rng::stream(self.config.seed, STREAM_SCENARIOS);
        let calls: Vec<(usize, Vec<InputSpec>)> =
            (0..scaled(SCENARIO_CALLS, SCENARIO_MIN_CALLS, self.config.seconds))
                .map(|call| {
                    let index = call % inputs.len();
                    let specs = (0..BATCH_SCENARIOS)
                        .map(|_| random_spec(&mut rng, inputs[index]))
                        .collect();
                    (index, specs)
                })
                .collect();
        let mut latencies = Latencies::default();
        let mut call_times = BestOf::default();
        let mut replays = Replays::default();
        let step = |(prepared, engine): &(Vec<Prepared>, Engine), call: usize, traced: bool| {
            let (index, specs) = (calls[call].0, &calls[call].1);
            let circuit = &prepared[index].circuit;
            self.attempt(specs.len() as u64);
            let start = Instant::now();
            let report = self.tracer.request("request", index, || {
                self.tracer.span("batch", || {
                    engine.estimate_batch(circuit, specs, &self.options)
                })
            });
            let wall = start.elapsed().as_secs_f64();
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    for _ in specs {
                        self.fail(format!("{}: estimate_batch failed: {e}", circuit.name()));
                    }
                    return;
                }
            };
            for _ in report.items.len()..specs.len() {
                self.fail(format!(
                    "{}: estimate_batch dropped a scenario",
                    circuit.name()
                ));
            }
            let mut accepted = 0;
            for (slot, (item, spec)) in report.items.iter().zip(specs).enumerate() {
                self.tracer
                    .count(index, "engine.queue_wait_s", item.queue_wait.as_secs_f64());
                match &item.result {
                    Ok(estimate) => {
                        self.count_estimate(index, estimate);
                        let fp = fingerprint(circuit, estimate);
                        let request = call * BATCH_SCENARIOS + slot;
                        let checked = self
                            .accept(circuit, estimate)
                            .then(|| self.replayed(&mut replays, request, circuit.name(), fp))
                            .flatten();
                        if let Some(first) = checked {
                            let seconds = item.run_time.as_secs_f64();
                            latencies.push(request, index, traced, seconds);
                            if first {
                                self.maybe_sample(index, spec, fp);
                            }
                            accepted += 1;
                        }
                    }
                    Err(e) => self.fail(format!("{}: scenario failed: {e}", circuit.name())),
                }
            }
            if !traced && accepted == BATCH_SCENARIOS {
                call_times.push(call, index, wall);
            }
            let hit = if report.cache_hit {
                "engine.cache_hits"
            } else {
                "engine.cache_misses"
            };
            self.tracer.count(index, hit, 1.0);
        };
        let Some((setup_s, (prepared, engine))) = self.warm_run(calls.len(), setup, step) else {
            return self.finish(BTreeMap::new(), &Latencies::default(), &[], "scenario");
        };
        drop(engine);
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", setup_s);
        series.record(&mut metrics);
        let scenarios = BATCH_SCENARIOS * call_times.len();
        metrics.insert("scenarios_per_s", scenarios as f64 / call_times.total());
        latencies.record(&mut metrics);
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let circuits = prepared.iter().map(|p| &p.circuit).collect::<Vec<_>>();
        self.verify_samples(&circuits);
        self.finish(metrics, &latencies, &circuits, "scenario")
    }

    fn input_sweep(self) -> Outcome {
        let mut series = ColdSeries::default();
        let setup = || {
            let prepared = self.prepare();
            let round = self.onboard_all(&prepared, Keep::Estimator, &[])?;
            series.push(&round);
            let estimators: Vec<CompiledEstimator> = round
                .into_iter()
                .filter_map(|o| match o.kept {
                    Kept::Estimator(estimator) => Some(*estimator),
                    _ => None,
                })
                .collect();
            Some((prepared, estimators))
        };

        // The requests every repetition replays: a seeded base spec per
        // circuit, and per circuit one seeded input of each stratum in
        // turn, swept over its points.
        let circuits: Vec<Circuit> = self
            .defs
            .iter()
            .map(|def| build_circuit(def, self.config.seed))
            .collect();
        let mut rng = Rng::stream(self.config.seed, STREAM_SWEEP);
        let bases: Vec<InputSpec> = circuits
            .iter()
            .map(|c| random_spec(&mut rng, c.num_inputs()))
            .collect();
        let plans: Vec<SweepPlan> = circuits.iter().map(SweepPlan::new).collect();
        let mut requests: Vec<(usize, InputSpec)> = Vec::new();
        for sweep in 0..scaled(SWEEP_STRATA, 1, self.config.seconds) {
            for (index, plan) in plans.iter().enumerate() {
                let input = plan.pick(sweep % SWEEP_STRATA, &mut rng);
                requests.extend(
                    (0..SWEEP_POINTS).map(|point| (index, sweep_spec(&bases[index], input, point))),
                );
            }
        }
        let mut latencies = Latencies::default();
        let mut replays = Replays::default();
        let step = |(prepared, estimators): &(Vec<Prepared>, Vec<CompiledEstimator>),
                    request: usize,
                    traced: bool| {
            let (index, spec) = (requests[request].0, &requests[request].1);
            let circuit = &prepared[index].circuit;
            self.attempt(1);
            let result = self.tracer.request("request", index, || {
                self.estimate(index, &estimators[index], circuit, spec)
            });
            if let Some((estimate, elapsed)) = result {
                let fp = fingerprint(circuit, &estimate);
                if let Some(first) = self.replayed(&mut replays, request, circuit.name(), fp) {
                    latencies.push(request, index, traced, elapsed.as_secs_f64());
                    if first {
                        self.maybe_sample(index, spec, fp);
                    }
                }
            }
        };
        let Some((setup_s, (prepared, estimators))) = self.warm_run(requests.len(), setup, step)
        else {
            return self.finish(BTreeMap::new(), &Latencies::default(), &[], "estimate");
        };
        drop(estimators);
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", setup_s);
        series.record(&mut metrics);
        // One serial caller: the requests' fastest latencies add up to
        // one repetition's wall time.
        let served = latencies.untraced.len();
        metrics.insert(
            "scenarios_per_s",
            served as f64 / latencies.untraced.total(),
        );
        latencies.record(&mut metrics);
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let circuits = prepared.iter().map(|p| &p.circuit).collect::<Vec<_>>();
        self.verify_samples(&circuits);
        self.finish(metrics, &latencies, &circuits, "estimate")
    }

    /// Re-estimates the sampled warm scenarios on a fresh
    /// `incremental: false` compile; any bit difference is a failure.
    fn verify_samples(&self, circuits: &[&Circuit]) {
        let options = Options {
            incremental: false,
            ..self.options
        };
        let samples = self.samples.take();
        for (index, circuit) in circuits.iter().enumerate() {
            let mine: Vec<&Sample> = samples.iter().filter(|s| s.circuit == index).collect();
            if mine.is_empty() {
                continue;
            }
            let reference = match CompiledEstimator::compile(circuit, &options) {
                Ok(reference) => reference,
                Err(e) => {
                    self.fail(format!("{}: reference compile failed: {e}", circuit.name()));
                    continue;
                }
            };
            for sample in mine {
                match reference.estimate(&sample.spec) {
                    Ok(fresh) if fingerprint(circuit, &fresh) == sample.fingerprint => {}
                    Ok(_) => self.fail(format!(
                        "{}: warm estimate differs from a fresh non-incremental compile",
                        circuit.name()
                    )),
                    Err(e) => self.fail(format!(
                        "{}: reference estimate failed: {e}",
                        circuit.name()
                    )),
                }
            }
        }
    }

    /// Completes the run: the traced run probes every circuit's layers and
    /// turns spans and counts into per-layer metrics.
    fn finish(
        self,
        e2e: BTreeMap<&'static str, f64>,
        latencies: &Latencies,
        circuits: &[&Circuit],
        latency_unit: &'static str,
    ) -> Outcome {
        let (metrics, breakdown) = if self.config.trace {
            for (index, circuit) in circuits.iter().enumerate() {
                if let Err(e) = probe(&self.tracer, index, circuit, &self.options) {
                    self.fail(format!("{}: layer probe failed: {e}", circuit.name()));
                }
            }
            let names: Vec<&str> = self.defs.iter().map(|d| d.name).collect();
            let (metrics, breakdown) =
                layer_metrics(&self.tracer, &names, latencies.overhead_pct());
            (metrics, Some(breakdown))
        } else {
            (e2e, None)
        };
        Outcome {
            attempted: self.attempted.get(),
            failed: self.failed.get(),
            failures: self.failures.take(),
            circuits: self.defs.iter().map(|d| d.name.to_string()).collect(),
            metrics,
            latency_samples: latencies.untraced.len(),
            latency_unit,
            breakdown,
            tracer: self.tracer,
        }
    }
}

/// Writes each onboarded artifact under its canonical file name, then
/// drops the in-memory copies.
fn write_artifacts(dir: &Path, round: Vec<Onboarded>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for o in round {
        if let Kept::Artifact(key, bytes) = &o.kept {
            std::fs::write(dir.join(artifact_file_name(*key)), bytes)?;
        }
    }
    Ok(())
}

/// Peak resident set size of this process, in MB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
