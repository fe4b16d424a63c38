//! The estimator facade: configuration ([`Options`]) and the compiled,
//! re-propagatable estimator ([`CompiledEstimator`]).
//!
//! The actual staged machinery — planning, per-segment modeling, backend
//! compilation, wave-scheduled propagation with boundary forwarding —
//! lives in [`crate::pipeline`]; this module only wraps it behind the
//! original public API.

use std::time::Duration;

use swact_bayesnet::{Heuristic, SparseMode};
use swact_circuit::{Circuit, LineId};

use crate::budget::{Budget, DegradationReport};
use crate::pipeline::{Backend, CompiledPipeline, SegmentTimings, StageTimings};
use crate::report::Estimate;
use crate::strategy::SegmentationStrategy;
use crate::{EstimateError, InputSpec};

/// Configuration of the estimator.
///
/// The defaults reproduce the paper's setup: min-fill triangulation,
/// fan-in decomposition to ≤ 4, and automatic segmentation with a
/// 2¹⁷-state budget per segment's junction tree — the operating point
/// where evidence propagation runs in milliseconds (Table 1's "Update"
/// column) while per-node errors stay in the 10⁻³ band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Triangulation heuristic for junction-tree compilation.
    pub heuristic: Heuristic,
    /// How segment boundaries are placed. The default
    /// [`SegmentationStrategy::TopoCover`] is the paper's planner;
    /// balanced-cut search is opt-in. The strategy is hashed into the
    /// [`model_key`](crate::model_key), so artifacts and cache entries
    /// compiled under different strategies never mix.
    pub segmentation: SegmentationStrategy,
    /// Gates wider than this are decomposed into two-input trees first.
    pub max_fanin: usize,
    /// Per-segment junction-tree state budget; lower values mean more,
    /// smaller Bayesian networks (faster, slightly less exact).
    pub segment_budget: usize,
    /// Gates between segmentation cost checks (the budget may overshoot by
    /// up to this many gates' growth).
    pub check_interval: usize,
    /// Force a single Bayesian network over the whole circuit. Errors with
    /// [`EstimateError::TooLarge`] if `segment_budget` would be exceeded.
    pub single_bn: bool,
    /// Forward pairwise joints across segment boundaries: a boundary line
    /// whose sibling root was produced in the same earlier segment (and
    /// shares a clique there) enters as `P(line | sibling)` instead of an
    /// independent marginal. Recovers most of the correlation segmentation
    /// would otherwise drop; disable to reproduce the paper's plain
    /// marginal forwarding (ablation E6). Only the junction-tree backend
    /// can export pairwise joints, so other backends always forward plain
    /// marginals regardless of this flag.
    pub boundary_correlation: bool,
    /// Zero-compression policy for compiled clique potentials. Logic
    /// circuits produce LIDAG CPTs that are mostly deterministic, so clique
    /// tables carry large numbers of structural zeros; compressed cliques
    /// iterate only their nonzero support during propagation. The default
    /// [`SparseMode::Auto`] decides per clique on the measured nonzero
    /// count: a clique is compressed only when
    /// [`SPARSE_COST_PER_ENTRY`](swact_bayesnet::SPARSE_COST_PER_ENTRY)
    /// indexed loads per surviving entry beat one sequential load per
    /// dense entry. Results are bit-identical across modes.
    pub sparse: SparseMode,
    /// Which inference engine evaluates each segment's Bayesian network.
    /// The default [`Backend::Jtree`] is the paper's exact junction-tree
    /// propagation; [`Backend::Bdd`] computes per-segment switching
    /// exactly on OBDDs; [`Backend::Sampling`] is the anytime
    /// forward-sampling estimator with per-segment confidence intervals;
    /// [`Backend::TwoState`] is the classic signal-probability ablation
    /// with the `2p(1−p)` switching proxy.
    pub backend: Backend,
    /// Base seed for the deterministic sampling backend. Each segment
    /// derives its own stream from this seed and the segment's content
    /// hash, so results are bit-identical across job counts and warm/cold
    /// artifact loads. Hashed into the model key: artifacts compiled
    /// under different seeds never mix.
    pub seed: u64,
    /// Absolute confidence-interval half-width target on a sampled
    /// segment's mean gate switching activity — the [`Backend::Sampling`]
    /// stopping criterion. The sampler draws batches until the
    /// Burch/Najm normal-approximation interval is at most this wide (or
    /// the remaining [`Budget::deadline`] is spent, or the internal batch
    /// cap is hit), and reports the achieved half-width in the estimate's
    /// [`AccuracyReport`](crate::AccuracyReport).
    pub ci_half_width: f64,
    /// z-score of the sampling confidence level (1.96 ≈ 95 %).
    pub ci_z: f64,
    /// Hard resource limits (state-space cap, resident factor bytes,
    /// per-stage deadline) checked at stage boundaries. Unlimited by
    /// default; see [`Budget`] for the degradation ladder exceeding them
    /// triggers.
    pub budget: Budget,
    /// Disable the degradation ladder: budget exhaustion errors with
    /// [`EstimateError::BudgetExceeded`] instead of replanning or falling
    /// back to the `twostate` backend for the offending segment.
    pub no_fallback: bool,
    /// Reuse work across successive `estimate` calls on one compiled
    /// estimator: collect messages whose source subtree saw no evidence
    /// change are served from a per-edge cache, and whole segments whose
    /// root statistics are unchanged are served from a memoized posterior.
    /// Results are bit-identical (`f64::to_bits`) to cold propagation by
    /// construction; disable only to measure the cold baseline.
    pub incremental: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            heuristic: Heuristic::MinFill,
            segmentation: SegmentationStrategy::TopoCover,
            max_fanin: 4,
            segment_budget: 1 << 17,
            check_interval: 4,
            single_bn: false,
            boundary_correlation: true,
            sparse: SparseMode::Auto,
            backend: Backend::Jtree,
            seed: 0,
            ci_half_width: 0.01,
            ci_z: 1.96,
            budget: Budget::UNLIMITED,
            no_fallback: false,
            incremental: true,
        }
    }
}

impl Options {
    /// Options that force one exact Bayesian network over the whole
    /// circuit, with a 2²²-state memory guard (errors with
    /// [`EstimateError::TooLarge`] beyond it).
    pub fn single_bn() -> Options {
        Options {
            single_bn: true,
            segment_budget: 1 << 22,
            ..Options::default()
        }
    }

    /// Options with an explicit per-segment state budget.
    pub fn with_budget(segment_budget: usize) -> Options {
        Options {
            segment_budget,
            ..Options::default()
        }
    }

    /// Options with an explicit inference backend.
    pub fn with_backend(backend: Backend) -> Options {
        Options {
            backend,
            ..Options::default()
        }
    }

    /// Options with an explicit resource [`Budget`].
    pub fn with_resource_budget(budget: Budget) -> Options {
        Options {
            budget,
            ..Options::default()
        }
    }
}

/// One-shot estimation: compile the circuit's (possibly segmented)
/// LIDAG-BNs and propagate the given input statistics.
///
/// For repeated estimation under different statistics, build a
/// [`CompiledEstimator`] once and call
/// [`estimate`](CompiledEstimator::estimate) per spec — propagation is
/// orders of magnitude cheaper than compilation (paper Table 1, "Update"
/// vs "Total" columns).
///
/// # Errors
///
/// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec,
/// [`EstimateError::TooLarge`] in forced single-BN mode, and wrapped
/// circuit/BN errors.
///
/// # Example
///
/// See the [crate docs](crate).
pub fn estimate(
    circuit: &Circuit,
    spec: &InputSpec,
    options: &Options,
) -> Result<Estimate, EstimateError> {
    let compiled = CompiledEstimator::compile_for(circuit, spec, options)?;
    compiled.estimate(spec)
}

/// A circuit whose segment Bayesian networks and junction trees have been
/// compiled once and can be re-propagated cheaply for any input statistics.
///
/// # Example
///
/// ```
/// use swact::{CompiledEstimator, InputSpec, Options};
/// use swact_circuit::catalog;
///
/// # fn main() -> Result<(), swact::EstimateError> {
/// let c17 = catalog::c17();
/// let compiled = CompiledEstimator::compile(&c17, &Options::default())?;
/// let uniform = compiled.estimate(&InputSpec::uniform(5))?;
/// let biased = compiled.estimate(&InputSpec::independent(vec![0.9; 5]))?;
/// assert_ne!(
///     uniform.switching(c17.outputs()[0]),
///     biased.switching(c17.outputs()[0]),
/// );
/// # Ok(())
/// # }
/// ```
pub struct CompiledEstimator {
    pipeline: CompiledPipeline,
}

impl std::fmt::Debug for CompiledEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEstimator")
            .field(
                "working_lines",
                &self.pipeline.working_circuit().num_lines(),
            )
            .field("segments", &self.pipeline.num_segments())
            .field("total_states", &self.pipeline.total_states())
            .field("compile_time", &self.pipeline.compile_time())
            .finish()
    }
}

impl CompiledEstimator {
    /// Wraps a pipeline reconstructed from a persisted artifact.
    pub(crate) fn from_pipeline(pipeline: CompiledPipeline) -> CompiledEstimator {
        CompiledEstimator { pipeline }
    }

    /// The underlying pipeline, for the artifact encoder.
    pub(crate) fn pipeline(&self) -> &CompiledPipeline {
        &self.pipeline
    }

    /// Compiles the circuit: fan-in decomposition, segmentation planning,
    /// per-segment LIDAG construction, and backend compilation (junction
    /// trees for the default [`Backend::Jtree`]).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::TooLarge`] when `options.single_bn` is set
    /// and the whole-circuit tree exceeds the budget, or wrapped
    /// circuit/BN errors.
    pub fn compile(
        circuit: &Circuit,
        options: &Options,
    ) -> Result<CompiledEstimator, EstimateError> {
        Ok(CompiledEstimator {
            pipeline: CompiledPipeline::compile(circuit, None, options)?,
        })
    }

    /// Compiles the circuit *for a given input specification*: in addition
    /// to everything [`compile`](CompiledEstimator::compile) does, members
    /// of the spec's [`InputGroup`](crate::InputGroup)s are chained inside
    /// every segment so their spatial correlation is modeled exactly
    /// (pairwise). The group *membership* becomes part of the compiled
    /// structure; later [`estimate`](CompiledEstimator::estimate) calls may
    /// change all probabilities but must keep the same groups.
    ///
    /// # Errors
    ///
    /// Same as [`compile`](CompiledEstimator::compile), plus
    /// [`EstimateError::BackendUnsupported`] when the spec uses input
    /// groups or pairwise joints with a non-junction-tree backend.
    pub fn compile_for(
        circuit: &Circuit,
        spec: &InputSpec,
        options: &Options,
    ) -> Result<CompiledEstimator, EstimateError> {
        Ok(CompiledEstimator {
            pipeline: CompiledPipeline::compile(circuit, Some(spec), options)?,
        })
    }

    /// Propagates `spec` through the compiled trees and collects per-line
    /// transition distributions.
    ///
    /// Takes `&self`: the compiled trees are immutable and each
    /// propagation works on its own pooled propagation state, so sessions
    /// may run concurrently from multiple threads over one compiled
    /// estimator (the `swact-engine` crate builds on exactly this).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec.
    pub fn estimate(&self, spec: &InputSpec) -> Result<Estimate, EstimateError> {
        Ok(self.estimate_with_line_joints(spec, &[])?.0)
    }

    /// Like [`estimate`](CompiledEstimator::estimate), but additionally
    /// returns the estimated 4×4 joint transition distribution for each
    /// requested (original-circuit) line pair — `None` when the two lines
    /// never share a segment's Bayesian network (their joint is then
    /// simply the product of marginals under this model) or when the
    /// backend cannot compute pairwise joints (only [`Backend::Jtree`]
    /// can). Joints come from exact pairwise marginalization over the
    /// first segment containing both lines.
    ///
    /// The sequential estimator uses this to feed register-pair
    /// correlation back between fixed-point iterations.
    ///
    /// # Errors
    ///
    /// Same as [`estimate`](CompiledEstimator::estimate).
    #[allow(clippy::type_complexity)]
    pub fn estimate_with_line_joints(
        &self,
        spec: &InputSpec,
        line_pairs: &[(LineId, LineId)],
    ) -> Result<(Estimate, Vec<Option<[[f64; 4]; 4]>>), EstimateError> {
        self.pipeline.estimate_with_line_joints(spec, line_pairs)
    }

    /// The working (fan-in-decomposed) circuit the estimator runs over.
    pub fn working_circuit(&self) -> &Circuit {
        self.pipeline.working_circuit()
    }

    /// Number of segments (Bayesian networks) the circuit was split into.
    pub fn num_segments(&self) -> usize {
        self.pipeline.num_segments()
    }

    /// Compilation wall-clock time.
    pub fn compile_time(&self) -> Duration {
        self.pipeline.compile_time()
    }

    /// Total junction-tree state count across segments.
    pub fn total_states(&self) -> f64 {
        self.pipeline.total_states()
    }

    /// Largest clique state count across segments.
    pub fn max_clique_states(&self) -> f64 {
        self.pipeline.max_clique_states()
    }

    /// Total number of nonzero initial clique-potential entries across
    /// segments — the work the propagation hot path actually touches once
    /// zero-compressed cliques skip their structural zeros.
    pub fn nnz(&self) -> usize {
        self.pipeline.nnz()
    }

    /// Fraction of compiled clique-potential entries that are structural
    /// zeros (deterministic-CPT induced); `0.0` for an empty estimator.
    pub fn zero_fraction(&self) -> f64 {
        self.pipeline.zero_fraction()
    }

    /// Number of cliques stored in zero-compressed form.
    pub fn compressed_cliques(&self) -> usize {
        self.pipeline.compressed_cliques()
    }

    /// Cost-model estimate of one propagation sweep across all segments,
    /// in weighted table loads: dense cliques pay one sequential load per
    /// state, zero-compressed cliques pay `SPARSE_COST_PER_ENTRY` indexed
    /// loads per surviving entry. [`SparseMode`](crate::SparseMode)`::Auto`
    /// minimizes this per clique, so its total never exceeds
    /// `SparseMode::Off`'s — the invariant the c880 regression test pins.
    pub fn kernel_cost(&self) -> usize {
        self.pipeline.kernel_cost()
    }

    /// The options the estimator was compiled with.
    pub fn options(&self) -> &Options {
        self.pipeline.options()
    }

    /// The inference backend the estimator was compiled with.
    pub fn backend(&self) -> Backend {
        self.pipeline.backend()
    }

    /// Compile-side stage breakdown (`plan`/`model`/`compile`; the
    /// propagation-side stages are zero here and filled per
    /// [`Estimate`](crate::Estimate)).
    pub fn stage_timings(&self) -> StageTimings {
        self.pipeline.stage_timings()
    }

    /// Per-segment model/compile times.
    pub fn segment_timings(&self) -> &[SegmentTimings] {
        self.pipeline.segment_timings()
    }

    /// Number of boundary roots entering later segments with a forwarded
    /// pairwise joint (vs. an independent marginal).
    pub fn num_correlated_boundaries(&self) -> usize {
        self.pipeline.num_correlated_boundaries()
    }

    /// Number of dependency waves segments are scheduled into; segments
    /// within a wave propagate on separate threads.
    pub fn num_waves(&self) -> usize {
        self.pipeline.num_waves()
    }

    /// Total number of boundary-root connections across segments.
    pub fn num_boundary_roots(&self) -> usize {
        self.pipeline.num_boundary_roots()
    }

    /// Per-segment degradation records from the compile-time budget
    /// ladder; empty when every segment compiled within budget.
    pub fn degradations(&self) -> &[DegradationReport] {
        self.pipeline.degradations()
    }

    /// Number of segments evaluated by the anytime sampling backend,
    /// whether selected as the primary backend or reached via the
    /// degradation ladder.
    pub fn sampled_segments(&self) -> usize {
        self.pipeline.sampled_segments()
    }
}
