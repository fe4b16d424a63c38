//! Dependency-preserving switching-activity estimation with Bayesian
//! networks — a faithful reimplementation of Bhanja & Ranganathan,
//! *"Dependency Preserving Probabilistic Modeling of Switching Activity
//! using Bayesian Networks"*, DAC 2001.
//!
//! # The method
//!
//! Every signal line of a combinational circuit becomes a random variable
//! with four states — the [`Transition`]s `x00, x01, x10, x11` of its value
//! across one clock boundary, so *temporal* correlation lives in the state
//! space itself. The **LIDAG** (Logic-Induced Directed Acyclic Graph) wires
//! each gate output's transition variable to its input lines' variables;
//! the paper's Theorem 3 shows the LIDAG is a minimal I-map of the
//! switching dependency model — i.e. an exact Bayesian network that
//! preserves *all* spatial (reconvergent-fanout) and spatio-temporal
//! dependence. Gate CPTs are deterministic, read off the gate's truth table
//! at clocks *t−1* and *t*.
//!
//! Inference is exact junction-tree propagation (`swact-bayesnet`); large
//! circuits are split into **multiple BNs** processed in topological order
//! with boundary-line marginals forwarded between segments, reproducing the
//! paper's scalability strategy — and its only error source.
//!
//! # Quick start
//!
//! ```
//! use swact::{estimate, InputSpec, Options};
//! use swact_circuit::catalog;
//!
//! # fn main() -> Result<(), swact::EstimateError> {
//! let c17 = catalog::c17();
//! let spec = InputSpec::uniform(c17.num_inputs());
//! let estimate = estimate(&c17, &spec, &Options::default())?;
//!
//! for line in c17.line_ids() {
//!     let sw = estimate.switching(line);
//!     assert!((0.0..=1.0).contains(&sw));
//! }
//! // c17 fits in a single Bayesian network ⇒ the estimate is exact.
//! assert_eq!(estimate.num_segments(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! Re-estimating under different input statistics reuses the compiled
//! junction trees — the paper's precompile-once/propagate-often workflow —
//! via [`CompiledEstimator`].

pub mod artifact;
mod budget;
mod error;
mod estimator;
pub mod faults;
mod input;
mod lidag;
pub mod pipeline;
mod power;
mod report;
mod segment;
pub mod sequential;
mod strategy;
mod transition;
pub mod wire;

pub use artifact::{model_key, ArtifactError, ArtifactHeader};
pub use budget::{Budget, DegradationCause, DegradationReport, Fallback};
pub use error::EstimateError;
pub use estimator::{estimate, CompiledEstimator, Options};
pub use input::{most_likely, InputGroup, InputModel, InputSpec, PairwiseJoint};
pub use lidag::{gate_cpt, gate_family, Lidag};
pub use pipeline::{Backend, SegmentTimings, StageTimings};
pub use power::{PowerModel, PowerReport};
pub use report::{AccuracyReport, ErrorStats, Estimate, ReuseStats};
pub use segment::{RootSource, Segment, SegmentationPlan};
pub use strategy::SegmentationStrategy;
pub use swact_bayesnet::SparseMode;
pub use transition::{Transition, TransitionDist};
