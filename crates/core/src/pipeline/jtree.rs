//! The junction-tree (HUGIN) inference backend — the paper's method and
//! the default.

use std::sync::Mutex;

use swact_bayesnet::{
    initial_potentials, CompiledTree, Factor, JunctionTree, MessageCache, PropagationState, VarId,
};
use swact_circuit::LineId;

use crate::estimator::Options;
use crate::pipeline::backend::{
    CompiledSegment, InferenceBackend, RootDists, SegmentPosterior, SegmentStats,
};
use crate::pipeline::model::{InputPair, PairRoot, SegmentModel};
use crate::segment::RootSource;
use crate::{EstimateError, InputSpec, TransitionDist};

/// Exact junction-tree propagation over the 4-state LIDAG. Supports input
/// groups, explicit pairwise joints, and boundary-correlation forwarding —
/// the only backend that can export pairwise joints across segment
/// boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct JtreeBackend;

/// The junction-tree propagation artifact of one segment.
pub(crate) struct JtreeSegment {
    /// The immutable propagation artifact: junction tree, message
    /// schedule, and initial clique potentials with *uniform* root priors
    /// baked in; the actual priors are injected per estimate as likelihood
    /// weights (mathematically identical, but reuses this cached product).
    pub(crate) compiled: CompiledTree,
    /// Reusable per-request propagation states. Each propagate call pops
    /// one (or creates one on first use), propagates, and returns it, so
    /// steady-state estimation allocates no fresh potentials — the piece
    /// that makes concurrent batch estimation over one compile cheap.
    pub(crate) states: Mutex<Vec<PropagationState>>,
    /// Shared per-edge collect-message cache: concurrent and consecutive
    /// propagations over this compile reuse messages whose evidence
    /// dependencies are bit-identical. Lives (and is evicted) with the
    /// compiled artifact.
    pub(crate) msg_cache: MessageCache,
    /// Whether propagations may *read* the message cache (baked in from
    /// [`Options::incremental`] at compile time, since `propagate` has no
    /// options parameter).
    pub(crate) incremental: bool,
    /// Whether this segment touches the message cache *at all*. Tiny
    /// single-clique segments (c17-scale) spend more on hashing evidence
    /// signatures per edge than a full recompute costs, so when the
    /// compiled tree's own cost model says hashing cannot pay for itself
    /// the segment propagates with plain [`CompiledTree::calibrate`] —
    /// bit-identical to the cached path by construction, warm ≡ cold
    /// trivially.
    pub(crate) cache_worthwhile: bool,
    pub(crate) solo_roots: Vec<(LineId, VarId, RootSource)>,
    pub(crate) pair_roots: Vec<PairRoot>,
    pub(crate) input_pairs: Vec<InputPair>,
    pub(crate) gates: Vec<(LineId, VarId)>,
}

/// The 4×4 conditional rows `P(child | parent)` a grouped or explicitly
/// paired primary-input pair injects — shared by `propagate` (which
/// multiplies them in) and `root_signature` (which hashes them).
fn input_pair_rows(spec: &InputSpec, pair: &InputPair) -> [[f64; 4]; 4] {
    match pair.group {
        Some(group) => {
            let joint = spec.groups()[group]
                .member_pair_joint(spec.model(pair.parent_pos), spec.model(pair.child_pos));
            let mut rows = [[0.25f64; 4]; 4];
            for (a, row) in joint.iter().enumerate() {
                let mass: f64 = row.iter().sum();
                if mass > 0.0 {
                    for (b, &p) in row.iter().enumerate() {
                        rows[a][b] = p / mass;
                    }
                }
            }
            rows
        }
        None => spec
            .pair_conditioning(pair.child_pos)
            .expect("signature guarantees the pair exists")
            .conditional_rows(),
    }
}

impl InferenceBackend for JtreeBackend {
    fn name(&self) -> &'static str {
        "jtree"
    }

    fn compile(
        &self,
        model: &SegmentModel,
        options: &Options,
    ) -> Result<CompiledSegment, EstimateError> {
        let tree = JunctionTree::compile_with(&model.net, options.heuristic)?;
        // Boundary-correlation edges can widen the tree; report a severe
        // blowup so the driver can fall back to plain marginal forwarding
        // for this segment (keeping the planned budget meaningful) —
        // crucially *before* materializing the oversized potentials.
        let states = tree.total_states();
        if !model.pair_roots.is_empty()
            && !options.single_bn
            && states > 4.0 * options.segment_budget as f64
        {
            return Err(EstimateError::CorrelationBlowup {
                states,
                budget: options.segment_budget as f64,
            });
        }
        if options.single_bn && states > options.segment_budget as f64 {
            return Err(EstimateError::TooLarge {
                states,
                budget: options.segment_budget as f64,
            });
        }
        let max_clique_states = tree.max_clique_states();
        let init_potentials = initial_potentials(&tree, &model.net);
        let compiled = CompiledTree::from_parts_with(tree, init_potentials, options.sparse);
        let stats = SegmentStats {
            total_states: states,
            max_clique_states,
            nnz: compiled.nnz(),
            state_space: compiled.state_space(),
            compressed_cliques: compiled.compressed_cliques(),
            kernel_cost: compiled.kernel_cost(),
        };
        let msg_cache = compiled.new_message_cache();
        let cache_worthwhile = compiled.message_cache_worthwhile();
        Ok(CompiledSegment::new(
            Box::new(JtreeSegment {
                compiled,
                states: Mutex::new(Vec::new()),
                msg_cache,
                incremental: options.incremental,
                cache_worthwhile,
                solo_roots: model.solo_roots.clone(),
                pair_roots: model.pair_roots.clone(),
                input_pairs: model.input_pairs.clone(),
                gates: model.gates.clone(),
            }),
            stats,
            model.line_vars.clone(),
        ))
    }

    /// Initializes, calibrates, and reads out one segment's Bayesian
    /// network. Pure with respect to the global state (reads the forwarded
    /// `roots`, returns its contributions), so segments within a wave can
    /// run on separate threads.
    fn propagate(
        &self,
        segment: &CompiledSegment,
        roots: &RootDists<'_>,
    ) -> Result<SegmentPosterior, EstimateError> {
        let art = segment
            .artifact()
            .downcast_ref::<JtreeSegment>()
            .expect("jtree backend propagates jtree artifacts");
        let spec = roots.spec;
        let compiled = &art.compiled;
        // Reuse a pooled per-request state when one is available; its
        // buffers survive across requests, so a warm pool propagates
        // without allocating new potentials.
        let mut state = {
            let mut pool = art.states.lock().expect("state pool lock");
            pool.pop()
        }
        .unwrap_or_else(|| compiled.new_state());
        state.clear_evidence();
        // The cached potentials carry uniform (1/4) root priors; weighting
        // state s by 4*P(s) as likelihood evidence reproduces the exact
        // prior after normalization.
        for &(line, var, source) in &art.solo_roots {
            let prior = match source {
                RootSource::PrimaryInput(pos) => spec.prior_row(pos),
                RootSource::Boundary => roots.dists[line.index()].as_array().to_vec(),
            };
            compiled.set_likelihood(&mut state, var, prior.iter().map(|p| 4.0 * p).collect())?;
        }
        // Grouped primary inputs: inject 4*P(child | parent) from the
        // closed-form pair joint of the group model; explicitly paired
        // inputs take their conditional from the spec.
        for pair in &art.input_pairs {
            let rows = input_pair_rows(spec, pair);
            let mut values = Vec::with_capacity(16);
            for row in &rows {
                for &conditional in row {
                    values.push(4.0 * conditional);
                }
            }
            debug_assert!(pair.parent_var < pair.var);
            compiled.insert_factor(
                &mut state,
                Factor::new(vec![(pair.parent_var, 4), (pair.var, 4)], values),
            )?;
        }
        // Correlated boundary roots: multiply 4*P(c|p) over the cached
        // uniform conditional, restoring the producer's pairwise joint.
        for pair in &art.pair_roots {
            let cond = roots.conditionals[pair.slot].expect("producer wave precedes consumers");
            debug_assert!(
                pair.parent_var < pair.var,
                "children are added after parents"
            );
            let values: Vec<f64> = cond.iter().map(|&p| 4.0 * p).collect();
            compiled.insert_factor(
                &mut state,
                Factor::new(vec![(pair.parent_var, 4), (pair.var, 4)], values),
            )?;
        }
        // Incremental propagation may reuse cached collect messages
        // (bit-identical by construction); with it off the calibration runs
        // cold but still refreshes the cache. Segments whose compiled cost
        // model says evidence-signature hashing outweighs the recompute it
        // saves bypass the cache machinery entirely.
        let (messages_reused, messages_recomputed) = if art.cache_worthwhile {
            compiled.calibrate_with_cache(&mut state, &art.msg_cache, art.incremental)
        } else {
            compiled.calibrate(&mut state);
            (0, 0)
        };
        let gate_dists = art
            .gates
            .iter()
            .map(|&(line, var)| {
                let m = compiled.marginal(&state, var);
                (line, TransitionDist::new([m[0], m[1], m[2], m[3]]))
            })
            .collect();
        // Serve requested line-pair joints from this segment.
        let mut joints = Vec::new();
        for &(var_a, var_b, idx) in roots.joint_requests {
            if var_a == var_b {
                continue;
            }
            if let Some(joint) = compiled.pairwise_marginal(&mut state, var_a, var_b) {
                let a_first = joint.vars()[0] == var_a;
                let mut out = [[0.0f64; 4]; 4];
                for (a_state, row) in out.iter_mut().enumerate() {
                    for (b_state, slot) in row.iter_mut().enumerate() {
                        let k = if a_first {
                            a_state * 4 + b_state
                        } else {
                            b_state * 4 + a_state
                        };
                        *slot = joint.values()[k];
                    }
                }
                joints.push((idx, out));
            }
        }
        // Export pairwise joints for later segments.
        let mut exports = Vec::new();
        for export in roots.exports {
            let joint = compiled
                .pairwise_marginal(&mut state, export.parent_var, export.child_var)
                .expect("export pairs share a component by construction");
            let parent_first = joint.vars()[0] == export.parent_var;
            let mut cond = [0.0f64; 16];
            for p in 0..4 {
                let mut row = [0.0f64; 4];
                for (c, slot) in row.iter_mut().enumerate() {
                    let idx = if parent_first { p * 4 + c } else { c * 4 + p };
                    *slot = joint.values()[idx];
                }
                let mass: f64 = row.iter().sum();
                for (c, &v) in row.iter().enumerate() {
                    // Zero-mass parent states get a uniform row; they never
                    // matter because P(parent = p) is zero.
                    cond[p * 4 + c] = if mass > 0.0 { v / mass } else { 0.25 };
                }
            }
            exports.push((export.slot, cond));
        }
        art.states.lock().expect("state pool lock").push(state);
        Ok(SegmentPosterior {
            gate_dists,
            exports,
            joints,
            messages_reused,
            messages_recomputed,
            accuracy: None,
        })
    }

    /// Hashes exactly what `propagate` reads from `roots`: solo-root
    /// priors (spec rows for primary inputs, forwarded marginals for
    /// boundary lines), input-pair conditional rows, forwarded boundary
    /// conditionals, and the joint requests routed to this segment. Equal
    /// signatures therefore guarantee bit-identical posteriors.
    fn root_signature(&self, segment: &CompiledSegment, roots: &RootDists<'_>) -> Option<u128> {
        let art = segment.artifact().downcast_ref::<JtreeSegment>()?;
        let spec = roots.spec;
        let mut h = sig::OFFSET;
        for &(line, _, source) in &art.solo_roots {
            h = sig::word(h, line.index() as u64);
            match source {
                RootSource::PrimaryInput(pos) => {
                    for p in spec.prior_row(pos) {
                        h = sig::word(h, p.to_bits());
                    }
                }
                RootSource::Boundary => {
                    for p in roots.dists[line.index()].as_array() {
                        h = sig::word(h, p.to_bits());
                    }
                }
            }
        }
        for pair in &art.input_pairs {
            h = sig::word(h, pair.child_pos as u64);
            for row in input_pair_rows(spec, pair) {
                for p in row {
                    h = sig::word(h, p.to_bits());
                }
            }
        }
        for pair in &art.pair_roots {
            h = sig::word(h, pair.slot as u64);
            let cond = roots.conditionals[pair.slot]?;
            for p in cond {
                h = sig::word(h, p.to_bits());
            }
        }
        for &(var_a, var_b, idx) in roots.joint_requests {
            h = sig::word(h, var_a.index() as u64);
            h = sig::word(h, var_b.index() as u64);
            h = sig::word(h, idx as u64);
        }
        Some(h)
    }

    fn correlation_distance(
        &self,
        segment: &CompiledSegment,
        child: LineId,
        candidate: LineId,
    ) -> Option<usize> {
        let art = segment.artifact().downcast_ref::<JtreeSegment>()?;
        let child_var = *segment.lines().get(&child)?;
        let cand_var = *segment.lines().get(&candidate)?;
        let tree = art.compiled.tree();
        tree.clique_distance(tree.home_clique(child_var), tree.home_clique(cand_var))
    }
}

/// 128-bit FNV-1a for root signatures. Wide enough that an accidental
/// collision (which would silently serve a stale posterior) is out of
/// reach for any realistic sweep length.
mod sig {
    pub(super) const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    pub(super) fn word(mut h: u128, word: u64) -> u128 {
        for byte in word.to_le_bytes() {
            h ^= u128::from(byte);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}
