//! Layer probe: rebuilds one circuit's compile path from the layers'
//! public functions, one span per call, so the traced run can split cold
//! time by layer without instrumenting the program itself.
//!
//! The probe builds segment models without boundary-correlation parents
//! (`SegmentModel::build`), while `CompiledEstimator::compile` picks them
//! internally; the traced run reports how much of the real compile the
//! probe's layer spans do not cover.

use swact::pipeline::{PlannedCircuit, SegmentModel};
use swact::{EstimateError, Options};
use swact_bayesnet::{graph, initial_potentials, triangulate, CompiledTree, JunctionTree};
use swact_circuit::Circuit;

use crate::trace::Tracer;

/// The probe's layer spans that together stand in for one compile
/// (`jtree` already includes its own moralization and triangulation).
pub const COMPILE_LAYERS: [&str; 5] = ["plan", "model", "jtree", "potinit", "tree_compile"];

/// Probes `circuit` inside a `probe` request, recording the layer spans
/// and the plan, junction-tree and sparse counts.
pub fn probe(
    tracer: &Tracer,
    index: usize,
    circuit: &Circuit,
    options: &Options,
) -> Result<(), EstimateError> {
    tracer.request("probe", index, || {
        let planned = tracer.span("plan", || PlannedCircuit::new(circuit, options))?;
        let plan = planned.plan();
        tracer.count(index, "plan.segments", planned.num_segments() as f64);
        tracer.count(index, "plan.boundary_roots", plan.boundary_roots() as f64);
        let costs = tracer.span("plan_costs", || {
            plan.estimated_costs(planned.working(), 4, options.heuristic)
        });
        tracer.count(index, "plan.est_states", costs.iter().sum());
        for segment in 0..planned.num_segments() {
            let model = tracer.span("model", || SegmentModel::build(&planned, segment, 0))?;
            let net = model.net();
            let moral = tracer.span("moralize", || graph::moral_graph(net));
            let tri = tracer.span("triangulate", || {
                triangulate::triangulate(&moral, &net.cards(), options.heuristic)
            });
            tracer.count(index, "triangulate.fill_edges", tri.fill_edges as f64);
            let tree = tracer.span("jtree", || {
                JunctionTree::compile_with(net, options.heuristic)
            })?;
            tracer.count(index, "jtree.cliques", tree.num_cliques() as f64);
            tracer.count(index, "jtree.total_states", tree.total_states());
            tracer.count_max(index, "jtree.max_clique_states", tree.max_clique_states());
            let potentials = tracer.span("potinit", || initial_potentials(&tree, net));
            let compiled = tracer.span("tree_compile", || {
                CompiledTree::from_parts_with(tree, potentials, options.sparse)
            });
            tracer.count(index, "sparse.nnz", compiled.nnz() as f64);
            tracer.count(
                index,
                "sparse.compressed_cliques",
                compiled.compressed_cliques() as f64,
            );
            let mut state = compiled.new_state();
            tracer.span("calibrate", || compiled.calibrate(&mut state));
        }
        Ok(())
    })
}
