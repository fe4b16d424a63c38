//! Per-layer metrics of the traced run: self time per span name, the
//! counts recorded at the same boundaries, and a per-circuit breakdown of
//! which layer dominates cold and warm time.

use std::collections::BTreeMap;

use crate::probe::COMPILE_LAYERS;
use crate::report::{json_num, json_object, json_str};
use crate::trace::{self_seconds, self_seconds_by_circuit, Tracer};

/// Turns the traced run's spans and counts into the per-layer metrics
/// and the per-circuit breakdown (JSON), for circuits named `circuits`.
pub(crate) fn layer_metrics(
    tracer: &Tracer,
    circuits: &[&str],
    overhead_pct: f64,
) -> (BTreeMap<&'static str, f64>, String) {
    let spans = tracer.spans();
    let seconds = self_seconds(&spans);
    let by_circuit = self_seconds_by_circuit(&spans);
    let by_circuit_counts = tracer.counts();
    let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
    for (&(_, name), &value) in &by_circuit_counts {
        let total = counts.entry(name).or_insert(0.0);
        *total = if name == "jtree.max_clique_states" {
            total.max(value)
        } else {
            *total + value
        };
    }
    let secs = |name: &str| seconds.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("circuit.build_s", "circuit"),
        ("sim.truth_s", "sim"),
        ("compile.s", "compile"),
        ("plan.s", "plan"),
        ("model.s", "model"),
        ("moralize.s", "moralize"),
        ("triangulate.s", "triangulate"),
        ("potinit.s", "potinit"),
        ("tree_compile.s", "tree_compile"),
        ("calibrate.s", "calibrate"),
        ("estimate.s", "estimate"),
        ("artifact.encode_s", "encode"),
        ("artifact.decode_s", "decode"),
        ("engine.batch_s", "batch"),
    ] {
        m.insert(metric, secs(span));
    }
    m.insert(
        "jtree.build_s",
        (secs("jtree") - secs("moralize") - secs("triangulate")).max(0.0),
    );
    for name in [
        "plan.segments",
        "plan.boundary_roots",
        "plan.est_states",
        "triangulate.fill_edges",
        "jtree.cliques",
        "jtree.total_states",
        "jtree.max_clique_states",
        "sparse.compressed_cliques",
        "sparse.nnz",
        "estimate.propagate_s",
        "estimate.forward_s",
        "incremental.messages_reused",
        "incremental.messages_recomputed",
        "incremental.segments_skipped",
        "artifact.bytes",
        "engine.queue_wait_s",
        "engine.cache_hits",
        "engine.cache_misses",
    ] {
        m.insert(name, count(name));
    }
    let reused = count("incremental.messages_reused");
    let recomputed = count("incremental.messages_recomputed");
    m.insert(
        "incremental.reuse_ratio",
        ratio(reused, reused + recomputed),
    );
    m.insert(
        "incremental.skip_ratio",
        ratio(
            count("incremental.segments_skipped"),
            count("incremental.segments"),
        ),
    );
    m.insert("trace.overhead_pct", overhead_pct);

    // Per circuit: mean compile wall time against the probe's layer
    // spans, and which layer dominates cold and warm.
    let mut rows = Vec::new();
    let (mut covered, mut compiled) = (0.0, 0.0);
    for (index, &name) in circuits.iter().enumerate() {
        let layer = |span: &str| by_circuit.get(&(index, span)).copied().unwrap_or(0.0);
        let compiles = spans
            .iter()
            .filter(|s| s.circuit == index && s.name == "compile")
            .count();
        let compile_s = layer("compile") / compiles.max(1) as f64;
        let probe_s: f64 = COMPILE_LAYERS.iter().map(|l| layer(l)).sum();
        covered += probe_s;
        compiled += compile_s;
        let cold = [
            ("plan", layer("plan")),
            ("model", layer("model")),
            ("moralize", layer("moralize")),
            ("triangulate", layer("triangulate")),
            (
                "jtree_build",
                (layer("jtree") - layer("moralize") - layer("triangulate")).max(0.0),
            ),
            ("potinit", layer("potinit")),
            ("tree_compile", layer("tree_compile")),
        ];
        let counted = |name: &str| {
            by_circuit_counts
                .get(&(index, name))
                .copied()
                .unwrap_or(0.0)
        };
        let warm = [
            ("propagate", counted("estimate.propagate_s")),
            ("forward", counted("estimate.forward_s")),
            ("queue_wait", counted("engine.queue_wait_s")),
        ];
        rows.push(json_object(&[
            ("circuit", json_str(name)),
            ("compile_s", json_num(compile_s)),
            (
                "compile_uncovered_frac",
                json_num(1.0 - ratio(probe_s, compile_s)),
            ),
            ("cold_layers_s", layers_json(&cold)),
            ("cold_dominant", json_str(dominant(&cold))),
            ("warm_layers_s", layers_json(&warm)),
            ("warm_dominant", json_str(dominant(&warm))),
            ("calibrate_once_s", json_num(layer("calibrate"))),
        ]));
    }
    m.insert(
        "trace.compile_uncovered_frac",
        1.0 - ratio(covered, compiled),
    );
    (m, format!("[{}]", rows.join(", ")))
}

fn layers_json(layers: &[(&str, f64)]) -> String {
    let fields: Vec<(&str, String)> = layers
        .iter()
        .map(|&(name, secs)| (name, json_num(secs)))
        .collect();
    json_object(&fields)
}

fn dominant<'n>(layers: &[(&'n str, f64)]) -> &'n str {
    layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |l| l.0)
}
