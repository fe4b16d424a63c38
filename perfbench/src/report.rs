//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("cold_corpus_s", "s"),
    ("cold_geomean_ms", "ms"),
    ("warm_start_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("latency_ms_mean", "ms"),
    ("latency_ms_p95", "ms"),
    ("mean_abs_err", "prob"),
    ("sigma_err", "prob"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, each a workload total.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("circuit.build_s", "s"),
    ("sim.truth_s", "s"),
    ("compile.s", "s"),
    ("plan.s", "s"),
    ("plan.segments", "count"),
    ("plan.boundary_roots", "count"),
    ("plan.est_states", "states"),
    ("model.s", "s"),
    ("moralize.s", "s"),
    ("triangulate.s", "s"),
    ("triangulate.fill_edges", "count"),
    ("jtree.build_s", "s"),
    ("jtree.cliques", "count"),
    ("jtree.total_states", "states"),
    ("jtree.max_clique_states", "states"),
    ("potinit.s", "s"),
    ("tree_compile.s", "s"),
    ("sparse.compressed_cliques", "count"),
    ("sparse.nnz", "count"),
    ("calibrate.s", "s"),
    ("estimate.s", "s"),
    ("estimate.propagate_s", "s"),
    ("estimate.forward_s", "s"),
    ("incremental.messages_reused", "count"),
    ("incremental.messages_recomputed", "count"),
    ("incremental.reuse_ratio", "ratio"),
    ("incremental.segments_skipped", "count"),
    ("incremental.skip_ratio", "ratio"),
    ("artifact.encode_s", "s"),
    ("artifact.decode_s", "s"),
    ("artifact.bytes", "bytes"),
    ("engine.batch_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.compile_uncovered_frac", "ratio"),
];

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit, in `names` order.
/// A metric the run could not measure reads 0.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().filter(|v| v.is_finite());
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value.unwrap_or(0.0)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `(key, value)` pairs whose values are already JSON.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number as JSON (`null` otherwise).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of `key` in one `BENCHMARK.json` section, in file order.
    fn section_values(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("a string value") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (section, emitted) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = emitted.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = emitted.iter().map(|(_, u)| *u).collect();
            assert_eq!(section_values(&json, section, "name"), names, "{section}");
            assert_eq!(section_values(&json, section, "unit"), units, "{section}");
        }
        assert_eq!(section_values(&json, "workloads", "name"), crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.25);
        let line = result_line(3, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(result_line(3, 1, &END_TO_END, &values).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
