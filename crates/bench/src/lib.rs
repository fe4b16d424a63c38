//! Experiment harness regenerating every table and figure of Bhanja &
//! Ranganathan (DAC 2001).
//!
//! The binaries in `src/bin` print the paper's artifacts:
//!
//! * `table1` — Table 1: per-circuit switching-accuracy and timing of the
//!   Bayesian-network estimator against logic-simulation ground truth;
//! * `table2` — Table 2: accuracy/time comparison against the prior-art
//!   estimators in `swact-baselines`;
//! * `figures` — Figures 1–4: the running example circuit, its LIDAG-BN,
//!   the triangulated moral graph, and the junction tree, as Graphviz DOT;
//! * `ablation` — the design-choice studies indexed in DESIGN.md
//!   (segmentation budget, boundary correlation, triangulation heuristic,
//!   two- vs four-state variables, input-correlation sensitivity);
//! * `sparse_report` — propagate-only time under `SparseMode::Off` vs
//!   `SparseMode::Auto`, written to `BENCH_sparse.json`;
//! * `sweep_report` — a single-input sweep with incremental reuse off vs
//!   on, written to `BENCH_sweep.json`;
//! * `anytime_report` — sampling-backend error and time against the
//!   confidence-interval target, written to `BENCH_anytime.json`.
//!
//! End-to-end and per-layer performance is measured by the separate
//! `perfbench` package at the repository root.
//!
//! The Criterion benches in `benches/` measure the compile/propagate split
//! (paper §6's "circuits can be precompiled; only propagation has to be
//! done for different input statistics") and the core kernels.

use std::fmt::Write as _;
use std::time::Instant;

use swact::{CompiledEstimator, ErrorStats, InputSpec, Options};
use swact_baselines::SwitchingEstimator;
use swact_circuit::{catalog, Circuit};
use swact_sim::{measure_activity, StreamModel};

/// Default number of simulated vector pairs for ground truth.
pub const DEFAULT_PAIRS: usize = 1 << 20;

/// Ground-truth seed shared by all experiments (reported results are
/// deterministic).
pub const GROUND_TRUTH_SEED: u64 = 0x5eed_2001;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub circuit: String,
    /// Gates in the (original) circuit.
    pub gates: usize,
    /// Segments (Bayesian networks) used.
    pub segments: usize,
    /// Mean absolute per-node error vs simulation (µErr).
    pub mean_err: f64,
    /// Standard deviation of the per-node error (σErr).
    pub std_err: f64,
    /// Percent error of the circuit-average activity (%Error).
    pub pct_err: f64,
    /// Compile + propagate wall clock, seconds ("Total").
    pub total_s: f64,
    /// Propagate-only wall clock, seconds ("Update").
    pub update_s: f64,
}

/// Runs the Table 1 experiment for one circuit.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn table1_row(name: &str, pairs: usize, options: &Options) -> Table1Row {
    let circuit = catalog::benchmark(name).expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let compiled =
        CompiledEstimator::compile(&circuit, options).expect("benchmark circuits compile");
    let estimate = compiled.estimate(&spec).expect("uniform spec matches");
    let truth = ground_truth(&circuit, pairs);
    let stats = estimate.compare(&truth);
    Table1Row {
        circuit: name.to_string(),
        gates: circuit.num_gates(),
        segments: estimate.num_segments(),
        mean_err: stats.mean_abs_error,
        std_err: stats.std_error,
        pct_err: stats.percent_error,
        total_s: estimate.total_time().as_secs_f64(),
        update_s: estimate.propagate_time().as_secs_f64(),
    }
}

/// Runs Table 1 for every benchmark in the paper's row order.
pub fn table1(pairs: usize, options: &Options) -> Vec<Table1Row> {
    catalog::BENCHMARKS
        .iter()
        .map(|info| table1_row(info.name, pairs, options))
        .collect()
}

/// Formats Table 1 rows as an aligned text table.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>5} {:>9} {:>9} {:>8} {:>10} {:>10}\n",
        "Circuit", "Gates", "BNs", "µErr", "σErr", "%Error", "Total(s)", "Update(s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:>5} {:>9.4} {:>9.4} {:>7.3}% {:>10.4} {:>10.4}\n",
            r.circuit, r.gates, r.segments, r.mean_err, r.std_err, r.pct_err, r.total_s, r.update_s
        ));
    }
    let n = rows.len() as f64;
    out.push_str(&format!(
        "{:<10} {:>6} {:>5} {:>9.4} {:>9.4} {:>7.3}% {:>10.4} {:>10.4}\n",
        "average",
        "",
        "",
        rows.iter().map(|r| r.mean_err).sum::<f64>() / n,
        rows.iter().map(|r| r.std_err).sum::<f64>() / n,
        rows.iter().map(|r| r.pct_err).sum::<f64>() / n,
        rows.iter().map(|r| r.total_s).sum::<f64>() / n,
        rows.iter().map(|r| r.update_s).sum::<f64>() / n,
    ));
    out
}

/// One method's result on one circuit in Table 2.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Estimator name.
    pub method: String,
    /// Mean absolute per-node error (µErr).
    pub mean_err: f64,
    /// Standard deviation of the per-node error (σErr).
    pub std_err: f64,
    /// Wall-clock estimation time, seconds.
    pub time_s: f64,
}

/// One row (circuit) of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub circuit: String,
    /// Cells per method, in the order the methods were supplied.
    pub cells: Vec<Table2Cell>,
}

/// Runs the Table 2 comparison on one circuit: the Bayesian network plus
/// every supplied baseline, all against the same simulated ground truth.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn table2_row(
    name: &str,
    pairs: usize,
    options: &Options,
    baselines: &[&dyn SwitchingEstimator],
) -> Table2Row {
    let circuit = catalog::benchmark(name).expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let truth = ground_truth(&circuit, pairs);

    let mut cells = Vec::new();
    let start = Instant::now();
    let estimate = swact::estimate(&circuit, &spec, options).expect("benchmark circuits compile");
    let bn_time = start.elapsed().as_secs_f64();
    let stats = estimate.compare(&truth);
    cells.push(Table2Cell {
        method: "bayesian-network".to_string(),
        mean_err: stats.mean_abs_error,
        std_err: stats.std_error,
        time_s: bn_time,
    });
    for baseline in baselines {
        let start = Instant::now();
        match baseline.estimate(&circuit, &spec) {
            Ok(switching) => {
                let time_s = start.elapsed().as_secs_f64();
                let stats = ErrorStats::between(&switching, &truth);
                cells.push(Table2Cell {
                    method: baseline.name().to_string(),
                    mean_err: stats.mean_abs_error,
                    std_err: stats.std_error,
                    time_s,
                });
            }
            Err(_) => cells.push(Table2Cell {
                method: baseline.name().to_string(),
                mean_err: f64::NAN,
                std_err: f64::NAN,
                time_s: f64::NAN,
            }),
        }
    }
    Table2Row {
        circuit: name.to_string(),
        cells,
    }
}

/// Formats Table 2 rows as an aligned text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    if let Some(first) = rows.first() {
        out.push_str(&format!("{:<10}", "Circuit"));
        for cell in &first.cells {
            out.push_str(&format!(" | {:^28}", cell.method));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", ""));
        for _ in &first.cells {
            out.push_str(&format!(" | {:>8} {:>8} {:>9}", "µErr", "σErr", "time(s)"));
        }
        out.push('\n');
    }
    for row in rows {
        out.push_str(&format!("{:<10}", row.circuit));
        for cell in &row.cells {
            if cell.mean_err.is_nan() {
                out.push_str(&format!(" | {:>8} {:>8} {:>9}", "-", "-", "-"));
            } else {
                out.push_str(&format!(
                    " | {:>8.4} {:>8.4} {:>9.4}",
                    cell.mean_err, cell.std_err, cell.time_s
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Simulated ground-truth switching for a circuit under uniform inputs.
pub fn ground_truth(circuit: &Circuit, pairs: usize) -> Vec<f64> {
    let model = StreamModel::uniform(circuit.num_inputs());
    measure_activity(circuit, &model, pairs, GROUND_TRUTH_SEED).switching
}

/// Resolves a benchmark name against the built-in catalog; unknown names
/// get an error message listing every valid name, ready to print as-is.
pub fn lookup_benchmark(name: &str) -> Result<Circuit, String> {
    catalog::benchmark(name).ok_or_else(|| {
        let mut msg = format!("unknown benchmark `{name}`; valid names are:");
        for info in catalog::BENCHMARKS {
            let _ = write!(msg, "\n  {}", info.name);
        }
        msg
    })
}

/// Sweep scenario specs: per-input p1 varies with both input position and
/// scenario index so every scenario re-propagates distinct evidence.
pub fn batch_specs(circuit: &Circuit, scenarios: usize) -> Vec<InputSpec> {
    (0..scenarios)
        .map(|k| {
            InputSpec::independent(
                (0..circuit.num_inputs()).map(move |i| 0.1 + 0.08 * ((i + 3 * k) % 10) as f64),
            )
        })
        .collect()
}

/// One circuit's sparse-vs-dense propagation measurement.
#[derive(Debug, Clone)]
pub struct SparseThroughputRow {
    /// Benchmark name.
    pub circuit: String,
    /// Nonzero clique-potential entries (identical for both modes).
    pub nnz: usize,
    /// Fraction of clique-potential entries that are structural zeros.
    pub zero_fraction: f64,
    /// Cliques stored zero-compressed under `SparseMode::Auto`.
    pub compressed_cliques: usize,
    /// Propagate-only wall clock under `SparseMode::Off`, seconds.
    pub dense_s: f64,
    /// Propagate-only wall clock under `SparseMode::Auto`, seconds.
    pub sparse_s: f64,
    /// `dense_s / sparse_s`.
    pub speedup: f64,
}

/// Times the precompiled propagate-only path dense vs sparse, `reps`
/// repetitions per mode per circuit (input statistics rotate so no
/// iteration can reuse a warm result). Compilation is untimed; both modes
/// propagate the same rotated specs, so the wall-clock difference isolates
/// the kernels.
///
/// # Panics
///
/// Panics if any name is unknown or a circuit fails to compile.
pub fn sparse_throughput(names: &[&str], reps: usize) -> Vec<SparseThroughputRow> {
    names
        .iter()
        .map(|&name| {
            let circuit = catalog::benchmark(name).expect("known benchmark");
            let specs = batch_specs(&circuit, 8);
            let time_mode = |sparse| {
                let options = Options {
                    sparse,
                    ..Options::default()
                };
                let compiled =
                    CompiledEstimator::compile(&circuit, &options).expect("benchmark compiles");
                // One untimed propagation warms allocator and caches.
                compiled.estimate(&specs[0]).expect("estimates");
                let start = Instant::now();
                for k in 0..reps {
                    compiled
                        .estimate(&specs[k % specs.len()])
                        .expect("estimates");
                }
                (start.elapsed().as_secs_f64(), compiled)
            };
            let (dense_s, _) = time_mode(swact::SparseMode::Off);
            let (sparse_s, compiled) = time_mode(swact::SparseMode::Auto);
            SparseThroughputRow {
                circuit: name.to_string(),
                nnz: compiled.nnz(),
                zero_fraction: compiled.zero_fraction(),
                compressed_cliques: compiled.compressed_cliques(),
                dense_s,
                sparse_s,
                speedup: if sparse_s > 0.0 {
                    dense_s / sparse_s
                } else {
                    1.0
                },
            }
        })
        .collect()
}

/// Renders sparse-vs-dense rows as a JSON document with host metadata
/// (hand-rolled: the workspace deliberately has no serde dependency).
pub fn sparse_throughput_json(rows: &[SparseThroughputRow], reps: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(out, "  \"host_arch\": \"{}\",", std::env::consts::ARCH);
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"circuit\": \"{}\", \"nnz\": {}, \"zero_fraction\": {:.6}, \
             \"compressed_cliques\": {}, \"dense_s\": {:.6}, \"sparse_s\": {:.6}, \
             \"speedup\": {:.3}}}",
            row.circuit,
            row.nnz,
            row.zero_fraction,
            row.compressed_cliques,
            row.dense_s,
            row.sparse_s,
            row.speedup
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One circuit's cold-vs-incremental sweep measurement: a single-input
/// sweep re-propagated over one compiled estimator, once with incremental
/// reuse disabled and once enabled.
#[derive(Debug, Clone)]
pub struct SweepThroughputRow {
    /// Benchmark name.
    pub circuit: String,
    /// Segments (Bayesian networks) the circuit compiled into.
    pub segments: usize,
    /// The primary input the sweep perturbs (chosen by
    /// [`best_sweep_input`]: the input whose dirty cone touches the
    /// fewest segments).
    pub swept_input: usize,
    /// Scenarios in the sweep.
    pub scenarios: usize,
    /// Propagate-only wall clock with `incremental: false`, seconds.
    pub cold_s: f64,
    /// Propagate-only wall clock with `incremental: true` (caches warmed
    /// by one untimed pass), seconds.
    pub incremental_s: f64,
    /// `cold_s / incremental_s`.
    pub speedup: f64,
    /// Collect messages served from the per-edge cache across the sweep.
    pub messages_reused: u64,
    /// Collect messages recomputed across the sweep.
    pub messages_recomputed: u64,
    /// Whole segments served from the posterior memo across the sweep.
    pub segments_skipped: u64,
    /// `messages_reused / (messages_reused + messages_recomputed)`.
    pub reuse_ratio: f64,
}

/// Sweep specs that perturb only input `input`: every other input stays at
/// p1 = 0.5 while the swept input's p1 moves linearly over [0.05, 0.95] —
/// the paper's sensitivity-sweep workload, and the best case for
/// incremental re-propagation (everything outside the swept input's fanout
/// cone is provably unchanged).
pub fn single_input_sweep_specs(
    circuit: &Circuit,
    input: usize,
    scenarios: usize,
) -> Vec<InputSpec> {
    (0..scenarios)
        .map(|k| {
            let t = if scenarios > 1 {
                k as f64 / (scenarios - 1) as f64
            } else {
                0.5
            };
            let mut p1s = vec![0.5; circuit.num_inputs()];
            p1s[input] = 0.05 + 0.9 * t;
            InputSpec::independent(p1s)
        })
        .collect()
}

/// Picks the sweep input whose perturbation dirties the fewest segments:
/// each input is probed with a two-scenario perturbation against a
/// compiled estimator and the one with the most memo-skipped segments
/// wins (lowest index on ties — including the all-zero single-segment
/// case). Incremental reuse is topology-dependent: an input feeding the
/// root segment dirties every downstream boundary, while one entering a
/// late segment leaves the rest of the circuit provably unchanged, so a
/// sweep benchmark must say which case it measures.
pub fn best_sweep_input(circuit: &Circuit) -> usize {
    let compiled =
        CompiledEstimator::compile(circuit, &Options::default()).expect("benchmark compiles");
    let n = circuit.num_inputs();
    let mut best = (0usize, 0u64);
    for input in 0..n {
        let mut p1s = vec![0.5; n];
        p1s[input] = 0.3;
        compiled
            .estimate(&InputSpec::independent(p1s.clone()))
            .expect("estimates");
        p1s[input] = 0.7;
        let est = compiled
            .estimate(&InputSpec::independent(p1s))
            .expect("estimates");
        let skips = est.reuse_stats().segments_skipped;
        if skips > best.1 {
            best = (input, skips);
        }
    }
    best.0
}

/// Times a single-input sweep over one precompiled estimator, cold
/// (`incremental: false`) vs incremental, and asserts the two modes'
/// posteriors bit-identical per scenario. The swept input is chosen per
/// circuit by [`best_sweep_input`] (smallest dirty cone — the use case
/// incremental re-propagation targets; the chosen index is reported in
/// the row). Compilation is untimed; one untimed warm-up pass precedes
/// each timed loop so the incremental run starts with populated caches
/// (the steady-state sweep regime) and the cold run has a warmed
/// allocator.
///
/// # Panics
///
/// Panics if any name is unknown, a circuit fails to compile, or the two
/// modes disagree on any bit of any posterior.
pub fn sweep_throughput(names: &[&str], scenarios: usize) -> Vec<SweepThroughputRow> {
    names
        .iter()
        .map(|&name| {
            let circuit = catalog::benchmark(name).expect("known benchmark");
            let swept_input = best_sweep_input(&circuit);
            let specs = single_input_sweep_specs(&circuit, swept_input, scenarios);
            let run_mode = |incremental: bool| {
                let options = Options {
                    incremental,
                    ..Options::default()
                };
                let compiled =
                    CompiledEstimator::compile(&circuit, &options).expect("benchmark compiles");
                for spec in &specs {
                    // Untimed pass: warms allocator (both modes) and the
                    // message caches / posterior memos (incremental mode).
                    compiled.estimate(spec).expect("estimates");
                }
                // Small circuits finish a whole sweep in microseconds —
                // far below one-shot timer noise — so the sweep repeats
                // until it accumulates a measurable wall clock and reports
                // the per-sweep mean. The reuse counters come from the
                // first pass only (every pass reuses identically: the
                // caches are steady-state after the warm-up).
                let mut estimates = Vec::new();
                let mut passes = 0u32;
                let start = Instant::now();
                loop {
                    passes += 1;
                    let pass: Vec<_> = specs
                        .iter()
                        .map(|spec| compiled.estimate(spec).expect("estimates"))
                        .collect();
                    if estimates.is_empty() {
                        estimates = pass;
                    }
                    if start.elapsed().as_secs_f64() >= 0.05 || passes >= 50 {
                        break;
                    }
                }
                let elapsed = start.elapsed().as_secs_f64() / f64::from(passes);
                (elapsed, estimates, compiled)
            };
            let (cold_s, cold_estimates, _) = run_mode(false);
            let (incremental_s, warm_estimates, compiled) = run_mode(true);
            let mut messages_reused = 0u64;
            let mut messages_recomputed = 0u64;
            let mut segments_skipped = 0u64;
            for (cold, warm) in cold_estimates.iter().zip(&warm_estimates) {
                for (x, y) in cold.switching_all().iter().zip(warm.switching_all().iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "incremental sweep diverged from cold on {name}"
                    );
                }
                let reuse = warm.reuse_stats();
                messages_reused += reuse.messages_reused;
                messages_recomputed += reuse.messages_recomputed;
                segments_skipped += reuse.segments_skipped;
            }
            let message_total = messages_reused + messages_recomputed;
            SweepThroughputRow {
                circuit: name.to_string(),
                segments: compiled.num_segments(),
                swept_input,
                scenarios,
                cold_s,
                incremental_s,
                speedup: if incremental_s > 0.0 {
                    cold_s / incremental_s
                } else {
                    1.0
                },
                messages_reused,
                messages_recomputed,
                segments_skipped,
                reuse_ratio: if message_total > 0 {
                    messages_reused as f64 / message_total as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Renders sweep rows as a JSON document with host metadata (hand-rolled:
/// the workspace deliberately has no serde dependency).
pub fn sweep_throughput_json(rows: &[SweepThroughputRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(
        out,
        "  \"scenarios\": {},",
        rows.first().map_or(0, |r| r.scenarios)
    );
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(out, "  \"host_arch\": \"{}\",", std::env::consts::ARCH);
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let per_cold = row.cold_s / row.scenarios.max(1) as f64;
        let per_warm = row.incremental_s / row.scenarios.max(1) as f64;
        let _ = write!(
            out,
            "    {{\"circuit\": \"{}\", \"segments\": {}, \"swept_input\": {}, \
             \"cold_s\": {:.6}, \
             \"incremental_s\": {:.6}, \"cold_per_scenario_s\": {:.8}, \
             \"incremental_per_scenario_s\": {:.8}, \"speedup\": {:.3}, \
             \"messages_reused\": {}, \"messages_recomputed\": {}, \
             \"segments_skipped\": {}, \"reuse_ratio\": {:.4}}}",
            row.circuit,
            row.segments,
            row.swept_input,
            row.cold_s,
            row.incremental_s,
            per_cold,
            per_warm,
            row.speedup,
            row.messages_reused,
            row.messages_recomputed,
            row.segments_skipped,
            row.reuse_ratio
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_baselines::Independence;

    #[test]
    fn table1_row_on_c17_is_exact() {
        let row = table1_row("c17", 1 << 16, &Options::default());
        assert_eq!(row.segments, 1);
        assert!(row.mean_err < 0.01, "µErr {}", row.mean_err);
        assert!(row.update_s < row.total_s);
    }

    #[test]
    fn table2_row_orders_methods() {
        let row = table2_row("c17", 1 << 16, &Options::default(), &[&Independence]);
        assert_eq!(row.cells.len(), 2);
        assert_eq!(row.cells[0].method, "bayesian-network");
        assert!(row.cells[0].mean_err <= row.cells[1].mean_err + 1e-9);
    }

    #[test]
    fn lookup_benchmark_lists_catalog_on_miss() {
        assert!(lookup_benchmark("c17").is_ok());
        let msg = lookup_benchmark("c9999").unwrap_err();
        assert!(msg.contains("unknown benchmark `c9999`"));
        for info in catalog::BENCHMARKS {
            assert!(
                msg.contains(info.name),
                "catalog entry {} missing",
                info.name
            );
        }
    }

    #[test]
    fn sparse_throughput_rows_and_json() {
        let rows = sparse_throughput(&["c17"], 2);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].nnz > 0);
        assert!(rows[0].zero_fraction > 0.0);
        // c17's single-gate cliques (≤75% zero) sit below the fused-kernel
        // break-even (80% zeros), so Auto keeps them all dense.
        assert_eq!(rows[0].compressed_cliques, 0);
        assert!(rows[0].dense_s > 0.0 && rows[0].sparse_s > 0.0);
        let json = sparse_throughput_json(&rows, 2);
        assert!(json.contains("\"circuit\": \"c17\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"zero_fraction\""));
    }

    #[test]
    fn sweep_throughput_rows_and_json() {
        let rows = sweep_throughput(&["c17"], 4);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.scenarios, 4);
        assert!(row.segments >= 1);
        assert!(row.cold_s > 0.0 && row.incremental_s > 0.0);
        // c17 sits below the message cache's break-even point (hashing the
        // evidence signature costs more than recomputing its one tiny
        // tree), so the compiled segment must bypass the cache entirely:
        // both counters stay at zero. The sweep's bit-identity assertion
        // inside `sweep_throughput` still guarantees warm ≡ cold.
        assert_eq!(
            row.messages_reused + row.messages_recomputed,
            0,
            "c17 should bypass the message cache: {row:?}"
        );
        let json = sweep_throughput_json(&rows);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"circuit\": \"c17\""));
        assert!(json.contains("\"cold_per_scenario_s\""));
        assert!(json.contains("\"reuse_ratio\""));
        assert!(json.contains("\"segments_skipped\""));
    }

    #[test]
    fn single_input_sweep_perturbs_one_input() {
        let circuit = catalog::benchmark("c17").expect("known benchmark");
        let specs = single_input_sweep_specs(&circuit, 2, 5);
        assert_eq!(specs.len(), 5);
        for spec in &specs {
            for (i, model) in spec.models().iter().enumerate() {
                if i != 2 {
                    assert_eq!(model.p1(), 0.5);
                }
            }
        }
        assert!((specs[0].models()[2].p1() - 0.05).abs() < 1e-12);
        assert!((specs[4].models()[2].p1() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn formatting_is_complete() {
        let rows = vec![table1_row("c17", 1 << 14, &Options::default())];
        let text = format_table1(&rows);
        assert!(text.contains("c17"));
        assert!(text.contains("average"));
        let rows = vec![table2_row(
            "c17",
            1 << 14,
            &Options::default(),
            &[&Independence],
        )];
        let text = format_table2(&rows);
        assert!(text.contains("independence"));
    }
}
