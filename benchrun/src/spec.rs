//! The names the benchmark reports under.  `BENCHMARK.json` repeats them
//! with each metric's direction and bound; `tests/smoke.rs` holds the two
//! lists to each other.

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "point_lookup",
    "quantified_scan",
    "adhoc_plan",
    "ingest_recover",
];

/// End-to-end metrics `(name, unit)`: what every workload reports from
/// the untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("rows_per_s", "1/s"),
    ("ttft_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The sixteen workload query ids, in suite order.
pub const QUERY_IDS: [&str; 16] = [
    "ex2.1", "ex3.2", "ex4.5", "ex4.7", "q01", "q02", "q03", "q04", "q05", "q06", "q07", "q08",
    "q09", "q10", "q11", "q12",
];

const PER_LAYER_FIXED: [(&str, &str); 78] = [
    // The write path's user-visible numbers.  Only `ingest_recover` has
    // them, and an end-to-end metric must exist on every workload, so
    // they are reported here, without a bound.
    ("commit_growth_ratio", "ratio"),
    ("batch_rows_per_s", "1/s"),
    ("checkpoint_ms", "ms"),
    ("recovery_ms", "ms"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("failed_share", "ratio"),
    ("parser.parse_us", "us"),
    ("analysis.simplify_us", "us"),
    ("analysis.diagnostics", "count"),
    ("calculus.standardize_us", "us"),
    ("calculus.conjunctions", "count"),
    ("planner.plan_fixed_us", "us"),
    ("planner.plan_auto_us", "us"),
    ("planner.auto_pricing_us", "us"),
    ("planner.auto_over_fixed", "ratio"),
    ("planner.auto_regret", "ratio"),
    ("exec.collection_us", "us"),
    ("exec.combination_us", "us"),
    ("exec.construction_us", "us"),
    ("exec.collection_share", "ratio"),
    ("exec.combination_share", "ratio"),
    ("exec.construction_share", "ratio"),
    ("exec.tuples_read", "count"),
    ("exec.comparisons", "count"),
    ("exec.intermediate_tuples", "count"),
    ("exec.dereferences", "count"),
    ("exec.relation_scans", "count"),
    ("exec.index_builds", "count"),
    ("exec.index_probes", "count"),
    ("exec.max_structure_size", "count"),
    ("exec.tuples_read_per_row", "ratio"),
    ("exec.scale_exponent_ex2.1", "ratio"),
    ("relation.scan_ns_per_tuple", "ns"),
    ("relation.deref_ns", "ns"),
    ("relation.index_probe_ns", "ns"),
    ("relation.insert_us", "us"),
    ("relation.clone_us_at_3000", "us"),
    ("catalog.snapshot_ns", "ns"),
    ("catalog.cow_commit_us_at_300", "us"),
    ("catalog.cow_commit_us_at_3000", "us"),
    ("catalog.walop_encode_ns", "ns"),
    ("catalog.walop_apply_us", "us"),
    ("catalog.encode_checkpoint_ms", "ms"),
    ("catalog.decode_checkpoint_ms", "ms"),
    ("catalog.analyze_ms", "ms"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs_per_commit", "ratio"),
    ("storage.append_us", "us"),
    ("storage.wal_bytes_per_commit", "bytes"),
    ("storage.write_calls", "count"),
    ("storage.bytes_written", "bytes"),
    ("storage.read_calls_recovery", "count"),
    ("storage.bytes_read_recovery", "bytes"),
    ("storage.checkpoint_bytes", "bytes"),
    ("storage.wal_replay_ms", "ms"),
    ("core.point_prepared_p50_us", "us"),
    ("core.point_join_p50_us", "us"),
    ("core.point_text_p50_us", "us"),
    ("core.execute_overhead_us", "us"),
    ("core.plan_cache_hit_share", "ratio"),
    ("core.plan_cache_evictions", "count"),
    ("core.scaling_2t", "ratio"),
    ("obs.tracing_on_slowdown", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.traced_ops", "count"),
    ("bench.spans", "count"),
    // Each layer's self time as a share of the decomposed operation.
    ("trace.parser_share", "ratio"),
    ("trace.planner_share", "ratio"),
    ("trace.exec_share", "ratio"),
    ("trace.catalog_share", "ratio"),
    ("trace.storage_share", "ratio"),
    ("trace.core_share", "ratio"),
    ("trace.bench_share", "ratio"),
    // Reference numbers of the traced run's own untraced window.
    ("bench.ref_ops_per_s", "1/s"),
    ("bench.ref_p50_us", "us"),
    ("bench.decomposed_op_us", "us"),
    ("bench.facade_op_us", "us"),
];

/// Per-layer metrics `(name, unit)`: what every workload reports from the
/// traced run.  A metric of a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    out.extend(QUERY_IDS.iter().map(|id| (format!("exec.ms_{id}"), "ms")));
    out
}

/// Per-layer metrics that are exact counts: with one client and no timers
/// the same seed gives the same value, bit for bit, on every run.
pub const EXACT: [&str; 20] = [
    "write_amp",
    "space_amp",
    "analysis.diagnostics",
    "calculus.conjunctions",
    "exec.tuples_read",
    "exec.comparisons",
    "exec.intermediate_tuples",
    "exec.dereferences",
    "exec.relation_scans",
    "exec.index_builds",
    "exec.index_probes",
    "exec.max_structure_size",
    "exec.tuples_read_per_row",
    "storage.fsyncs_per_commit",
    "storage.wal_bytes_per_commit",
    "storage.write_calls",
    "storage.bytes_written",
    "storage.read_calls_recovery",
    "storage.bytes_read_recovery",
    "storage.checkpoint_bytes",
];
