//! The benchmark's metric vocabulary: every end-to-end and per-layer metric
//! with its unit, its direction, and (per layer) the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names and units;
//! the smoke test keeps the two in step.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, reported by `--trace 0` runs.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower", "host seconds from end of set-up to complete outputs, at the reference speed"),
    m("sim_req_per_s", "1/s", "higher", "simulated requests completed per host second of wall_s"),
    m("peak_rss_mb", "MB", "lower", "VmHWM of the workload's own process"),
    m("setup_s", "s", "lower", "App::build + SimConfig + Sim::new, median of repeats, at the reference speed"),
];

/// Per-layer metrics, reported by `--trace 1` runs.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("apps.build_s", "s", "lower", "setup_s, all"),
    m("workload.sim_new_s", "s", "lower", "setup_s, all"),
    m("workload.run_s", "s", "lower", "wall_s, all"),
    m("workload.completed", "count", "higher", "sim_req_per_s, all (deterministic)"),
    m("workload.offloaded", "count", "higher", "wall_s, burst_checked (deterministic)"),
    m("workload.shadows", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("workload.rejected", "count", "lower", "sim_req_per_s, all (deterministic)"),
    m("workload.router.ns_per_route", "ns", "lower", "wall_s, burst_checked (expected small)"),
    m("workload.fidelity_factor", "count", "higher", "property: VM work per request shrinks as it grows"),
    m("workload.offload_share", "ratio", "higher", "property: share of completed requests offloaded"),
    m("workload.shadows_per_1k", "count", "lower", "property: shadow executions per 1000 completed"),
    m("workload.trace_events_per_req", "count", "lower", "property: telemetry events per completed request"),
    m("sim.event_queue.ns_per_op", "ns", "lower", "wall_s, burst_checked"),
    m("vm.server_request_us", "us", "lower", "wall_s and sim_req_per_s, server_steady"),
    m("vm.gc.collect_us", "us", "lower", "wall_s and sim_req_per_s, server_steady"),
    m("vm.gc.server_collections", "count", "lower", "wall_s, server_steady (deterministic)"),
    m("vm.function_gc_pauses", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("core.offload_request_us", "us", "lower", "wall_s, burst_checked; none on server_steady"),
    m("core.closure.instantiate_us", "us", "lower", "wall_s, burst_checked; none on server_steady"),
    m("core.sync.handoff_us", "us", "lower", "wall_s, burst_checked; none on server_steady"),
    m("core.fallbacks", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("core.synchronized_objects", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("core.closure_bytes", "B", "lower", "wall_s, burst_checked (deterministic)"),
    m("core.mapping_bytes", "B", "lower", "peak_rss_mb, burst_checked (deterministic)"),
    m("faas.boots_cold", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("faas.boots_warm", "count", "higher", "wall_s, burst_checked (deterministic)"),
    m("faas.instances", "count", "lower", "wall_s, burst_checked (deterministic)"),
    m("telemetry.events", "count", "lower", "wall_s and peak_rss_mb, burst_traced"),
    m("telemetry.events_per_req", "count", "lower", "wall_s and peak_rss_mb, burst_traced"),
    m("telemetry.recorder_s", "s", "lower", "wall_s, burst_traced"),
    m("telemetry.chrome_s", "s", "lower", "wall_s, burst_traced"),
    m("telemetry.chrome_bytes", "B", "lower", "peak_rss_mb, burst_traced"),
    m("telemetry.critical_path_s", "s", "lower", "wall_s, burst_traced"),
    m("metrics.online_s", "s", "lower", "wall_s, burst_checked"),
    m("metrics.online_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("metrics.reduce_s", "s", "lower", "wall_s, burst_checked"),
    m("metrics.prom_s", "s", "lower", "wall_s, burst_traced"),
    m("sentinel.online_s", "s", "lower", "wall_s, burst_checked"),
    m("sentinel.online_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("sentinel.replay_ns_per_event", "ns", "lower", "wall_s, burst_checked"),
    m("sentinel.violations", "count", "lower", "correctness: must be 0"),
    m("observatory.online_s", "s", "lower", "wall_s, burst_checked"),
    m("observatory.online_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("observatory.replay_ns_per_event", "ns", "lower", "wall_s, burst_checked"),
    m("observatory.svg_s", "s", "lower", "wall_s, burst_traced"),
    m("insight.attribute_s", "s", "lower", "wall_s, burst_traced"),
    m("profiler.online_s", "s", "lower", "wall_s, burst_traced"),
    m("profiler.folded_s", "s", "lower", "wall_s, burst_traced"),
    m("bench.artifact_write_s", "s", "lower", "wall_s, burst_traced"),
    m("bench.artifact_bytes", "B", "lower", "wall_s and peak_rss_mb, burst_traced"),
    m("bench.trace_overhead_s", "s", "lower", "none: traced run wall_s minus untraced median"),
    m("bench.host_wall_s", "s", "lower", "wall_s of the traced run before scaling to the reference speed"),
    m("bench.reference_s", "s", "lower", "none: host seconds of the reference work; host times are scaled by REFERENCE_S over it"),
    m("ladder.bare.run_s", "s", "lower", "wall_s, burst_checked"),
    m("ladder.bare.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("ladder.metrics.run_s", "s", "lower", "wall_s, burst_checked"),
    m("ladder.metrics.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("ladder.sentinel.run_s", "s", "lower", "wall_s, burst_checked"),
    m("ladder.sentinel.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("ladder.observe.run_s", "s", "lower", "wall_s, burst_checked"),
    m("ladder.observe.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_checked"),
    m("ladder.trace.run_s", "s", "lower", "wall_s, burst_traced"),
    m("ladder.trace.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_traced"),
    m("ladder.profile.run_s", "s", "lower", "wall_s, burst_traced"),
    m("ladder.profile.peak_rss_mb", "MB", "lower", "peak_rss_mb, burst_traced"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
