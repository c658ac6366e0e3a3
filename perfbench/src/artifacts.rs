//! The `repro --obs` artifact set of one traced burst run: Chrome trace,
//! critical-path summary, metrics JSON and Prometheus text, folded stacks
//! and profile JSON, insight document, sentinel report, and timeline JSON
//! and SVG. Each render is timed as a span of the layer it calls into; each
//! file write as `bench.write`.

use std::path::Path;

use beehive_insight::{InsightDoc, SloPolicy};
use beehive_metrics::{MetricsSnapshot, DEFAULT_WINDOW, EXEMPLAR_K};
use beehive_observatory::TimelineDoc;
use beehive_sentinel::SentinelReport;
use beehive_telemetry::{chrome, summary, Trace};
use beehive_workload::SimResult;

use crate::run::LABEL;
use crate::spans::Spans;

/// What [`write_all`] wrote.
#[derive(Debug)]
pub struct Written {
    /// Bytes over every artifact.
    pub bytes: u64,
    /// Bytes of the Chrome trace alone.
    pub chrome_bytes: u64,
    /// The labelled trace the artifacts were rendered from.
    pub traces: Vec<(String, Trace)>,
}

/// Render every artifact of `r` and write it into `dir`. Takes the trace,
/// profile, metrics registry, conformance check and timeline out of `r`.
///
/// # Panics
///
/// When `r` was not run with every observation flag on, or a write fails.
pub fn write_all(r: &mut SimResult, dir: &Path, spans: &mut Spans) -> Written {
    let label = LABEL.to_string();
    let traces = vec![(
        label.clone(),
        r.trace.take().expect("traced run keeps its trace"),
    )];
    let profile = r.profile.take().expect("profiled run keeps its profile");
    let registry = r.metrics.take().expect("metrics run keeps its registry");
    let mut check = r.sentinel.take().expect("checked run keeps its check");
    check.label = label.clone();
    let mut series = r.observatory.take().expect("observed run keeps its series");
    series.label = label.clone();

    let mut bytes = 0;
    let mut write = |spans: &mut Spans, name: &str, text: String| {
        bytes += text.len() as u64;
        let path = dir.join(name);
        spans
            .time("bench.write", || std::fs::write(&path, &text))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    };

    let text = spans.time("telemetry.chrome", || chrome::chrome_trace_string(&traces));
    let chrome_bytes = text.len() as u64;
    write(spans, "burst.trace.json", text);
    let text = spans.time("telemetry.critical_path", || {
        summary::critical_path_with(&traces, &|l| (l == label).then(|| profile.hottest_json(5)))
            .render()
    });
    write(spans, "burst.summary.json", text);

    let snap = spans.time("metrics.snapshot", || MetricsSnapshot {
        window: DEFAULT_WINDOW,
        scenarios: vec![registry.snapshot(&label)],
    });
    let text = spans.time("metrics.render", || snap.render());
    write(spans, "burst.metrics.json", text);
    let text = spans.time("metrics.prom", || {
        beehive_metrics::prometheus(&snap, "burst")
    });
    write(spans, "burst.prom", text);

    let text = spans.time("profiler.folded", || {
        let prefix = label.replace([' ', ';'], "_");
        profile
            .folded()
            .lines()
            .map(|line| format!("{prefix};{line}\n"))
            .collect::<String>()
    });
    write(spans, "burst.folded", text);
    let text = spans.time("profiler.json", || profile.to_json().render());
    write(spans, "burst.profile.json", text);

    let text = spans.time("insight.attribute", || {
        InsightDoc::from_traces(&traces, &SloPolicy::default(), EXEMPLAR_K)
            .to_json()
            .render()
    });
    write(spans, "burst.insight.json", text);

    let text = spans.time("sentinel.report", || {
        SentinelReport::from_checks(false, vec![check])
            .to_json()
            .render()
    });
    write(spans, "burst.sentinel.json", text);

    let doc = TimelineDoc::from_series(vec![series]);
    let text = spans.time("observatory.json", || doc.to_json().render());
    write(spans, "burst.timeline.json", text);
    let text = spans.time("observatory.svg", || doc.render_svg());
    write(spans, "burst.timeline.svg", text);

    Written {
        bytes,
        chrome_bytes,
        traces,
    }
}
