//! The telemetry drain feeds both online consumers the same stream whether
//! or not the run keeps its trace: a streaming recorder (cleared on every
//! drain) and a keeping one must yield byte-identical sentinel reports and
//! timelines, and every recorded event must reach each consumer once.

use beehive_apps::AppKind;
use beehive_observatory::TimelineDoc;
use beehive_sentinel::SentinelReport;
use beehive_workload::driver::{Sim, SimResult};
use beehive_workload::experiment::fig7::BurstExperiment;
use beehive_workload::Strategy;

/// The burst scenario with the checker and the timeline reducer both on.
fn burst(trace: bool) -> SimResult {
    let e = BurstExperiment::new(AppKind::Pybbs, Strategy::BeeHiveOpenWhisk)
        .horizon_secs(12)
        .burst_at_secs(4)
        .seed(5);
    let mut cfg = e.config();
    cfg.sentinel = true;
    cfg.observe = true;
    cfg.trace = trace;
    Sim::new(cfg).run()
}

/// The two online artifacts of a run, rendered as JSON documents.
fn rendered(r: SimResult) -> (String, String) {
    let check = r.sentinel.expect("sentinel result");
    let series = r.observatory.expect("timeline result");
    (
        SentinelReport::from_checks(false, vec![check])
            .to_json()
            .render(),
        TimelineDoc::from_series(vec![series]).to_json().render(),
    )
}

#[test]
fn streaming_and_kept_recorders_feed_both_consumers_identically() {
    let streamed = burst(false);
    assert!(streamed.trace.is_none(), "no trace was asked for");
    let kept = burst(true);
    let recorded = kept.trace.as_ref().expect("trace").events.len() as u64;
    assert!(recorded > 0);
    for r in [&streamed, &kept] {
        assert_eq!(r.sentinel.as_ref().unwrap().events, recorded);
        assert_eq!(r.observatory.as_ref().unwrap().events, recorded);
    }

    let (streamed_check, streamed_timeline) = rendered(streamed);
    let (kept_check, kept_timeline) = rendered(kept);
    assert_eq!(streamed_check, kept_check, "sentinel reports differ");
    assert_eq!(streamed_timeline, kept_timeline, "timelines differ");
}
