//! `repro` — regenerate every table and figure of the BeeHive paper.
//!
//! ```text
//! repro [--quick] [--seed N] [--chaos-seed N] [--json] [--trace DIR]
//!       [--metrics DIR] [--profile DIR] [--insight DIR] [--obs DIR]
//!       [--sentinel]
//!       [list|all|fig2|table1|table2|fig7|table3|fig8|
//!        fig9|table4|fig10|table5|gcstats|shadow|ablations|combination|
//!        recovery]
//! repro compare BASELINE CURRENT [--bench-out FILE]
//! repro diff BASELINE CURRENT [--bench-out FILE]
//! repro top ITEM [--quick] [--seed N] [--chaos-seed N] [--top N]
//! repro explain ITEM [--quick] [--seed N] [--chaos-seed N] [--slowest N]
//! repro check ITEM... [--quick] [--strict] [--json] [--seed N] [--chaos-seed N]
//! repro timeline ITEM [--quick] [--seed N] [--chaos-seed N] [--window NS] [--json|--svg]
//! repro lag BASELINE CURRENT
//! ```
//!
//! Without a subcommand, everything runs in paper order; `repro list`
//! prints every runnable item with a one-line description. `--quick`
//! shortens horizons (the same mode the test suite and benches use); the
//! default horizons match the paper's (e.g. 180 s burst windows). `--json`
//! replaces the Display tables with one machine-readable JSON document: an
//! array of `{"title": ..., "body": ...}` reports, rendered
//! deterministically (the same seed yields byte-identical output at any
//! worker count). `--trace DIR` additionally records a virtual-time trace
//! of every simulation and writes, per experiment, a Chrome trace-event
//! file (`DIR/<item>.trace.json`, loadable in `chrome://tracing` or
//! Perfetto) plus a per-request critical-path summary
//! (`DIR/<item>.summary.json`); for a fixed seed these files are
//! byte-identical at any `BEEHIVE_WORKERS`.
//!
//! `--metrics DIR` keeps a live virtual-time metrics registry in every
//! simulation and writes, per experiment, a snapshot
//! (`DIR/<item>.metrics.json`, the `beehive_metrics` JSON shape) plus a
//! Prometheus text-exposition rendering (`DIR/<item>.prom`). These too are
//! byte-identical at any worker count for a fixed seed.
//!
//! `--profile DIR` records an exact-attribution call-tree profile of every
//! simulation (per endpoint lane: `server`, `faas:primary`, `faas:shadow`)
//! and writes, per experiment, a collapsed-stack file (`DIR/<item>.folded`,
//! flamegraph.pl / inferno compatible, scenario label as the first frame)
//! plus the full call tree (`DIR/<item>.profile.json`). When combined with
//! `--trace`, each scenario's summary gains a `"hottest"` per-lane table.
//! Byte-identical at any worker count for a fixed seed. `repro top ITEM`
//! runs one item with profiling on and prints the per-lane hottest-method
//! tables directly.
//!
//! `--insight DIR` records a trace of every simulation and writes, per
//! experiment, a latency-attribution + SLO document
//! (`DIR/<item>.insight.json`, the `beehive_insight` JSON shape): each
//! completed request's latency decomposed into typed components that sum
//! exactly to the measured latency, slowest-K exemplar breakdowns, and
//! per-scenario error-budget/burn-rate evaluation. Byte-identical at any
//! worker count for a fixed seed.
//!
//! `repro compare BASELINE CURRENT` diffs two such snapshot directories
//! over the watched-metric table (P50/P99 request latency, fallback count,
//! cold-boot count, total GC pause) and exits non-zero when any watched
//! metric regresses beyond its tolerance — the perf gate `scripts/verify.sh`
//! runs against the checked-in golden baseline. Deltas that *cleared* the
//! tolerance band downward are flagged `improved` (informational; the exit
//! code only reflects regressions). `--bench-out FILE` additionally writes
//! the full delta table as JSON.
//!
//! `repro diff BASELINE CURRENT` is `compare` plus root-cause diagnosis:
//! when the two directories also hold `--insight` documents (and,
//! optionally, `--profile` folded stacks), every regressed latency metric
//! is attributed to the attribution component whose per-request mean grew
//! the most, the watched counters that moved, and the hottest grown
//! profiler frame.
//!
//! `repro explain ITEM [--slowest N]` runs one item with tracing on and
//! prints each scenario's latency-attribution table, SLO evaluation, and
//! slowest-request component breakdowns.
//!
//! `repro check ITEM...` runs the named items with tracing on, replays
//! every recorded trace through the `beehive_sentinel` conformance engine,
//! prints the per-scenario verdicts (`--json` for the `SentinelReport`
//! document) and exits 1 when any invariant was violated. `--strict`
//! escalates unknown-event-vocabulary warnings to violations. For a fixed
//! seed the report is byte-identical at any `BEEHIVE_WORKERS`.
//!
//! `repro timeline ITEM` runs one item with the streaming observatory
//! reducer riding the recorder and prints, per scenario, fixed-width
//! virtual-time series (offered/served RPS, P50/P99, queue depth,
//! in-flight, fleet gauges, warm-hit rate) as ASCII sparklines, plus the
//! derived elasticity signals: per-burst scale-up lag, provisioning
//! efficiency and cold-start amplification. `--window NS` sets the bin
//! width (default 1 s of virtual time); `--json` prints the
//! `TimelineDoc` JSON artifact instead, `--svg` a self-contained SVG
//! panel chart. For a fixed seed all three renderings are byte-identical
//! at any `BEEHIVE_WORKERS`.
//!
//! `repro lag BASELINE CURRENT` loads the `*.timeline.json` artifacts
//! from two directories (written by `--obs`) and diffs the scale-up lag
//! of every matching burst, exiting 1 when any lag regressed beyond the
//! tolerance band.
//!
//! `--sentinel` runs the same checker *online* inside every simulation of
//! the selected items (no trace is retained; events stream through the
//! checker as they are recorded) and exits 1 when any run violated an
//! invariant. `--obs DIR` is the umbrella observability flag: it implies
//! `--trace DIR --metrics DIR --profile DIR --insight DIR --sentinel` and
//! additionally writes `DIR/<item>.sentinel.json` conformance reports plus
//! `DIR/<item>.timeline.json` / `DIR/<item>.timeline.svg` elasticity
//! timelines, so one pass captures every artifact the toolchain can
//! produce.
//!
//! Unknown flags, unknown items and malformed arguments exit with status 2
//! and a one-line error on stderr (stdout stays clean).
//!
//! Every driver fans its independent simulations out over the parallel
//! scenario engine (`beehive_workload::engine`); pin the worker count with
//! the `BEEHIVE_WORKERS` environment variable.

use beehive_apps::AppKind;
use beehive_scaling::table1;
use beehive_sim::json::{Json, ToJson};
use beehive_workload::engine::{Artifacts, ObsPlan, RunReport, Runner};
use beehive_workload::experiment::{
    ablation::ablation,
    breakdown::{gc_stats, shadow_breakdown},
    combination::combination,
    fig2::fig2,
    fig7::fig7,
    fig8::fig8,
    fig9::fig9,
    recovery::recovery,
    slo::{fig10, table4},
    table2::table2,
    table5::table5,
    Profile,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..], false);
    }
    if args.first().map(String::as_str) == Some("diff") {
        run_compare(&args[1..], true);
    }
    if args.first().map(String::as_str) == Some("top") {
        run_top(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("explain") {
        run_explain(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("check") {
        run_check(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("timeline") {
        run_timeline(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("lag") {
        run_lag(&args[1..]);
    }
    let mut flags = RunFlags::new();
    let mut json = false;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut metrics_dir: Option<std::path::PathBuf> = None;
    let mut profile_dir: Option<std::path::PathBuf> = None;
    let mut insight_dir: Option<std::path::PathBuf> = None;
    let mut obs_dir: Option<std::path::PathBuf> = None;
    let mut sentinel = false;
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if flags.parse(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--json" => json = true,
            "--trace" => {
                trace_dir = Some(dir_value(&mut it, "--trace"));
            }
            "--metrics" => {
                metrics_dir = Some(dir_value(&mut it, "--metrics"));
            }
            "--profile" => {
                profile_dir = Some(dir_value(&mut it, "--profile"));
            }
            "--insight" => {
                insight_dir = Some(dir_value(&mut it, "--insight"));
            }
            "--obs" => {
                obs_dir = Some(dir_value(&mut it, "--obs"));
            }
            "--sentinel" => sentinel = true,
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--seed N] [--chaos-seed N] [--json] [--trace DIR] [--metrics DIR] [--profile DIR] [--insight DIR] [--obs DIR] [--sentinel] [list|all|fig2|table1|table2|fig7|table3|fig8|fig9|table4|fig10|table5|gcstats|shadow|ablations|combination|recovery]"
                );
                println!("repro compare BASELINE CURRENT [--bench-out FILE]");
                println!("repro diff BASELINE CURRENT [--bench-out FILE]");
                println!("repro top ITEM [--quick] [--seed N] [--chaos-seed N] [--top N]");
                println!("repro explain ITEM [--quick] [--seed N] [--chaos-seed N] [--slowest N]");
                println!(
                    "repro check ITEM... [--quick] [--strict] [--json] [--seed N] [--chaos-seed N]"
                );
                println!(
                    "repro timeline ITEM [--quick] [--seed N] [--chaos-seed N] [--window NS] [--json|--svg]"
                );
                println!("repro lag BASELINE CURRENT");
                return;
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} (see `repro --help`)"))
            }
            other => cmds.push(other.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".into());
    }
    if cmds.iter().any(|c| c == "list") {
        list_items();
        return;
    }
    const KNOWN: [&str; 16] = [
        "all",
        "fig2",
        "table1",
        "table2",
        "fig7",
        "table3",
        "fig8",
        "fig9",
        "table4",
        "fig10",
        "table5",
        "gcstats",
        "shadow",
        "ablations",
        "combination",
        "recovery",
    ];
    for c in &cmds {
        if !KNOWN.contains(&c.as_str()) {
            die(&format!(
                "unknown item {c:?} (run `repro list` for the available items)"
            ));
        }
    }
    // `--obs DIR` is the umbrella: every artifact family, one directory,
    // one pass. Specific flags given alongside it keep their own
    // directories.
    if let Some(dir) = &obs_dir {
        trace_dir.get_or_insert_with(|| dir.clone());
        metrics_dir.get_or_insert_with(|| dir.clone());
        profile_dir.get_or_insert_with(|| dir.clone());
        insight_dir.get_or_insert_with(|| dir.clone());
        sentinel = true;
    }
    if profile_dir.is_some() && beehive_profiler::COMPILED_OFF {
        die("--profile is unavailable: this binary was built with beehive-profiler/compile-off");
    }
    if sentinel && (beehive_telemetry::COMPILED_OFF || beehive_sentinel::COMPILED_OFF) {
        die("--sentinel is unavailable: this binary was built with telemetry or sentinel compile-off");
    }
    for dir in [&trace_dir, &insight_dir, &metrics_dir, &profile_dir]
        .into_iter()
        .flatten()
    {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("creating {}: {e}", dir.display())));
    }
    let mut run = Runner::new(flags.profile);
    run.plan = ObsPlan {
        // Attribution reads the recorded trace.
        trace: trace_dir.is_some() || insight_dir.is_some(),
        metrics: metrics_dir.is_some(),
        profile: profile_dir.is_some(),
        sentinel,
        // The elasticity timeline rides the same recorder: one more
        // consumer, two more artifacts per item.
        observe: obs_dir.is_some(),
        ..ObsPlan::default()
    };

    // One artifact flush per item: profiles feed the trace summary, traces
    // feed both the trace files and the insight document, the online
    // checker's verdicts gate the exit status.
    let mut sentinel_violations = 0usize;
    let mut flush = |name: &str, art: Artifacts| {
        flush_profiles(profile_dir.as_deref(), name, &art.profiles);
        flush_traces(trace_dir.as_deref(), name, &art.traces, &art.profiles);
        flush_insight(insight_dir.as_deref(), name, &art.traces);
        flush_metrics(metrics_dir.as_deref(), name, art.metrics);
        flush_timeline(obs_dir.as_deref(), name, art.timelines);
        sentinel_violations += flush_sentinel(obs_dir.as_deref(), name, art.checks);
    };

    let all = cmds.iter().any(|c| c == "all");
    let want = |name: &str| all || cmds.iter().any(|c| c == name);
    let apps = AppKind::all();
    // In JSON mode every section appends a RunReport; one array document is
    // printed at the end.
    let mut reports: Vec<RunReport> = Vec::new();

    if want("table1") {
        if json {
            reports.push(RunReport::new(
                "table1",
                Json::obj([("rows".into(), Json::arr(table1().iter()))]),
            ));
        } else {
            banner("Table 1 — scaling solutions compared");
            println!(
                "{:<14} {:<18} {:<14} {:<16} {:<12} Auto-scaling",
                "Solution", "Min running time", "Billing", "Preparation", "Config"
            );
            for row in table1() {
                println!(
                    "{:<14} {:<18} {:<14} {:<16} {:<12} {}",
                    row.name,
                    row.min_running_time,
                    row.billing_granularity,
                    row.preparation_time,
                    row.config_granularity,
                    if row.auto_scaling { "yes" } else { "no" }
                );
            }
        }
    }

    if want("fig2") {
        let rep = fig2(&mut run);
        if json {
            reports.push(RunReport::new("fig2", rep.to_json()));
        } else {
            banner("Figure 2");
            println!("{rep}");
        }
        flush("fig2", run.take());
    }

    if want("table2") {
        let rep = table2();
        if json {
            reports.push(RunReport::new("table2", rep.to_json()));
        } else {
            banner("Table 2");
            println!("{rep}");
        }
    }

    if want("fig7") || want("table3") {
        if !json {
            banner("Figure 7 + Table 3");
        }
        let mut table3: Vec<(AppKind, Vec<(String, f64)>)> = Vec::new();
        let mut fig7_bodies = Vec::new();
        for kind in apps {
            let rep = fig7(kind, &mut run);
            if json {
                fig7_bodies.push(rep.to_json());
            } else {
                println!("{rep}");
            }
            table3.push((
                kind,
                rep.rows
                    .iter()
                    .map(|r| (r.strategy.label().to_string(), r.scaling_cost))
                    .collect(),
            ));
        }
        if json {
            reports.push(RunReport::new(
                "fig7",
                Json::obj([("apps".into(), Json::Arr(fig7_bodies))]),
            ));
            reports.push(RunReport::new(
                "table3",
                Json::obj([(
                    "costs".into(),
                    Json::Arr(
                        table3
                            .iter()
                            .map(|(kind, costs)| {
                                Json::obj([
                                    ("app".into(), Json::from(kind.name())),
                                    (
                                        "by_strategy".into(),
                                        Json::Obj(
                                            costs
                                                .iter()
                                                .map(|(l, c)| (l.clone(), Json::from(*c)))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            ));
        } else {
            println!("Table 3 — financial cost ($) for scaling in Figure 7");
            if let Some((_, first)) = table3.first() {
                print!("{:<22}", "Scaling solutions");
                for (k, _) in &table3 {
                    print!("{:>12}", k.name());
                }
                println!();
                for (i, (label, _)) in first.iter().enumerate() {
                    print!("{:<22}", label);
                    for (_, costs) in &table3 {
                        print!("{:>12.4}", costs[i].1);
                    }
                    println!();
                }
            }
        }
        flush("fig7", run.take());
    }

    if want("fig8") {
        if json {
            let bodies: Vec<Json> = apps.iter().map(|&k| fig8(k, &mut run).to_json()).collect();
            reports.push(RunReport::new(
                "fig8",
                Json::obj([("apps".into(), Json::Arr(bodies))]),
            ));
        } else {
            banner("Figure 8");
            for kind in apps {
                println!("{}", fig8(kind, &mut run));
            }
        }
        flush("fig8", run.take());
    }

    if want("fig9") {
        let mut kinds = vec![AppKind::Pybbs];
        if !run.profile.quick {
            kinds.extend([AppKind::Blog, AppKind::Thumbnail]);
        }
        if json {
            let bodies: Vec<Json> = kinds.iter().map(|&k| fig9(k, &mut run).to_json()).collect();
            reports.push(RunReport::new(
                "fig9",
                Json::obj([("apps".into(), Json::Arr(bodies))]),
            ));
        } else {
            banner("Figure 9");
            for kind in kinds {
                println!("{}", fig9(kind, &mut run));
            }
        }
        flush("fig9", run.take());
    }

    if want("table4") {
        let rep = table4(&apps, &mut run);
        if json {
            reports.push(RunReport::new("table4", rep.to_json()));
        } else {
            banner("Table 4");
            println!("{rep}");
        }
        flush("table4", run.take());
    }

    if want("fig10") {
        let rep = fig10(&mut run);
        if json {
            reports.push(RunReport::new("fig10", rep.to_json()));
        } else {
            banner("Figure 10");
            println!("{rep}");
        }
        flush("fig10", run.take());
    }

    if want("table5") {
        let rep = table5(&apps, &mut run);
        if json {
            reports.push(RunReport::new("table5", rep.to_json()));
        } else {
            banner("Table 5");
            println!("{rep}");
        }
        flush("table5", run.take());
    }

    if want("gcstats") {
        let rep = gc_stats(&apps, &mut run);
        if json {
            reports.push(RunReport::new("gcstats", rep.to_json()));
        } else {
            banner("§5.6 — memory consumption and GC");
            println!("{rep}");
        }
        flush("gcstats", run.take());
    }

    if want("shadow") {
        if json {
            let bodies: Vec<Json> = apps
                .iter()
                .map(|&k| shadow_breakdown(k, &mut run).to_json())
                .collect();
            reports.push(RunReport::new(
                "shadow",
                Json::obj([("apps".into(), Json::Arr(bodies))]),
            ));
        } else {
            banner("§5.6 — shadow execution");
            for kind in apps {
                println!("{}", shadow_breakdown(kind, &mut run));
            }
        }
        flush("shadow", run.take());
    }

    if want("ablations") {
        let rep = ablation(AppKind::Pybbs, &mut run);
        if json {
            reports.push(RunReport::new("ablations", rep.to_json()));
        } else {
            banner("Ablations");
            println!("{rep}");
        }
        flush("ablations", run.take());
    }

    if want("combination") {
        let rep = combination(AppKind::Pybbs, &mut run);
        if json {
            reports.push(RunReport::new("combination", rep.to_json()));
        } else {
            banner("§5.7 — combination mode");
            println!("{rep}");
        }
        flush("combination", run.take());
    }

    if want("recovery") {
        let rep = recovery(AppKind::Pybbs, &mut run, flags.chaos_seed());
        if json {
            reports.push(RunReport::new("recovery", rep.to_json()));
        } else {
            banner("§4.5 — failure recovery under fault injection");
            println!("{rep}");
        }
        flush("recovery", run.take());
    }

    if json {
        let doc = Json::Arr(
            reports
                .iter()
                .map(|r| {
                    Json::obj([
                        ("title".into(), Json::from(r.title.clone())),
                        ("body".into(), r.body.clone()),
                    ])
                })
                .collect(),
        );
        println!("{}", doc.render());
    }
    if sentinel_violations > 0 {
        eprintln!("sentinel: {sentinel_violations} invariant violation(s) detected (see above)");
        std::process::exit(1);
    }
}

/// `repro list`: every runnable item with a one-line description.
fn list_items() {
    let items: [(&str, &str); 16] = [
        ("all", "every item below, in paper order"),
        (
            "fig2",
            "motivation: closed-loop latency of a vanilla server under load",
        ),
        (
            "table1",
            "scaling solutions compared (billing, preparation, granularity)",
        ),
        ("table2", "application suite and workload characteristics"),
        ("fig7", "burst latency timelines for every scaling strategy"),
        ("table3", "financial cost of the scaling in Figure 7"),
        ("fig8", "sub-second elasticity around the scaling trigger"),
        ("fig9", "offload-ratio sweep: latency vs offloaded fraction"),
        (
            "table4",
            "SLO-driven offloading controller outcomes per app",
        ),
        ("fig10", "SLO controller timeline under a burst"),
        (
            "table5",
            "fallback and synchronization counts per offloaded request",
        ),
        ("gcstats", "§5.6 memory consumption and GC pauses"),
        ("shadow", "§5.6 shadow-execution warm-up breakdown"),
        (
            "ablations",
            "feature ablations (shadowing, proxy, refinement) on pybbs",
        ),
        (
            "combination",
            "§5.7 Semi-FaaS bridging an on-demand instance boot",
        ),
        (
            "recovery",
            "§4.5 MTTR and latency under injected instance crashes",
        ),
    ];
    println!("Runnable items (repro [flags] <item>...):");
    for (name, desc) in items {
        println!("  {name:<12} {desc}");
    }
    let subcommands: [(&str, &str); 7] = [
        (
            "top",
            "hottest simulated frames for one item (repro top ITEM)",
        ),
        (
            "explain",
            "latency attribution, SLO burn and slowest requests (repro explain ITEM)",
        ),
        (
            "check",
            "replay traces through the conformance engine (repro check ITEM...)",
        ),
        (
            "timeline",
            "elasticity timelines and scale-up lag for one item (repro timeline ITEM)",
        ),
        (
            "lag",
            "diff scale-up lag between two --obs directories (repro lag BASE CUR)",
        ),
        (
            "compare",
            "regression-gate two --metrics directories (repro compare BASE CUR)",
        ),
        (
            "diff",
            "compare plus root-cause diagnosis of regressed latency (repro diff BASE CUR)",
        ),
    ];
    println!("Subcommands:");
    for (name, desc) in subcommands {
        println!("  {name:<12} {desc}");
    }
    println!("Umbrella flags:");
    println!(
        "  --obs DIR    write every artifact family in one pass: trace + metrics + profile + insight + sentinel conformance reports + elasticity timelines"
    );
    println!("  --sentinel   run the online conformance checker in every simulation (exit 1 on violations)");
}

/// Write the item's traces as `DIR/<name>.trace.json` (Chrome trace-event
/// format) plus `DIR/<name>.summary.json` (per-request critical-path
/// summary). When `profiles` holds a call-tree profile for a scenario
/// label, that scenario's summary gains a `"hottest"` per-lane top-methods
/// table. No-op when tracing is off or nothing ran.
fn flush_traces(
    dir: Option<&std::path::Path>,
    name: &str,
    traces: &[(String, beehive_telemetry::Trace)],
    profiles: &[(String, beehive_profiler::Profile)],
) {
    let Some(dir) = dir else { return };
    if traces.is_empty() {
        return;
    }
    let trace_path = dir.join(format!("{name}.trace.json"));
    std::fs::write(
        &trace_path,
        beehive_telemetry::chrome::chrome_trace_string(traces),
    )
    .unwrap_or_else(|e| die(&format!("writing {}: {e}", trace_path.display())));
    let summary_path = dir.join(format!("{name}.summary.json"));
    let summary = beehive_telemetry::summary::critical_path_with(traces, &|label| {
        profiles
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, p)| p.hottest_json(5))
    });
    std::fs::write(&summary_path, summary.render())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", summary_path.display())));
    eprintln!(
        "trace: wrote {} ({} scenarios) and {}",
        trace_path.display(),
        traces.len(),
        summary_path.display()
    );
}

/// Write the latency-attribution + SLO document for the item's traces as
/// `DIR/<name>.insight.json` (the `beehive_insight` JSON shape). No-op
/// when `--insight` is off or nothing ran.
fn flush_insight(
    dir: Option<&std::path::Path>,
    name: &str,
    traces: &[(String, beehive_telemetry::Trace)],
) {
    let Some(dir) = dir else { return };
    if traces.is_empty() {
        return;
    }
    let doc = beehive_insight::InsightDoc::from_traces(
        traces,
        &beehive_insight::SloPolicy::default(),
        beehive_metrics::EXEMPLAR_K,
    );
    let path = dir.join(format!("{name}.insight.json"));
    std::fs::write(&path, doc.to_json().render())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
    eprintln!(
        "insight: wrote {} ({} scenarios)",
        path.display(),
        doc.attributions.len()
    );
}

/// Write the item's call-tree profiles as `DIR/<name>.folded`
/// (Brendan Gregg collapsed stacks — the scenario label, sanitized, is the
/// first frame of every line, so one file holds every scenario of the item
/// and feeds flamegraph.pl / inferno unchanged) plus `DIR/<name>.profile.json`
/// (the full per-lane call trees and per-instance totals). No-op when
/// profiling is off or nothing ran.
fn flush_profiles(
    dir: Option<&std::path::Path>,
    name: &str,
    profiles: &[(String, beehive_profiler::Profile)],
) {
    let Some(dir) = dir else { return };
    if profiles.is_empty() {
        return;
    }
    let mut folded = String::new();
    for (label, p) in profiles {
        // Folded frames may not contain the `;` separator or the trailing
        // count's space; scenario labels may.
        let prefix: String = label
            .chars()
            .map(|c| if c == ' ' || c == ';' { '_' } else { c })
            .collect();
        for line in p.folded().lines() {
            folded.push_str(&prefix);
            folded.push(';');
            folded.push_str(line);
            folded.push('\n');
        }
    }
    let folded_path = dir.join(format!("{name}.folded"));
    std::fs::write(&folded_path, folded)
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", folded_path.display())));
    let json_path = dir.join(format!("{name}.profile.json"));
    let doc = Json::obj([(
        "scenarios".into(),
        Json::Arr(
            profiles
                .iter()
                .map(|(label, p)| {
                    Json::obj([
                        ("label".into(), Json::from(label.clone())),
                        ("profile".into(), p.to_json()),
                    ])
                })
                .collect(),
        ),
    )]);
    std::fs::write(&json_path, doc.render())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", json_path.display())));
    eprintln!(
        "profile: wrote {} ({} scenarios) and {}",
        folded_path.display(),
        profiles.len(),
        json_path.display()
    );
}

/// The items that run simulations, in paper order: what `all` means to the
/// subcommands that replay simulations. `table1`/`table2` run none, and
/// `table3` prices `fig7`'s runs, so it is not repeated.
const SIMULATED_ITEMS: &[&str] = &[
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "table4",
    "fig10",
    "table5",
    "gcstats",
    "shadow",
    "ablations",
    "combination",
    "recovery",
];

/// Run one item's simulations through `run`, discarding its report — the
/// runner's plan (profiling for `repro top`, tracing for `repro explain`)
/// decides what it keeps. The list of simulations mirrors the main
/// dispatch (`table1`/`table2` run none and are rejected here).
fn run_item(item: &str, run: &mut Runner, chaos_seed: u64) {
    let apps = AppKind::all();
    match item {
        "fig2" => {
            fig2(run);
        }
        "fig7" | "table3" => {
            for kind in apps {
                fig7(kind, run);
            }
        }
        "fig8" => {
            for kind in apps {
                fig8(kind, run);
            }
        }
        "fig9" => {
            let mut kinds = vec![AppKind::Pybbs];
            if !run.profile.quick {
                kinds.extend([AppKind::Blog, AppKind::Thumbnail]);
            }
            for kind in kinds {
                fig9(kind, run);
            }
        }
        "table4" => {
            table4(&apps, run);
        }
        "fig10" => {
            fig10(run);
        }
        "table5" => {
            table5(&apps, run);
        }
        "gcstats" => {
            gc_stats(&apps, run);
        }
        "shadow" => {
            for kind in apps {
                shadow_breakdown(kind, run);
            }
        }
        "ablations" => {
            ablation(AppKind::Pybbs, run);
        }
        "combination" => {
            combination(AppKind::Pybbs, run);
        }
        "recovery" => {
            recovery(AppKind::Pybbs, run, chaos_seed);
        }
        other => die(&format!(
            "item {other:?} runs no simulations (run `repro list`)"
        )),
    }
}

/// `repro top ITEM [--quick] [--seed N] [--top N]`: run one item with the
/// call-tree profiler on and print, per scenario and per endpoint lane, the
/// top-N frames by self time.
fn run_top(args: &[String]) -> ! {
    if beehive_profiler::COMPILED_OFF {
        die("`repro top` is unavailable: this binary was built with beehive-profiler/compile-off");
    }
    let mut flags = RunFlags::new();
    let mut n = 5usize;
    let mut items: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if flags.parse(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--top" => {
                n = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--top needs a positive integer"));
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} for `repro top`"))
            }
            other => items.push(other.to_string()),
        }
    }
    let [item] = items.as_slice() else {
        die("usage: repro top ITEM [--quick] [--seed N] [--chaos-seed N] [--top N]");
    };
    let mut run = Runner::new(flags.profile);
    run.plan.profile = true;
    run_item(item, &mut run, flags.chaos_seed());
    let profiles = run.take().profiles;
    if profiles.is_empty() {
        die(&format!("item {item:?} produced no profile"));
    }
    for (label, p) in &profiles {
        banner(&format!("{item} — {label}"));
        for (lane, rows) in p.hottest(n) {
            println!("\n  lane {lane}");
            println!(
                "    {:<44} {:>12} {:>12} {:>10}",
                "frame", "self_ms", "total_ms", "calls"
            );
            for r in rows {
                println!(
                    "    {:<44} {:>12.3} {:>12.3} {:>10}",
                    r.frame,
                    r.self_ns as f64 / 1e6,
                    r.total_ns as f64 / 1e6,
                    r.calls
                );
            }
        }
    }
    std::process::exit(0)
}

/// Basis points rendered as a multiplier: `12_345` → `"1.23x"`.
fn bp_x(bp: u64) -> String {
    format!("{}.{:02}x", bp / 10_000, (bp % 10_000) / 100)
}

/// `repro explain ITEM [--quick] [--seed N] [--chaos-seed N] [--slowest N]`:
/// run one item with tracing on and print, per scenario, the latency
/// attribution table, the SLO evaluation, and the slowest requests'
/// component breakdowns. Integer-only formatting keeps the output
/// byte-identical across worker counts.
fn run_explain(args: &[String]) -> ! {
    let mut flags = RunFlags::new();
    let mut k = beehive_metrics::EXEMPLAR_K;
    let mut items: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if flags.parse(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--slowest" => {
                k = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--slowest needs a positive integer"));
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} for `repro explain`"))
            }
            other => items.push(other.to_string()),
        }
    }
    let [item] = items.as_slice() else {
        die("usage: repro explain ITEM [--quick] [--seed N] [--chaos-seed N] [--slowest N]");
    };
    let mut run = Runner::new(flags.profile);
    run.plan.trace = true;
    run_item(item, &mut run, flags.chaos_seed());
    let traces = run.take().traces;
    if traces.is_empty() {
        die(&format!("item {item:?} produced no trace"));
    }
    let doc = beehive_insight::InsightDoc::from_traces(
        &traces,
        &beehive_insight::SloPolicy::default(),
        k,
    );
    for (rep, slo) in doc.attributions.iter().zip(&doc.slo) {
        banner(&format!("{item} — {}", rep.label));
        println!(
            "requests {} (shadows {})   attributed {}us   gc {}us   residual {}ns",
            rep.requests,
            rep.shadows,
            rep.total_ns / 1_000,
            rep.gc_pause_ns / 1_000,
            rep.residual_ns()
        );
        if rep.requests > 0 {
            println!(
                "\n  {:<18} {:>12} {:>12} {:>8}",
                "component", "total_us", "per-req_us", "share"
            );
            for c in beehive_insight::Component::ALL {
                let ns = rep.components[c as usize];
                if ns == 0 {
                    continue;
                }
                // Share in per-mille of the attributed total.
                let pm = ns * 1_000 / rep.total_ns.max(1);
                println!(
                    "  {:<18} {:>12} {:>12} {:>7}.{}%",
                    c.name(),
                    ns / 1_000,
                    rep.mean_ns(c) / 1_000,
                    pm / 10,
                    pm % 10
                );
            }
        }
        println!(
            "\n  SLO p({}.{:02}%) <= {}ms: {} — good {}/{}, budget consumed {}",
            slo.objective_bp / 100,
            slo.objective_bp % 100,
            slo.threshold_ns / 1_000_000,
            if slo.met() { "met" } else { "MISSED" },
            slo.good,
            slo.total,
            bp_x(slo.budget_consumed_bp)
        );
        for (w_ns, burn) in &slo.burn {
            println!("  burn[{:>5}s] max {}", w_ns / 1_000_000_000, bp_x(*burn));
        }
        if !rep.slowest.is_empty() {
            println!("\n  slowest requests:");
            for r in &rep.slowest {
                let mut parts: Vec<(&'static str, u64)> = r.nonzero();
                parts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                let breakdown: Vec<String> = parts
                    .iter()
                    .map(|(n, ns)| format!("{n} {}us", ns / 1_000))
                    .collect();
                println!(
                    "  #{} {} {}us = {}",
                    r.rid,
                    r.kind,
                    r.total_ns / 1_000,
                    breakdown.join(" + ")
                );
            }
        }
    }
    std::process::exit(0)
}

/// With `--obs`, write the item's online conformance checks as
/// `DIR/<name>.sentinel.json`. Violating scenarios are rendered to stderr;
/// returns the violation count so `main` can gate the exit status. No-op
/// when the checker is off or nothing ran.
fn flush_sentinel(
    dir: Option<&std::path::Path>,
    name: &str,
    checks: Vec<beehive_sentinel::ScenarioCheck>,
) -> usize {
    if checks.is_empty() {
        return 0;
    }
    let report = beehive_sentinel::SentinelReport::from_checks(false, checks);
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.sentinel.json"));
        std::fs::write(&path, report.to_json().render())
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
        eprintln!(
            "sentinel: wrote {} ({} scenarios)",
            path.display(),
            report.scenarios.len()
        );
    }
    let violations = report.violations();
    if violations > 0 {
        eprint!("{}", report.render_text());
        eprintln!("sentinel: {name}: {violations} violation(s)");
    }
    violations
}

/// `repro check ITEM... [--quick] [--strict] [--json] [--seed N]
/// [--chaos-seed N]`: run the named items with tracing on, replay every
/// recorded trace through a fresh conformance engine, print the verdicts
/// (text, or the `SentinelReport` JSON document with `--json`) and exit 1
/// when any invariant was violated. Scenario labels are prefixed with the
/// item name, so one report covers several items without collisions.
/// `all` expands to every item that simulates ([`SIMULATED_ITEMS`]).
fn run_check(args: &[String]) -> ! {
    if beehive_telemetry::COMPILED_OFF {
        die("`repro check` is unavailable: this binary was built with beehive-telemetry/compile-off");
    }
    let mut flags = RunFlags::new();
    let mut strict = false;
    let mut json = false;
    let mut items: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if flags.parse(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--strict" => strict = true,
            "--json" => json = true,
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} for `repro check`"))
            }
            other => items.push(other.to_string()),
        }
    }
    if items.is_empty() {
        die("usage: repro check ITEM... [--quick] [--strict] [--json] [--seed N] [--chaos-seed N]");
    }
    let items: Vec<&str> = items
        .iter()
        .flat_map(|item| match item.as_str() {
            "all" => SIMULATED_ITEMS.to_vec(),
            item => vec![item],
        })
        .collect();
    let mut run = Runner::new(flags.profile);
    run.plan.trace = true;
    let cfg = beehive_sentinel::SentinelConfig {
        strict,
        // The experiment drivers all run the default retry policy; pinning
        // it lets the checker bound when `recovery:degrade` may fire.
        max_retries: Some(beehive_chaos::RetryPolicy::default().max_retries),
        ..Default::default()
    };
    let mut scenarios = Vec::new();
    for item in &items {
        run_item(item, &mut run, flags.chaos_seed());
        let traces = run.take().traces;
        if traces.is_empty() {
            die(&format!("item {item:?} produced no trace"));
        }
        let labelled: Vec<(String, beehive_telemetry::Trace)> = traces
            .into_iter()
            .map(|(label, trace)| (format!("{item}/{label}"), trace))
            .collect();
        scenarios.extend(beehive_sentinel::SentinelReport::from_traces(&labelled, &cfg).scenarios);
    }
    let report = beehive_sentinel::SentinelReport::from_checks(strict, scenarios);
    if json {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.render_text());
    }
    if !report.clean() {
        eprintln!("check: {} invariant violation(s)", report.violations());
        std::process::exit(1);
    }
    eprintln!("check: ok — {} scenario(s) conform", report.scenarios.len());
    std::process::exit(0)
}

/// With `--obs`, write the item's elasticity timelines as
/// `DIR/<name>.timeline.json` plus `DIR/<name>.timeline.svg`. No-op when
/// the observer is off or nothing ran.
fn flush_timeline(
    dir: Option<&std::path::Path>,
    name: &str,
    series: Vec<beehive_observatory::ScenarioSeries>,
) {
    let Some(dir) = dir else { return };
    if series.is_empty() {
        return;
    }
    let doc = beehive_observatory::TimelineDoc::from_series(series);
    let json_path = dir.join(format!("{name}.timeline.json"));
    std::fs::write(&json_path, doc.to_json().render())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", json_path.display())));
    let svg_path = dir.join(format!("{name}.timeline.svg"));
    std::fs::write(&svg_path, doc.render_svg())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", svg_path.display())));
    eprintln!(
        "timeline: wrote {} ({} scenarios) and {}",
        json_path.display(),
        doc.scenarios.len(),
        svg_path.display()
    );
}

/// `repro timeline ITEM [--quick] [--seed N] [--chaos-seed N] [--window NS]
/// [--json|--svg]`: run one item with the streaming observatory reducer on
/// and print every scenario's virtual-time series and derived elasticity
/// signals — ASCII sparklines by default, the `TimelineDoc` JSON artifact
/// with `--json`, a self-contained SVG panel chart with `--svg`.
fn run_timeline(args: &[String]) -> ! {
    if beehive_telemetry::COMPILED_OFF {
        die("`repro timeline` is unavailable: this binary was built with beehive-telemetry/compile-off");
    }
    let mut flags = RunFlags::new();
    let mut window = beehive_observatory::DEFAULT_WINDOW;
    let mut json = false;
    let mut svg = false;
    let mut items: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if flags.parse(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--json" => json = true,
            "--svg" => svg = true,
            "--window" => {
                let ns: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--window needs a positive nanosecond count"));
                window = beehive_sim::Duration::from_nanos(ns);
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} for `repro timeline`"))
            }
            other => items.push(other.to_string()),
        }
    }
    if json && svg {
        die("--json and --svg are mutually exclusive");
    }
    let [item] = items.as_slice() else {
        die("usage: repro timeline ITEM [--quick] [--seed N] [--chaos-seed N] [--window NS] [--json|--svg]");
    };
    let mut run = Runner::new(flags.profile);
    run.plan.observe = true;
    run.plan.observe_window = window;
    run_item(item, &mut run, flags.chaos_seed());
    let series = run.take().timelines;
    if series.is_empty() {
        die(&format!("item {item:?} produced no timeline"));
    }
    let doc = beehive_observatory::TimelineDoc::from_series(series);
    if json {
        println!("{}", doc.to_json().render());
    } else if svg {
        println!("{}", doc.render_svg());
    } else {
        print!("{}", doc.render_text());
    }
    std::process::exit(0)
}

/// Load and merge every `*.timeline.json` document under `dir`, scenario
/// labels prefixed with the item stem so several items diff without
/// collisions. Files are visited in name order for a deterministic merge.
fn load_timelines(dir: &std::path::Path) -> beehive_observatory::TimelineDoc {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| die(&format!("reading {}: {e}", dir.display())));
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".timeline.json"))
        .collect();
    names.sort();
    let mut scenarios = Vec::new();
    for name in &names {
        let stem = name.trim_end_matches(".timeline.json");
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display())));
        let doc = beehive_observatory::TimelineDoc::parse(&text)
            .unwrap_or_else(|| die(&format!("{}: not a timeline document", path.display())));
        for mut s in doc.scenarios {
            s.label = format!("{stem}/{}", s.label);
            scenarios.push(s);
        }
    }
    if scenarios.is_empty() {
        die(&format!(
            "{}: no *.timeline.json documents (write them with --obs DIR)",
            dir.display()
        ));
    }
    beehive_observatory::TimelineDoc::from_series(scenarios)
}

/// `repro lag BASELINE CURRENT`: diff the per-burst scale-up lag between
/// two `--obs` artifact directories and exit 1 when any burst's lag
/// regressed beyond the tolerance band (a quarter of the baseline lag plus
/// one bin width).
fn run_lag(args: &[String]) -> ! {
    let mut dirs: Vec<std::path::PathBuf> = Vec::new();
    for a in args {
        if a.starts_with('-') {
            die(&format!("unknown flag {a:?} for `repro lag`"));
        }
        dirs.push(std::path::PathBuf::from(a));
    }
    let [baseline, current] = dirs.as_slice() else {
        die("usage: repro lag BASELINE CURRENT");
    };
    let base = load_timelines(baseline);
    let cur = load_timelines(current);
    let (rows, regressed) = beehive_observatory::lag_diff(&base, &cur);
    print!("{}", beehive_observatory::render_lag_rows(&rows));
    if regressed {
        eprintln!("lag: scale-up lag regressed");
        std::process::exit(1);
    }
    eprintln!("lag: ok — {} burst(s) compared", rows.len());
    std::process::exit(0)
}

/// The flags every simulating command shares: `--quick`, `--seed N` and
/// `--chaos-seed N`.
struct RunFlags {
    profile: Profile,
    chaos_seed: Option<u64>,
}

impl RunFlags {
    fn new() -> Self {
        RunFlags {
            profile: Profile::full(),
            chaos_seed: None,
        }
    }

    /// Consume `flag` (and its value) when it is one of the shared flags;
    /// false leaves it to the caller's own flags.
    fn parse(&mut self, flag: &str, it: &mut impl Iterator<Item = String>) -> bool {
        let mut int = |flag: &str| -> u64 {
            it.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&format!("{flag} needs an integer")))
        };
        match flag {
            "--quick" => self.profile.quick = true,
            "--seed" => self.profile.seed = int(flag),
            "--chaos-seed" => self.chaos_seed = Some(int(flag)),
            _ => return false,
        }
        true
    }

    /// The fault-plan seed: `--chaos-seed`, else the workload seed.
    fn chaos_seed(&self) -> u64 {
        self.chaos_seed.unwrap_or(self.profile.seed)
    }
}

/// Pull the directory value of `flag` off the argument iterator; a missing
/// value or one that looks like another flag is a usage error.
fn dir_value(it: &mut impl Iterator<Item = String>, flag: &str) -> std::path::PathBuf {
    match it.next() {
        Some(v) if !v.starts_with('-') => std::path::PathBuf::from(v),
        _ => die(&format!("{flag} needs a directory")),
    }
}

/// Write the item's metrics snapshots as `DIR/<name>.metrics.json` (the
/// `beehive_metrics` JSON shape) plus `DIR/<name>.prom` (Prometheus text
/// exposition). No-op when metrics are off or nothing ran.
fn flush_metrics(
    dir: Option<&std::path::Path>,
    name: &str,
    scenarios: Vec<beehive_metrics::ScenarioMetrics>,
) {
    let Some(dir) = dir else { return };
    if scenarios.is_empty() {
        return;
    }
    let snap = beehive_metrics::MetricsSnapshot {
        window: beehive_metrics::DEFAULT_WINDOW,
        scenarios,
    };
    let json_path = dir.join(format!("{name}.metrics.json"));
    std::fs::write(&json_path, snap.render())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", json_path.display())));
    let prom_path = dir.join(format!("{name}.prom"));
    std::fs::write(&prom_path, beehive_metrics::prometheus(&snap, name))
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", prom_path.display())));
    eprintln!(
        "metrics: wrote {} ({} scenarios) and {}",
        json_path.display(),
        snap.scenarios.len(),
        prom_path.display()
    );
}

/// Load every `*.metrics.json` snapshot in `dir`, sorted by file name.
fn load_snapshots(dir: &std::path::Path) -> Vec<(String, beehive_metrics::MetricsSnapshot)> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| die(&format!("reading {}: {e}", dir.display())));
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".metrics.json"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let path = dir.join(&n);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display())));
            let snap = beehive_metrics::MetricsSnapshot::parse(&text)
                .unwrap_or_else(|e| die(&format!("parsing {}: {e}", path.display())));
            let item = n.trim_end_matches(".metrics.json").to_string();
            (item, snap)
        })
        .collect()
}

/// Read one item's `*.insight.json` from an artifact directory, when
/// present. Unparseable documents are usage-grade errors (exit 2).
fn load_insight(dir: &std::path::Path, item: &str) -> Option<beehive_insight::InsightDoc> {
    let path = dir.join(format!("{item}.insight.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    Some(
        beehive_insight::InsightDoc::parse(&text)
            .unwrap_or_else(|e| die(&format!("parsing {}: {e}", path.display()))),
    )
}

/// `repro compare BASELINE CURRENT [--bench-out FILE]` and its diagnosing
/// sibling `repro diff`: diff every watched metric of the snapshots in two
/// `--metrics` output directories. With `diagnose` (diff), regressed
/// latency metrics are additionally root-caused from the directories'
/// `--insight` documents and `--profile` folded stacks, when present.
/// Exits 0 when nothing regressed, 1 when something did, 2 on usage
/// errors.
fn run_compare(args: &[String], diagnose: bool) -> ! {
    let cmd = if diagnose { "diff" } else { "compare" };
    let mut dirs: Vec<std::path::PathBuf> = Vec::new();
    let mut bench_out: Option<std::path::PathBuf> = None;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench-out" => match it.next() {
                Some(v) if !v.starts_with('-') => bench_out = Some(std::path::PathBuf::from(v)),
                _ => die("--bench-out needs a file"),
            },
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other:?} for `repro {cmd}`"))
            }
            other => dirs.push(std::path::PathBuf::from(other)),
        }
    }
    let [baseline_dir, current_dir] = dirs.as_slice() else {
        die(&format!(
            "usage: repro {cmd} BASELINE CURRENT [--bench-out FILE]"
        ));
    };

    let baseline = load_snapshots(baseline_dir);
    if baseline.is_empty() {
        die(&format!(
            "no *.metrics.json snapshots in {}",
            baseline_dir.display()
        ));
    }
    let mut regressed = false;
    let mut file_reports: Vec<Json> = Vec::new();
    for (item, base) in &baseline {
        let current_path = current_dir.join(format!("{item}.metrics.json"));
        let (deltas, cur) = match std::fs::read_to_string(&current_path) {
            Ok(text) => {
                let cur = beehive_metrics::MetricsSnapshot::parse(&text)
                    .unwrap_or_else(|e| die(&format!("parsing {}: {e}", current_path.display())));
                (beehive_metrics::compare(base, &cur), cur)
            }
            Err(_) => {
                println!("{item}: MISSING {}", current_path.display());
                regressed = true;
                file_reports.push(Json::obj([
                    ("item".into(), Json::from(item.clone())),
                    ("missing".into(), Json::from(true)),
                ]));
                continue;
            }
        };
        // Diff-mode diagnosis inputs, all optional per directory.
        let base_insight = diagnose.then(|| load_insight(baseline_dir, item)).flatten();
        let cur_insight = diagnose.then(|| load_insight(current_dir, item)).flatten();
        let base_folded = diagnose
            .then(|| std::fs::read_to_string(baseline_dir.join(format!("{item}.folded"))).ok())
            .flatten();
        let cur_folded = diagnose
            .then(|| std::fs::read_to_string(current_dir.join(format!("{item}.folded"))).ok())
            .flatten();
        let mut delta_json: Vec<Json> = Vec::new();
        for d in &deltas {
            let verdict = if d.regressed {
                "REGRESSED"
            } else if d.improved {
                "improved"
            } else {
                "ok"
            };
            let rel = d.relative();
            let change = if rel.is_finite() {
                format!("{:+.1}%", rel * 100.0)
            } else {
                "n/a".to_string()
            };
            println!(
                "{item}: {verdict:<9} {:<40} {:<28} {:>12} -> {:>12}  ({change}, tol +{:.0}%)",
                d.metric,
                d.scenario,
                d.baseline.map_or("-".to_string(), |v| v.to_string()),
                d.current.map_or("-".to_string(), |v| v.to_string()),
                d.tolerance * 100.0
            );
            regressed |= d.regressed;
            let mut fields = vec![
                ("scenario".into(), Json::from(d.scenario.clone())),
                ("metric".into(), Json::from(d.metric.clone())),
                ("baseline".into(), Json::from(d.baseline)),
                ("current".into(), Json::from(d.current)),
                ("tolerance".into(), Json::from(d.tolerance)),
                ("regressed".into(), Json::from(d.regressed)),
                ("improved".into(), Json::from(d.improved)),
            ];
            if d.regressed && diagnose && beehive_insight::is_latency_metric(&d.metric) {
                let diag = beehive_insight::diagnose(
                    d,
                    base_insight
                        .as_ref()
                        .and_then(|i| i.attribution(&d.scenario)),
                    cur_insight
                        .as_ref()
                        .and_then(|i| i.attribution(&d.scenario)),
                    base.scenarios.iter().find(|s| s.label == d.scenario),
                    cur.scenarios.iter().find(|s| s.label == d.scenario),
                    match (base_folded.as_deref(), cur_folded.as_deref()) {
                        (Some(b), Some(c)) => Some((b, c)),
                        _ => None,
                    },
                );
                match diag {
                    Some(diag) => {
                        let line = diag.render();
                        println!("{item}: CAUSE     {:<40} {:<28} {line}", d.metric, d.scenario);
                        fields.push(("cause".into(), Json::from(line)));
                    }
                    None => println!(
                        "{item}: CAUSE     {:<40} {:<28} no insight artifacts (re-run with --insight)",
                        d.metric, d.scenario
                    ),
                }
            }
            delta_json.push(Json::Obj(fields));
        }
        file_reports.push(Json::obj([
            ("item".into(), Json::from(item.clone())),
            ("deltas".into(), Json::Arr(delta_json)),
        ]));
    }
    if let Some(path) = bench_out {
        let doc = Json::obj([
            (
                "baseline".into(),
                Json::from(baseline_dir.display().to_string()),
            ),
            (
                "current".into(),
                Json::from(current_dir.display().to_string()),
            ),
            ("regressed".into(), Json::from(regressed)),
            ("files".into(), Json::Arr(file_reports)),
        ]);
        std::fs::write(&path, doc.render())
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
        eprintln!("{cmd}: wrote {}", path.display());
    }
    if regressed {
        eprintln!("{cmd}: REGRESSED (see deltas above)");
        std::process::exit(1);
    }
    eprintln!("{cmd}: ok — no watched metric regressed");
    std::process::exit(0);
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: run `repro --help` for flags, items and subcommands");
    std::process::exit(2)
}
