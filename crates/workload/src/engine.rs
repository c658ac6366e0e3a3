//! Unified parallel scenario engine.
//!
//! Every experiment in the reproduction reduces to the same shape: build a
//! grid of [`SimConfig`]s, run each one through [`Sim`], and aggregate the
//! [`SimResult`]s into a report. Each run is an independent deterministic
//! simulation on its own virtual clock, so the grid is embarrassingly
//! parallel. This module is the single fan-out point:
//!
//! * [`Scenario`] — a labelled `SimConfig`,
//! * [`run_all`] — executes every scenario across a `std::thread::scope`
//!   worker pool (capped at available parallelism) and returns
//!   [`RunOutcome`]s **in input order**, so aggregation code is oblivious
//!   to scheduling and every report stays bit-identical to a serial run,
//! * [`Runner`] — what the experiment drivers run through: a [`Profile`],
//!   an [`ObsPlan`] written onto every scenario, and the labelled
//!   [`Artifacts`] (traces, metrics, profiles, conformance checks,
//!   timelines) taken out of each run's outcomes in input order,
//! * [`RunReport`] — a structured title + JSON body, the machine-readable
//!   form of a report surfaced by `repro --json`.
//!
//! Worker count can be pinned with the `BEEHIVE_WORKERS` environment
//! variable (useful for the determinism regression test, which compares
//! rendered reports at 1, 2, and 8 workers).
//!
//! # Example
//!
//! ```
//! use beehive_apps::{App, AppKind, Fidelity};
//! use beehive_sim::Duration;
//! use beehive_workload::driver::{ArrivalPattern, SimConfig};
//! use beehive_workload::engine::{ObsPlan, Runner, Scenario};
//! use beehive_workload::experiment::Profile;
//! use beehive_workload::Strategy;
//!
//! let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
//! let scenarios: Vec<Scenario> = [4.0, 8.0]
//!     .iter()
//!     .map(|&rps| {
//!         let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
//!         cfg.arrivals = ArrivalPattern::constant(rps);
//!         cfg.horizon = Duration::from_secs(4);
//!         Scenario::new(format!("rps={rps}"), cfg)
//!     })
//!     .collect();
//! let mut run = Runner::new(Profile::quick());
//! run.plan = ObsPlan { metrics: true, ..ObsPlan::default() };
//! let outcomes = run.run(scenarios);
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].label, "rps=4");
//! let artifacts = run.take();
//! assert_eq!(artifacts.metrics[1].label, "rps=8");
//! assert!(artifacts.traces.is_empty());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use beehive_sim::json::Json;
use beehive_sim::Duration;
use beehive_telemetry::Trace;

use crate::config::{SimConfig, SimResult};
use crate::driver::Sim;
use crate::experiment::Profile;

/// What every simulation of a [`Runner`] observes: the five
/// [`SimConfig`] observation flags plus the timeline bin width. The
/// default observes nothing, like [`SimConfig::new`].
#[derive(Clone, Copy, Debug)]
pub struct ObsPlan {
    /// Record traces ([`SimConfig::trace`]).
    pub trace: bool,
    /// Keep live metrics registries ([`SimConfig::metrics`]).
    pub metrics: bool,
    /// Record call-tree profiles ([`SimConfig::profile`]).
    pub profile: bool,
    /// Run the online conformance checker ([`SimConfig::sentinel`]).
    pub sentinel: bool,
    /// Fold elasticity timelines ([`SimConfig::observe`]).
    pub observe: bool,
    /// Timeline bin width ([`SimConfig::observe_window`]).
    pub observe_window: Duration,
}

impl Default for ObsPlan {
    fn default() -> Self {
        ObsPlan {
            trace: false,
            metrics: false,
            profile: false,
            sentinel: false,
            observe: false,
            observe_window: beehive_observatory::DEFAULT_WINDOW,
        }
    }
}

impl ObsPlan {
    /// Write this plan onto `cfg`'s observation fields.
    fn apply(&self, cfg: &mut SimConfig) {
        cfg.trace = self.trace;
        cfg.metrics = self.metrics;
        cfg.profile = self.profile;
        cfg.sentinel = self.sentinel;
        cfg.observe = self.observe;
        cfg.observe_window = self.observe_window;
    }
}

/// The observation artifacts of a batch of runs, each labelled with its
/// scenario label and kept in input order — so exports built from them are
/// byte-identical under any `BEEHIVE_WORKERS`.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// Recorded traces.
    pub traces: Vec<(String, Trace)>,
    /// Metrics snapshots.
    pub metrics: Vec<beehive_metrics::ScenarioMetrics>,
    /// Call-tree profiles.
    pub profiles: Vec<(String, beehive_profiler::Profile)>,
    /// Online conformance checks.
    pub checks: Vec<beehive_sentinel::ScenarioCheck>,
    /// Elasticity timelines.
    pub timelines: Vec<beehive_observatory::ScenarioSeries>,
}

impl Artifacts {
    /// Move every artifact out of `outcomes` and append it, labelled with
    /// its scenario label, in outcome order.
    pub fn take(&mut self, outcomes: &mut [RunOutcome]) {
        for o in outcomes {
            let r = &mut o.result;
            if let Some(trace) = r.trace.take() {
                self.traces.push((o.label.clone(), trace));
            }
            if let Some(reg) = r.metrics.take() {
                self.metrics.push(reg.snapshot(&o.label));
            }
            if let Some(profile) = r.profile.take() {
                self.profiles.push((o.label.clone(), profile));
            }
            if let Some(mut check) = r.sentinel.take() {
                check.label = o.label.clone();
                self.checks.push(check);
            }
            if let Some(mut series) = r.observatory.take() {
                series.label = o.label.clone();
                self.timelines.push(series);
            }
        }
    }
}

/// The experiment drivers' handle on the engine: the [`Profile`] they size
/// their grids from, the [`ObsPlan`] every run observes, and the
/// [`Artifacts`] harvested since the last [`take`](Self::take).
#[derive(Debug)]
pub struct Runner {
    /// Experiment scale and seed.
    pub profile: Profile,
    /// Observation applied to every scenario [`run`](Self::run) executes.
    pub plan: ObsPlan,
    artifacts: Artifacts,
}

impl Runner {
    /// A runner at `profile` that observes nothing.
    pub fn new(profile: Profile) -> Self {
        Runner {
            profile,
            plan: ObsPlan::default(),
            artifacts: Artifacts::default(),
        }
    }

    /// Apply the plan to every scenario, run them all (see
    /// [`run_all`]) and keep their artifacts; the returned outcomes hold
    /// none.
    pub fn run(&mut self, mut scenarios: Vec<Scenario>) -> Vec<RunOutcome> {
        for s in &mut scenarios {
            self.plan.apply(&mut s.cfg);
        }
        let mut outcomes = run_all(scenarios);
        self.artifacts.take(&mut outcomes);
        outcomes
    }

    /// Hand over every artifact kept since the last call.
    pub fn take(&mut self) -> Artifacts {
        std::mem::take(&mut self.artifacts)
    }
}

/// One labelled simulation to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label carried through to the [`RunOutcome`] (e.g.
    /// `"BeeHive/OW rps=120"`). Labels are for report bookkeeping; they do
    /// not affect the simulation.
    pub label: String,
    /// The full simulation configuration.
    pub cfg: SimConfig,
}

impl Scenario {
    /// A scenario with `label` running `cfg`.
    pub fn new(label: impl Into<String>, cfg: SimConfig) -> Self {
        Scenario {
            label: label.into(),
            cfg,
        }
    }
}

/// The result of one scenario, in the input order of [`run_all`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The scenario's label.
    pub label: String,
    /// The simulation result.
    pub result: SimResult,
}

/// Number of workers [`run_all`] uses: `BEEHIVE_WORKERS` when set, else the
/// machine's available parallelism.
///
/// An unparsable or zero `BEEHIVE_WORKERS` terminates the process with a
/// clear error: a typo'd worker count silently falling back to "all cores"
/// would invalidate the determinism experiments that pin it.
pub fn default_workers() -> usize {
    match std::env::var("BEEHIVE_WORKERS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            Ok(_) => {
                eprintln!("error: BEEHIVE_WORKERS must be >= 1 (got \"{v}\")");
                std::process::exit(2);
            }
            Err(_) => {
                eprintln!("error: BEEHIVE_WORKERS must be a positive integer (got \"{v}\")");
                std::process::exit(2);
            }
        },
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("error: BEEHIVE_WORKERS must be a positive integer (got non-unicode value)");
            std::process::exit(2);
        }
        Err(std::env::VarError::NotPresent) => {
            thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Run every scenario, fanning out over [`default_workers`] threads, and
/// return outcomes **in input order**.
///
/// Each simulation is seeded from its own `SimConfig` and runs on its own
/// virtual clock, so results are identical whatever the worker count or
/// scheduling interleaving — parallelism changes wall-clock time only.
/// Observation artifacts stay on the outcomes ([`Artifacts::take`]
/// collects them).
pub fn run_all(scenarios: Vec<Scenario>) -> Vec<RunOutcome> {
    run_all_with_workers(scenarios, default_workers())
}

/// [`run_all`] with an explicit worker count (`workers ≤ 1` runs serially
/// on the calling thread).
pub fn run_all_with_workers(scenarios: Vec<Scenario>, workers: usize) -> Vec<RunOutcome> {
    let workers = workers.min(scenarios.len()).max(1);
    if workers <= 1 {
        return scenarios
            .into_iter()
            .map(|s| RunOutcome {
                label: s.label,
                result: Sim::new(s.cfg).run(),
            })
            .collect();
    }

    // Work-stealing by atomic index: each worker claims the next unstarted
    // scenario, writes its result into that scenario's slot, and repeats.
    // Slots keep input order; the claim order is irrelevant to the output.
    let mut labels = Vec::with_capacity(scenarios.len());
    let mut configs = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        labels.push(s.label);
        configs.push(Mutex::new(Some(s.cfg)));
    }
    let slots: Vec<Mutex<Option<SimResult>>> = configs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let cfg = configs[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("scenario claimed twice");
                let result = Sim::new(cfg).run();
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });

    labels
        .into_iter()
        .zip(slots)
        .map(|(label, slot)| RunOutcome {
            label,
            result: slot
                .into_inner()
                .unwrap()
                .expect("worker pool exited with an unfilled slot"),
        })
        .collect()
}

/// A structured experiment report: a title plus a JSON body.
///
/// Every experiment module produces one `RunReport` alongside its typed
/// report struct; `repro --json` renders these instead of the Display
/// tables. Bodies contain only simulation-derived data (never wall-clock
/// readings), so rendered reports are byte-stable across machines and
/// worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report title (e.g. `"fig8"`).
    pub title: String,
    /// The report data.
    pub body: Json,
}

impl RunReport {
    /// A report titled `title` with `body`.
    pub fn new(title: impl Into<String>, body: Json) -> Self {
        RunReport {
            title: title.into(),
            body,
        }
    }

    /// Render as a single JSON object `{"title": ..., "body": ...}`.
    pub fn render(&self) -> String {
        Json::obj([
            ("title".into(), Json::from(self.title.clone())),
            ("body".into(), self.body.clone()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ArrivalPattern;
    use crate::Strategy;
    use beehive_apps::{App, AppKind, Fidelity};
    use beehive_chaos::{Fault, FaultPlan, Injector};
    use beehive_sim::Duration;

    fn tiny_scenarios(n: usize) -> Vec<Scenario> {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        (0..n)
            .map(|i| {
                let mut cfg = SimConfig::new(app.clone(), Strategy::Vanilla);
                cfg.arrivals = ArrivalPattern::constant(4.0 + i as f64);
                cfg.horizon = Duration::from_secs(3);
                cfg.seed = 7 + i as u64;
                Scenario::new(format!("s{i}"), cfg)
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_input_order() {
        let outcomes = run_all_with_workers(tiny_scenarios(5), 4);
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["s0", "s1", "s2", "s3", "s4"]);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_all_with_workers(tiny_scenarios(4), 1);
        let parallel = run_all_with_workers(tiny_scenarios(4), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.result.completed, b.result.completed);
            assert_eq!(a.result.rejected, b.result.rejected);
            assert_eq!(a.result.end, b.result.end);
        }
    }

    fn chaos_scenarios(n: usize) -> Vec<Scenario> {
        let app = App::build(AppKind::Thumbnail, Fidelity::Scaled(4096));
        (0..n)
            .map(|i| {
                let mut cfg = SimConfig::new(app.clone(), Strategy::BeeHiveOpenWhisk);
                cfg.arrivals = ArrivalPattern::constant(6.0);
                cfg.horizon = Duration::from_secs(4);
                cfg.seed = 11 + i as u64;
                let mut plan = FaultPlan::new(0xC0FFEE + i as u64);
                plan.push(Injector::Rate {
                    fault: Fault::InstanceCrash { selector: 0 },
                    per_sec: 1.0,
                    start: Duration::ZERO,
                    end: Duration::from_secs(4),
                });
                cfg.faults = plan;
                Scenario::new(format!("c{i}"), cfg)
            })
            .collect()
    }

    #[test]
    fn chaos_parallel_matches_serial() {
        let serial = run_all_with_workers(chaos_scenarios(3), 1);
        let parallel = run_all_with_workers(chaos_scenarios(3), 3);
        let mut crashes = 0;
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.result.completed, b.result.completed);
            assert_eq!(a.result.end, b.result.end);
            assert_eq!(a.result.chaos.crashes, b.result.chaos.crashes);
            assert_eq!(a.result.chaos.retries, b.result.chaos.retries);
            assert_eq!(a.result.chaos.re_executed_ns, b.result.chaos.re_executed_ns);
            crashes += a.result.chaos.crashes;
        }
        assert!(crashes > 0, "the plan injected no crashes");
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run_all_with_workers(Vec::new(), 8).is_empty());
    }

    #[test]
    fn more_workers_than_scenarios() {
        let outcomes = run_all_with_workers(tiny_scenarios(2), 64);
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn run_report_renders_title_and_body() {
        let r = RunReport::new("t", Json::obj([("x".into(), Json::Int(1))]));
        assert_eq!(r.render(), r#"{"title":"t","body":{"x":1}}"#);
    }

    fn observe_all() -> ObsPlan {
        ObsPlan {
            trace: true,
            metrics: true,
            profile: true,
            sentinel: true,
            observe: true,
            observe_window: Duration::from_millis(500),
        }
    }

    /// The labels of every artifact family, in stored order.
    fn labels(art: &Artifacts) -> [Vec<String>; 5] {
        [
            art.traces.iter().map(|(l, _)| l.clone()).collect(),
            art.metrics.iter().map(|m| m.label.clone()).collect(),
            art.profiles.iter().map(|(l, _)| l.clone()).collect(),
            art.checks.iter().map(|c| c.label.clone()).collect(),
            art.timelines.iter().map(|s| s.label.clone()).collect(),
        ]
    }

    fn holds_no_artifact(o: &RunOutcome) -> bool {
        let r = &o.result;
        r.trace.is_none()
            && r.metrics.is_none()
            && r.profile.is_none()
            && r.sentinel.is_none()
            && r.observatory.is_none()
    }

    #[test]
    fn runner_plan_reaches_every_scenario() {
        let mut run = Runner::new(Profile::quick());
        run.plan = observe_all();
        let mut scenarios = tiny_scenarios(3);
        for s in &mut scenarios {
            s.cfg.observe_window = Duration::from_secs(9);
        }
        run.run(scenarios);
        let art = run.take();
        for family in labels(&art) {
            assert_eq!(family, ["s0", "s1", "s2"]);
        }
        assert!(labels(&run.take()).iter().all(Vec::is_empty));
        assert!(art.timelines.iter().all(|s| s.window_ns == 500_000_000));

        // The plan also switches off what a config asked for.
        let mut scenarios = tiny_scenarios(2);
        for s in &mut scenarios {
            observe_all().apply(&mut s.cfg);
        }
        run.plan = ObsPlan::default();
        let outcomes = run.run(scenarios);
        assert!(outcomes.iter().all(holds_no_artifact));
        assert!(labels(&run.take()).iter().all(Vec::is_empty));
    }

    #[test]
    fn artifacts_are_labelled_in_input_order() {
        for workers in [1, 3] {
            let mut scenarios = tiny_scenarios(4);
            for s in &mut scenarios {
                observe_all().apply(&mut s.cfg);
            }
            let mut outcomes = run_all_with_workers(scenarios, workers);
            let mut art = Artifacts::default();
            art.take(&mut outcomes);
            assert!(outcomes.iter().all(holds_no_artifact));
            for family in labels(&art) {
                assert_eq!(family, ["s0", "s1", "s2", "s3"], "{workers} workers");
            }
        }
    }

    #[test]
    fn concurrent_runners_keep_their_own_artifacts() {
        let prefixed = |p: &str| {
            let mut scenarios = tiny_scenarios(3);
            for s in &mut scenarios {
                s.label = format!("{p}{}", s.label);
            }
            scenarios
        };
        // Both runners start each batch together, so their runs overlap.
        let barrier = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            let handles = ["a", "b"].map(|p| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut run = Runner::new(Profile::quick());
                    run.plan = observe_all();
                    for _ in 0..2 {
                        barrier.wait();
                        run.run(prefixed(p));
                    }
                    (p, run.take())
                })
            });
            for h in handles {
                let (p, art) = h.join().unwrap();
                let want: Vec<String> = (0..6).map(|i| format!("{p}s{}", i % 3)).collect();
                for family in labels(&art) {
                    assert_eq!(family, want);
                }
            }
        });
    }
}
