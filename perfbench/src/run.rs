//! The benchmark's workloads and one timed iteration of each.
//!
//! An iteration is set-up (`App::build`, `SimConfig`, `Sim::new`, repeated
//! [`SETUP_REPS`] times), then `Sim::run` on the last world built, then, for
//! `burst_traced`, rendering and writing the full observability artifact
//! set. Every call is timed by a [`Spans`] recorder. The simulated (virtual
//! time) statistics are deterministic, so they are folded into an
//! [`Outputs`] digest that checks the run instead of being reported.

use std::path::Path;
use std::time::Instant;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_sim::Duration;
use beehive_workload::experiment::base_rate;
use beehive_workload::{ArrivalPattern, Sim, SimConfig, SimResult, Strategy};

use crate::spans::Spans;

/// Set-ups per iteration; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Scenario label used in every artifact.
pub const LABEL: &str = "pybbs burst";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Vanilla server at `Scaled(128)`, constant open-loop arrivals at the
    /// base rate, every observation flag off: VM interpreter and server GC.
    ServerSteady,
    /// BeeHive on OpenWhisk at fast fidelity with shadow execution and a
    /// 2x burst; metrics, sentinel and observatory on, trace off.
    BurstChecked,
    /// `burst_checked` plus trace and profile, rendering and writing the
    /// full artifact set.
    BurstTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServerSteady,
        Workload::BurstChecked,
        Workload::BurstTraced,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerSteady => "server_steady",
            Workload::BurstChecked => "burst_checked",
            Workload::BurstTraced => "burst_traced",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Virtual-time horizon of one iteration, in seconds. Short enough for
    /// ten or more iterations per run (a run's median then steadies under
    /// host CPU contention), long enough that seed-to-seed work stays
    /// within a few percent (it grows quickly below ~20 s for the burst).
    pub fn horizon_s(self) -> u64 {
        match self {
            Workload::ServerSteady => 24,
            Workload::BurstChecked | Workload::BurstTraced => 20,
        }
    }

    /// The scenario this workload simulates.
    pub fn scenario(self) -> Scenario {
        match self {
            Workload::ServerSteady => Scenario::ServerSteady,
            Workload::BurstChecked => Scenario::Burst(Rung::Observe),
            Workload::BurstTraced => Scenario::Burst(Rung::Profile),
        }
    }

    /// Whether an iteration renders and writes the artifact set.
    pub fn writes_artifacts(self) -> bool {
        self == Workload::BurstTraced
    }
}

/// A rung of the observation ladder: each adds one observation flag to the
/// burst scenario, on top of every rung below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// No observation.
    Bare,
    /// Live metrics registry.
    Metrics,
    /// Online conformance checker.
    Sentinel,
    /// Elasticity timeline reducer.
    Observe,
    /// Kept trace buffer.
    Trace,
    /// Call-tree profiler.
    Profile,
}

impl Rung {
    /// Every rung, bottom up.
    pub const ALL: [Rung; 6] = [
        Rung::Bare,
        Rung::Metrics,
        Rung::Sentinel,
        Rung::Observe,
        Rung::Trace,
        Rung::Profile,
    ];

    /// The rung's name.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Bare => "bare",
            Rung::Metrics => "metrics",
            Rung::Sentinel => "sentinel",
            Rung::Observe => "observe",
            Rung::Trace => "trace",
            Rung::Profile => "profile",
        }
    }

    /// Parse a rung name.
    pub fn parse(s: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// What one process simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The `server_steady` scenario.
    ServerSteady,
    /// The burst scenario observed up to a ladder rung.
    Burst(Rung),
}

impl Scenario {
    /// The application fidelity of the scenario.
    pub fn fidelity(self) -> Fidelity {
        match self {
            Scenario::ServerSteady => Fidelity::Scaled(128),
            Scenario::Burst(_) => Fidelity::fast(),
        }
    }

    /// The scaling strategy of the scenario.
    pub fn strategy(self) -> Strategy {
        match self {
            Scenario::ServerSteady => Strategy::Vanilla,
            Scenario::Burst(_) => Strategy::BeeHiveOpenWhisk,
        }
    }

    /// Build the application.
    pub fn app(self) -> App {
        App::build(AppKind::Pybbs, self.fidelity())
    }

    /// The run configuration for `seed` over `horizon_s` virtual seconds.
    pub fn config(self, app: App, seed: u64, horizon_s: u64) -> SimConfig {
        let rate = base_rate(&app);
        let mut cfg = SimConfig::new(app, self.strategy());
        let horizon = Duration::from_secs(horizon_s);
        cfg.horizon = horizon;
        cfg.seed = seed;
        cfg.trace = false;
        cfg.metrics = false;
        cfg.profile = false;
        cfg.sentinel = false;
        cfg.observe = false;
        match self {
            Scenario::ServerSteady => cfg.arrivals = ArrivalPattern::constant(rate),
            Scenario::Burst(rung) => {
                // The `shadow_breakdown` shape: a 2x burst from a quarter of
                // the horizon to its end, with offload engaging at onset.
                let onset = Duration::from_nanos(horizon.as_nanos() / 4);
                cfg.arrivals = ArrivalPattern::Open {
                    base_rps: rate,
                    burst_mult: 2.0,
                    burst_at: onset,
                    burst_end: horizon,
                };
                cfg.engage_at = onset;
                cfg.shadow_enabled = true;
                cfg.metrics = rung >= Rung::Metrics;
                cfg.sentinel = rung >= Rung::Sentinel;
                cfg.observe = rung >= Rung::Observe;
                cfg.trace = rung >= Rung::Trace;
                cfg.profile = rung >= Rung::Profile;
            }
        }
        cfg
    }

    /// Set up a world [`SETUP_REPS`] times, timing `apps.build` and
    /// `workload.sim_new` (which includes `SimConfig` assembly), and return
    /// the last one.
    pub fn setup(self, seed: u64, horizon_s: u64, spans: &mut Spans) -> Sim {
        let mut sim = None;
        for _ in 0..SETUP_REPS {
            let app = spans.time("apps.build", || self.app());
            sim = Some(spans.time("workload.sim_new", || {
                Sim::new(self.config(app, seed, horizon_s))
            }));
        }
        sim.expect("SETUP_REPS is positive")
    }
}

/// The deterministic outputs of one iteration. Equal configurations and
/// seeds give equal outputs; [`Outputs::digest`] condenses them.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    /// Recorded completed requests.
    pub completed: u64,
    /// Requests refused by the saturated server.
    pub rejected: u64,
    /// Completed offloaded requests.
    pub offloaded: u64,
    /// Shadow executions.
    pub shadows: u64,
    /// FaaS cold boots.
    pub boots_cold: u64,
    /// FaaS warm starts.
    pub boots_warm: u64,
    /// FaaS instances created.
    pub instances: u64,
    /// Virtual P50 latency over all recorded requests, nanoseconds.
    pub p50_ns: u64,
    /// Virtual P99 latency, nanoseconds.
    pub p99_ns: u64,
    /// Fallbacks over every session: code, data, sync, native, db.
    pub fallbacks: [u64; 5],
    /// Objects shipped at synchronization points, over every session.
    pub synchronized_objects: u64,
    /// Closure bytes shipped, over every session.
    pub closure_bytes: u64,
    /// Server-side mapping-table bytes at the end.
    pub mapping_bytes: u64,
    /// Function-side GC pauses.
    pub function_gc_pauses: u64,
    /// Billed FaaS GB-seconds.
    pub faas_gb_seconds: f64,
    /// Telemetry events recorded (kept or checked online); 0 when nothing
    /// armed the recorder.
    pub trace_events: u64,
    /// Bytes of rendered artifacts; 0 when none were written.
    pub artifact_bytes: u64,
    /// Online conformance violations (not part of the digest: it must be 0).
    pub violations: u64,
}

impl Outputs {
    /// Collect the outputs of a finished run. `trace_events` is read from
    /// the kept trace or, without one, from the online checker.
    pub fn of(r: &mut SimResult) -> Outputs {
        let s = &r.server_stats.sessions;
        let trace_events = match (&r.trace, &r.sentinel) {
            (Some(t), _) => t.events.len() as u64,
            (None, Some(c)) => c.events,
            (None, None) => 0,
        };
        Outputs {
            completed: r.completed,
            rejected: r.rejected,
            offloaded: r.offloaded,
            shadows: r.shadows,
            boots_cold: r.boots.0,
            boots_warm: r.boots.1,
            instances: r.instances as u64,
            p50_ns: r.all.percentile(0.5).as_nanos(),
            p99_ns: r.all.percentile(0.99).as_nanos(),
            fallbacks: [
                s.fallbacks_code,
                s.fallbacks_data,
                s.fallbacks_sync,
                s.fallbacks_native,
                s.fallbacks_db,
            ],
            synchronized_objects: s.synchronized_objects,
            closure_bytes: s.closure_bytes,
            mapping_bytes: r.mapping_bytes,
            function_gc_pauses: r.function_gc_pauses.len() as u64,
            faas_gb_seconds: r.faas_gb_seconds,
            trace_events,
            artifact_bytes: 0,
            violations: r.sentinel.as_ref().map_or(0, |c| c.violations.len() as u64),
        }
    }

    /// The simulated statistics as canonical text. Observation does not
    /// change the simulation, so this part is equal on every ladder rung.
    pub fn sim_text(&self) -> String {
        let [code, data, sync, native, db] = self.fallbacks;
        format!(
            "completed={} rejected={} offloaded={} shadows={} boots={}/{} instances={} \
             p50_ns={} p99_ns={} fallbacks={code}/{data}/{sync}/{native}/{db} \
             synchronized_objects={} closure_bytes={} mapping_bytes={} function_gc_pauses={} \
             faas_gb_s={:016x}",
            self.completed,
            self.rejected,
            self.offloaded,
            self.shadows,
            self.boots_cold,
            self.boots_warm,
            self.instances,
            self.p50_ns,
            self.p99_ns,
            self.synchronized_objects,
            self.closure_bytes,
            self.mapping_bytes,
            self.function_gc_pauses,
            self.faas_gb_seconds.to_bits(),
        )
    }

    /// Every digested output as canonical text.
    pub fn text(&self) -> String {
        format!(
            "{} trace_events={} artifact_bytes={}",
            self.sim_text(),
            self.trace_events,
            self.artifact_bytes
        )
    }

    /// The 64-bit FNV-1a digest of [`Outputs::text`], as 16 hex digits.
    pub fn digest(&self) -> String {
        hex_digest(&self.text())
    }
}

/// FNV-1a over `s`, as 16 hex digits.
pub fn hex_digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One timed iteration's results.
#[derive(Debug)]
pub struct Iteration {
    /// Host seconds from the end of set-up until the outputs are complete:
    /// `Sim::run`, plus artifact render and write when the workload writes
    /// them.
    pub wall_s: f64,
    /// The deterministic outputs.
    pub outputs: Outputs,
}

/// Run one iteration: set up, run, and (with `artifacts`) render and write
/// the artifact set into `dir`.
pub fn iterate(
    scenario: Scenario,
    seed: u64,
    horizon_s: u64,
    artifacts: Option<&Path>,
    spans: &mut Spans,
) -> Iteration {
    let sim = scenario.setup(seed, horizon_s, spans);
    let run_start = Instant::now();
    let mut result = spans.time("workload.run", || sim.run());
    let mut wall_s = run_start.elapsed().as_secs_f64();
    let mut outputs = Outputs::of(&mut result);
    if let Some(dir) = artifacts {
        let render_start = Instant::now();
        let written = crate::artifacts::write_all(&mut result, dir, spans);
        wall_s += render_start.elapsed().as_secs_f64();
        // Freeing the trace is not part of producing the outputs.
        outputs.artifact_bytes = written.bytes;
    }
    Iteration { wall_s, outputs }
}
