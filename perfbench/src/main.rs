//! `beehive-perfbench`: the wall-clock benchmark's command line.
//!
//! ```text
//! beehive-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--horizon H]
//! beehive-perfbench record --seeds A-B
//! ```
//!
//! A run repeats one workload in child processes of this binary, one
//! iteration per process so that peak RSS is the workload's own, and prints
//! one JSON line last: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the per-layer
//! measurements and the observation ladder and reports the per-layer
//! metrics. `--horizon` shortens the simulated horizon (smoke tests); the
//! recorded digests then no longer apply. `record` prints the digests of a
//! seed range at the default horizons, in the format of `digests.txt`.
//!
//! The `child-*` subcommands are the per-process steps a run spawns.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use beehive_observatory::TimelineDoc;
use beehive_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use beehive_perfbench::run::{iterate, Outputs, Rung, Scenario, Workload};
use beehive_perfbench::spans::Spans;
use beehive_perfbench::{
    artifacts, layers, median, peak_rss_mb, recorded_digest, reference_s, Speed, REFERENCE_S,
};
use beehive_sentinel::{SentinelConfig, SentinelReport};
use beehive_sim::json::Json;
use beehive_workload::Sim;

const USAGE: &str = "usage: beehive-perfbench --workload server_steady|burst_checked|burst_traced \
                     --seed N --seconds S --trace 0|1 [--horizon H]\n       \
                     beehive-perfbench record --seeds A-B";

/// Iterations a `--trace 0` run makes even when they overrun `--seconds`.
const MIN_ITERS: usize = 3;
/// Passes over the observation ladder; each rung reports its median.
const LADDER_PASSES: usize = 3;
/// Untraced iterations behind `bench.trace_overhead_s`.
const BASELINE_ITERS: usize = 3;
/// No child starts after this much of a run has passed, and a child still
/// running at it is killed: the run must end within 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// Pending events in the event-queue hold model.
const QUEUE_DEPTH: usize = 256;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` pairs.
#[derive(Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    horizon: Option<u64>,
    rung: Option<Rung>,
    seeds: Option<(u64, u64)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number {v:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    f.workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?)
                }
                "--seed" => f.seed = Some(num(v)?),
                "--seconds" => f.seconds = Some(num(v)?.max(1)),
                "--trace" => {
                    f.trace = Some(match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    })
                }
                "--horizon" => f.horizon = Some(num(v)?.max(1)),
                "--rung" => {
                    f.rung = Some(Rung::parse(v).ok_or_else(|| format!("unknown rung {v:?}"))?)
                }
                "--seeds" => {
                    let (a, b) = v.split_once('-').ok_or("--seeds takes A-B")?;
                    f.seeds = Some((num(a)?, num(b)?));
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(f)
    }

    fn workload(&self) -> Result<Workload, String> {
        self.workload.ok_or_else(|| "--workload is required".into())
    }

    fn seed(&self) -> Result<u64, String> {
        self.seed.ok_or_else(|| "--seed is required".into())
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("child-sim" | "child-layers" | "child-rung" | "record")) => (m, &args[1..]),
        _ => ("run", args),
    };
    let f = Flags::parse(rest)?;
    let line = match mode {
        "child-sim" => {
            let w = f.workload()?;
            child_sim(w, f.seed()?, f.horizon.unwrap_or(w.horizon_s()))
        }
        "child-layers" => {
            let w = f.workload()?;
            child_layers(w, f.seed()?, f.horizon.unwrap_or(w.horizon_s()))
        }
        "child-rung" => {
            let rung = f.rung.ok_or("--rung is required")?;
            let horizon = f.horizon.unwrap_or(Workload::BurstChecked.horizon_s());
            child_rung(rung, f.seed()?, horizon)
        }
        "record" => return record(f.seeds.ok_or("--seeds is required")?),
        _ => Bench::new(&f)?.run(),
    };
    println!("{}", line.render());
    Ok(())
}

// ---------------------------------------------------------------------------
// Child processes: one step each, one JSON line on stdout.
// ---------------------------------------------------------------------------

/// Where runs put scratch files and spans: `perfbench-out` next to the
/// build's `release` directory, inside the checkout's build directory.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locating the benchmark executable");
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("the executable sits in <target>/<profile>/")
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

/// A fresh per-process artifact directory.
fn artifact_dir() -> PathBuf {
    let dir = out_dir().join(format!("artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the artifact directory");
    dir
}

fn write_spans(spans: &Spans, name: &str) {
    let path = out_dir().join(format!("spans-{name}.json"));
    spans
        .write(&path)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn outputs_json(o: &Outputs) -> Vec<(String, Json)> {
    vec![
        ("digest".into(), Json::from(o.digest())),
        ("outputs".into(), Json::from(o.text())),
        ("sim_outputs".into(), Json::from(o.sim_text())),
        ("completed".into(), Json::from(o.completed)),
        ("offloaded".into(), Json::from(o.offloaded)),
        ("shadows".into(), Json::from(o.shadows)),
        ("trace_events".into(), Json::from(o.trace_events)),
        ("violations".into(), Json::from(o.violations)),
    ]
}

fn layer_json(layers: Vec<(&str, f64)>) -> (String, Json) {
    (
        "layers".into(),
        Json::obj(
            layers
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v))),
        ),
    )
}

/// One iteration of `w`: set-up repeats, run, artifacts. Reports host
/// times unscaled, with reference timings taken after them; the run scales
/// them with its pooled reference timings.
fn child_sim(w: Workload, seed: u64, horizon: u64) -> Json {
    let mut spans = Spans::new();
    let dir = w.writes_artifacts().then(artifact_dir);
    let it = iterate(w.scenario(), seed, horizon, dir.as_deref(), &mut spans);
    let reference = reference_runs();
    let rss = peak_rss_mb();
    if let Some(d) = dir {
        std::fs::remove_dir_all(&d).unwrap_or_else(|e| panic!("removing {}: {e}", d.display()));
    }
    let setup: Vec<Json> = spans
        .durations_s("apps.build")
        .iter()
        .zip(spans.durations_s("workload.sim_new"))
        .map(|(a, b)| Json::Num(a + b))
        .collect();
    let mut fields = vec![
        ("setup_s".into(), Json::Arr(setup)),
        ("wall_s".into(), Json::Num(it.wall_s)),
        (
            "reference_s".into(),
            Json::Arr(reference.into_iter().map(Json::Num).collect()),
        ),
        ("peak_rss_mb".into(), Json::Num(rss)),
    ];
    fields.extend(outputs_json(&it.outputs));
    Json::obj(fields)
}

/// Reference timings per sample point.
const REFERENCE_RUNS: usize = 2;

/// Time the reference work [`REFERENCE_RUNS`] times after one untimed run:
/// the first run in a fresh process, or after a simulation has returned its
/// memory, pays page faults and reads up to twice as slow.
fn reference_runs() -> Vec<f64> {
    reference_s();
    (0..REFERENCE_RUNS).map(|_| reference_s()).collect()
}

/// The per-layer measurements of `w`: one spanned iteration, a counting
/// run, and the micro-measurements on the workload's application.
fn child_layers(w: Workload, seed: u64, horizon: u64) -> Json {
    let mut reference = reference_runs();
    let scenario = w.scenario();
    let mut spans = Spans::new();
    let dir = w.writes_artifacts().then(artifact_dir);
    let it = iterate(scenario, seed, horizon, dir.as_deref(), &mut spans);
    if let Some(d) = dir {
        std::fs::remove_dir_all(&d).unwrap_or_else(|e| panic!("removing {}: {e}", d.display()));
    }
    let o = &it.outputs;

    // Server GC counts are only visible through the metrics registry: rerun
    // with it on. Observation must not change the simulation.
    let app = scenario.app();
    let mut cfg = scenario.config(app.clone(), seed, horizon);
    cfg.metrics = true;
    let mut counted = spans.time("workload.count_run", || Sim::new(cfg.clone()).run());
    assert_eq!(
        Outputs::of(&mut counted).sim_text(),
        o.sim_text(),
        "the metrics registry changed the simulation"
    );
    let gc_pauses = counted
        .metrics
        .as_ref()
        .expect("metrics were on")
        .snapshot("count")
        .histogram("gc_pause")
        .map_or(0, |h| h.count);
    let server_gcs = gc_pauses.saturating_sub(o.function_gc_pauses);

    let router = spans.time("workload.router.replay", || {
        layers::router_ns_per_route(&cfg, o.completed + o.rejected)
    });
    let queue = spans.time("sim.event_queue.replay", || {
        layers::event_queue_ns_per_op(seed, QUEUE_DEPTH)
    });
    let server_us = spans.time("vm.server_request", || {
        layers::server_request_us(&app, scenario.strategy().barriers_on(), seed)
    });
    let gc_us = spans.time("vm.gc.collect", || layers::gc_collect_us(&app));
    let core = spans.time("core.offload", || layers::core_times(&app, seed));
    reference.extend(reference_runs());
    let speed = Speed::of(&reference);
    let t = speed.scale;
    write_spans(&spans, &format!("layers-{}-{seed}", w.name()));

    let completed = o.completed.max(1) as f64;
    let [code, data, sync, native, db] = o.fallbacks;
    let layers = vec![
        ("apps.build_s", t * median(&spans.durations_s("apps.build"))),
        (
            "workload.sim_new_s",
            t * median(&spans.durations_s("workload.sim_new")),
        ),
        ("workload.run_s", t * spans.total_s("workload.run")),
        ("workload.completed", o.completed as f64),
        ("workload.offloaded", o.offloaded as f64),
        ("workload.shadows", o.shadows as f64),
        ("workload.rejected", o.rejected as f64),
        ("workload.router.ns_per_route", t * router),
        (
            "workload.fidelity_factor",
            f64::from(scenario.fidelity().factor()),
        ),
        ("workload.offload_share", o.offloaded as f64 / completed),
        (
            "workload.shadows_per_1k",
            1000.0 * o.shadows as f64 / completed,
        ),
        (
            "workload.trace_events_per_req",
            o.trace_events as f64 / completed,
        ),
        ("sim.event_queue.ns_per_op", t * queue),
        ("vm.server_request_us", t * server_us),
        ("vm.gc.collect_us", t * gc_us),
        ("vm.gc.server_collections", server_gcs as f64),
        ("vm.function_gc_pauses", o.function_gc_pauses as f64),
        ("core.offload_request_us", t * core.offload_request_us),
        (
            "core.closure.instantiate_us",
            t * core.closure_instantiate_us,
        ),
        ("core.sync.handoff_us", t * core.sync_handoff_us),
        ("core.fallbacks", (code + data + sync + native + db) as f64),
        ("core.synchronized_objects", o.synchronized_objects as f64),
        ("core.closure_bytes", o.closure_bytes as f64),
        ("core.mapping_bytes", o.mapping_bytes as f64),
        ("faas.boots_cold", o.boots_cold as f64),
        ("faas.boots_warm", o.boots_warm as f64),
        ("faas.instances", o.instances as f64),
        ("bench.host_wall_s", it.wall_s),
    ];
    let mut fields = vec![
        ("wall_s".into(), Json::Num(t * it.wall_s)),
        ("reference_s".into(), Json::Num(speed.reference_s)),
    ];
    fields.extend(outputs_json(o));
    fields.push(layer_json(layers));
    Json::obj(fields)
}

/// One rung of the observation ladder on the burst scenario. The top rung
/// also renders the artifact set and replays its trace through the offline
/// consumers.
fn child_rung(rung: Rung, seed: u64, horizon: u64) -> Json {
    let mut reference = reference_runs();
    let mut spans = Spans::new();
    let sim = Scenario::Burst(rung).setup(seed, horizon, &mut spans);
    let mut r = spans.time("workload.run", || sim.run());
    let rss = peak_rss_mb();
    reference.extend(reference_runs());
    let speed = Speed::of(&reference);
    let mut o = Outputs::of(&mut r);
    let mut layers = Vec::new();
    if rung == Rung::Profile {
        let dir = artifact_dir();
        let written = artifacts::write_all(&mut r, &dir, &mut spans);
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| panic!("removing {}: {e}", dir.display()));
        o.artifact_bytes = written.bytes;
        let traces = &written.traces;
        let events = traces.iter().map(|(_, t)| t.events.len()).sum::<usize>() as f64;
        spans.time("metrics.reduce", || {
            beehive_metrics::reduce(traces, beehive_metrics::DEFAULT_WINDOW)
        });
        let replayed = spans.time("sentinel.replay", || {
            SentinelReport::from_traces(traces, &SentinelConfig::default())
        });
        o.violations += replayed.violations() as u64;
        spans.time("observatory.replay", || {
            TimelineDoc::from_traces(traces, beehive_observatory::DEFAULT_WINDOW)
        });
        let secs = |name: &str| speed.scale * spans.total_s(name);
        let per_event = |name: &str| 1e9 * secs(name) / events.max(1.0);
        layers = vec![
            ("telemetry.events", events),
            (
                "telemetry.events_per_req",
                events / o.completed.max(1) as f64,
            ),
            ("telemetry.chrome_s", secs("telemetry.chrome")),
            ("telemetry.chrome_bytes", written.chrome_bytes as f64),
            ("telemetry.critical_path_s", secs("telemetry.critical_path")),
            ("metrics.reduce_s", secs("metrics.reduce")),
            ("metrics.prom_s", secs("metrics.prom")),
            ("sentinel.replay_ns_per_event", per_event("sentinel.replay")),
            (
                "observatory.replay_ns_per_event",
                per_event("observatory.replay"),
            ),
            ("observatory.svg_s", secs("observatory.svg")),
            ("insight.attribute_s", secs("insight.attribute")),
            ("profiler.folded_s", secs("profiler.folded")),
            ("bench.artifact_write_s", secs("bench.write")),
            ("bench.artifact_bytes", written.bytes as f64),
        ];
    }
    write_spans(&spans, &format!("rung-{}-{seed}", rung.name()));
    let mut fields = vec![
        (
            "run_s".into(),
            Json::Num(speed.scale * spans.total_s("workload.run")),
        ),
        ("reference_s".into(), Json::Num(speed.reference_s)),
        ("peak_rss_mb".into(), Json::Num(rss)),
    ];
    fields.extend(outputs_json(&o));
    fields.push(layer_json(layers));
    Json::obj(fields)
}

/// Print `workload seed digest` for every workload and seed in `a..=b`.
fn record((a, b): (u64, u64)) -> Result<(), String> {
    for seed in a..=b {
        for w in Workload::ALL {
            let dir = w.writes_artifacts().then(artifact_dir);
            let it = iterate(
                w.scenario(),
                seed,
                w.horizon_s(),
                dir.as_deref(),
                &mut Spans::new(),
            );
            if let Some(d) = dir {
                std::fs::remove_dir_all(&d)
                    .map_err(|e| format!("removing {}: {e}", d.display()))?;
            }
            println!("{} {seed} {}", w.name(), it.outputs.digest());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The run: spawn children, check their outputs, aggregate.
// ---------------------------------------------------------------------------

fn num(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        Some(Json::Int(i)) => Ok(*i as f64),
        _ => Err(format!("child output lacks number {key:?}")),
    }
}

fn text<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("child output lacks string {key:?}")),
    }
}

/// Run this executable with `args`, wait for it (killing it at `deadline`)
/// and parse the last line it printed.
fn run_child(exe: &Path, args: &[String], deadline: Instant) -> Result<Json, String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("waiting: {e}"))? {
            break Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break Err(format!("{args:?} ran past the run's time limit"));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let out = reader.join().expect("stdout reader thread");
    let status = status?;
    if !status.success() {
        return Err(format!("{args:?} failed: {status}"));
    }
    let out = out.map_err(|e| format!("reading child output: {e}"))?;
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child output is not JSON: {e:?}"))
}

/// A digest every run of one configuration must reproduce: the recorded one
/// when there is one, else the first one seen.
struct Expect {
    what: String,
    digest: Option<String>,
    recorded: bool,
}

impl Expect {
    fn new(workload: Workload, seed: u64, default_horizon: bool) -> Expect {
        let recorded = default_horizon
            .then(|| recorded_digest(workload.name(), seed))
            .flatten();
        Expect {
            what: format!("{} seed {seed}", workload.name()),
            digest: recorded.map(str::to_string),
            recorded: recorded.is_some(),
        }
    }

    fn check(&mut self, digest: &str) -> Result<(), String> {
        match &self.digest {
            None => {
                self.digest = Some(digest.to_string());
                Ok(())
            }
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!(
                "{}: digest {digest} differs from the {} digest {d}",
                self.what,
                if self.recorded {
                    "recorded"
                } else {
                    "first run's"
                }
            )),
        }
    }
}

/// One benchmark run.
struct Bench {
    exe: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    horizon: Option<u64>,
    start: Instant,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(f: &Flags) -> Result<Bench, String> {
        Ok(Bench {
            exe: std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?,
            workload: f.workload()?,
            seed: f.seed()?,
            seconds: f.seconds.ok_or("--seconds is required")?,
            trace: f.trace.ok_or("--trace is required")?,
            horizon: f.horizon,
            start: Instant::now(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Spawn one child step; a crash, a timeout or a failed `check` counts
    /// the step as failed. The output of a step that failed its check is
    /// still returned: its timings hold.
    fn step(
        &mut self,
        mode: &str,
        extra: &[String],
        check: impl FnOnce(&Json) -> Result<(), String>,
    ) -> Option<Json> {
        self.attempted += 1;
        let mut args = vec![mode.to_string(), "--seed".into(), self.seed.to_string()];
        if let Some(h) = self.horizon {
            args.extend(["--horizon".into(), h.to_string()]);
        }
        args.extend_from_slice(extra);
        let out = run_child(&self.exe, &args, self.start + RUN_LIMIT);
        if let Err(e) = out.as_ref().map_err(String::clone).and_then(check) {
            eprintln!("perfbench: FAILED: {e}");
            self.failed += 1;
        }
        out.ok()
    }

    fn out_of_time(&self) -> bool {
        self.start.elapsed() >= RUN_LIMIT
    }

    fn run(mut self) -> Json {
        let metrics = if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let defs: &[MetricDef] = if self.trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::new();
        for d in defs {
            match metrics.get(d.name) {
                Some(v) if v.is_finite() => out.push((
                    d.name.to_string(),
                    Json::obj([
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::from(d.unit)),
                    ]),
                )),
                _ => eprintln!("perfbench: FAILED: no value for {}", d.name),
            }
        }
        let complete = out.len() == defs.len();
        Json::obj([
            ("correct".into(), Json::Bool(self.failed == 0 && complete)),
            ("attempted".into(), Json::from(self.attempted.max(1))),
            ("failed".into(), Json::from(self.failed)),
            ("metrics".into(), Json::obj(out)),
        ])
    }

    /// Check one iteration's outputs: its digest, and the invariants every
    /// workload's outputs satisfy.
    fn check_sim(w: Workload, expect: &mut Expect, j: &Json) -> Result<(), String> {
        expect.check(text(j, "digest")?)?;
        if num(j, "violations")? != 0.0 {
            return Err(format!("{}: conformance violations", w.name()));
        }
        let burst = w != Workload::ServerSteady;
        if num(j, "completed")? == 0.0
            || (burst && (num(j, "offloaded")? == 0.0 || num(j, "shadows")? == 0.0))
        {
            return Err(format!(
                "{}: implausible outputs {}",
                w.name(),
                text(j, "outputs")?
            ));
        }
        Ok(())
    }

    /// `--trace 0`: iterate until `--seconds` is spent, report medians of
    /// the host times scaled by the median of every reference timing.
    fn end_to_end(&mut self) -> BTreeMap<&'static str, f64> {
        let w = self.workload;
        let mut expect = Expect::new(w, self.seed, self.horizon.is_none());
        let budget = Duration::from_secs(self.seconds);
        let (mut setup, mut wall, mut rss, mut rate) = (vec![], vec![], vec![], vec![]);
        let mut reference = vec![];
        let mut took = vec![];
        let mut last = None;
        let args = workload_args(w);
        while !self.out_of_time() {
            let t = Instant::now();
            let j = self.step("child-sim", &args, |j| {
                Self::check_sim(w, &mut expect, j)?;
                Timings::of(j).map(drop)
            });
            // Malformed output already failed the step's check.
            if let Some(Ok(it)) = j.as_ref().map(Timings::of) {
                eprintln!(
                    "perfbench: iteration {}: host wall_s {:.4} reference_s {:.4} peak_rss_mb {:.1}",
                    took.len() + 1,
                    it.wall_s,
                    median(&it.reference_s),
                    it.peak_rss_mb
                );
                setup.extend(it.setup_s);
                reference.extend(it.reference_s);
                wall.push(it.wall_s);
                rss.push(it.peak_rss_mb);
                rate.push(it.completed / it.wall_s);
                last = j;
            }
            took.push(t.elapsed().as_secs_f64());
            let next = self.start.elapsed().as_secs_f64() + median(&took);
            if took.len() >= MIN_ITERS && next > budget.as_secs_f64() {
                break;
            }
        }
        if let Some(j) = last {
            self.describe(w, &expect, &j);
        }
        let speed = Speed::of(&reference);
        println!(
            "perfbench: host wall_s median {:.4} s; reference work median {:.4} s, scaled to {REFERENCE_S} s",
            median(&wall),
            speed.reference_s,
        );
        BTreeMap::from([
            ("wall_s", speed.scale * median(&wall)),
            ("sim_req_per_s", median(&rate) / speed.scale),
            ("peak_rss_mb", median(&rss)),
            ("setup_s", speed.scale * median(&setup)),
        ])
    }

    /// Print the digest and the workload-property shares of an iteration.
    fn describe(&self, w: Workload, expect: &Expect, j: &Json) {
        let get = |k| num(j, k).unwrap_or(f64::NAN);
        let completed = get("completed").max(1.0);
        let digest = text(j, "digest").unwrap_or("?");
        let status = match &expect.digest {
            Some(d) if expect.recorded && d == digest => "matches the recorded digest".into(),
            Some(d) if expect.recorded => format!("differs from the recorded digest {d}"),
            _ => "no recorded digest for this seed".to_string(),
        };
        println!(
            "perfbench: {} seed {} digest {digest} ({status})",
            w.name(),
            self.seed,
        );
        println!("perfbench: outputs {}", text(j, "outputs").unwrap_or("?"));
        println!(
            "perfbench: properties fidelity_factor={} offload_share={:.4} shadows_per_1k={:.3} trace_events_per_req={:.2}",
            w.scenario().fidelity().factor(),
            get("offloaded") / completed,
            1000.0 * get("shadows") / completed,
            get("trace_events") / completed,
        );
    }

    /// `--trace 1`: the spanned per-layer run of the workload, the
    /// observation ladder, and an untraced baseline for the overhead.
    fn per_layer(&mut self) -> BTreeMap<&'static str, f64> {
        let w = self.workload;
        let default_horizon = self.horizon.is_none();
        // Every value a step reports under `layers`, and the violations.
        let mut seen: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut violations = 0.0;
        let mut absorb = |j: &Json, extra: &[(&'static str, &str)]| {
            if let Some(Json::Obj(fields)) = j.get("layers") {
                for (k, v) in fields {
                    if let (Some(d), Json::Num(x)) = (PER_LAYER.iter().find(|d| d.name == k), v) {
                        seen.entry(d.name).or_default().push(*x);
                    }
                }
            }
            for &(name, key) in extra {
                seen.entry(name).or_default().extend(num(j, key).ok());
            }
            violations += num(j, "violations").unwrap_or(0.0);
        };

        let mut expect = Expect::new(w, self.seed, default_horizon);
        let args = workload_args(w);
        let traced = self.step("child-layers", &args, |j| {
            Self::check_sim(w, &mut expect, j)
        });
        if let Some(j) = &traced {
            absorb(j, &[("bench.reference_s", "reference_s")]);
        }

        // The ladder, in interleaved passes. Every rung simulates the same
        // requests; the observe rung is burst_checked and the profile rung
        // burst_traced, whose digests are recorded.
        let mut same_sim: Option<String> = None;
        let mut rung_expect = [
            Expect::new(Workload::BurstChecked, self.seed, default_horizon),
            Expect::new(Workload::BurstTraced, self.seed, default_horizon),
        ];
        for _ in 0..LADDER_PASSES {
            for rung in Rung::ALL {
                if self.out_of_time() {
                    self.failed += 1;
                    break;
                }
                let expect = match rung {
                    Rung::Observe => Some(&mut rung_expect[0]),
                    Rung::Profile => Some(&mut rung_expect[1]),
                    _ => None,
                };
                let same_sim = &mut same_sim;
                let extra = vec!["--rung".to_string(), rung.name().to_string()];
                let j = self.step("child-rung", &extra, |j| {
                    if let Some(e) = expect {
                        e.check(text(j, "digest")?)?;
                    }
                    let s = text(j, "sim_outputs")?;
                    match same_sim {
                        Some(first) if first != s => {
                            Err(format!("rung {} simulated differently: {s}", rung.name()))
                        }
                        _ => {
                            *same_sim = Some(s.to_string());
                            Ok(())
                        }
                    }
                });
                if let Some(j) = j {
                    let (run_s, rss) = rung_metrics(rung);
                    absorb(
                        &j,
                        &[
                            (run_s, "run_s"),
                            (rss, "peak_rss_mb"),
                            ("bench.reference_s", "reference_s"),
                        ],
                    );
                }
            }
        }
        let mut out: BTreeMap<&'static str, f64> =
            seen.iter().map(|(&k, v)| (k, median(v))).collect();
        // Each rung's online cost is its delta over the rung below it.
        for pair in Rung::ALL.windows(2) {
            let (lo, hi) = (rung_metrics(pair[0]), rung_metrics(pair[1]));
            let (time, rss) = match pair[1] {
                Rung::Metrics => ("metrics.online_s", Some("metrics.online_rss_mb")),
                Rung::Sentinel => ("sentinel.online_s", Some("sentinel.online_rss_mb")),
                Rung::Observe => ("observatory.online_s", Some("observatory.online_rss_mb")),
                Rung::Trace => ("telemetry.recorder_s", None),
                Rung::Profile => ("profiler.online_s", None),
                Rung::Bare => unreachable!("the bottom rung has no rung below it"),
            };
            if let (Some(a), Some(b)) = (out.get(lo.0), out.get(hi.0)) {
                out.insert(time, b - a);
            }
            if let (Some(rss), Some(a), Some(b)) = (rss, out.get(lo.1), out.get(hi.1)) {
                out.insert(rss, b - a);
            }
        }
        out.insert("sentinel.violations", violations);

        // Untraced baseline for the spanned run's overhead.
        let (mut baseline, mut reference) = (Vec::new(), Vec::new());
        for _ in 0..BASELINE_ITERS {
            if self.out_of_time() {
                break;
            }
            let j = self.step("child-sim", &args, |j| {
                Self::check_sim(w, &mut expect, j)?;
                Timings::of(j).map(drop)
            });
            if let Some(Ok(it)) = j.as_ref().map(Timings::of) {
                baseline.push(it.wall_s);
                reference.extend(it.reference_s);
            }
        }
        if let Some(Ok(traced_wall)) = traced.as_ref().map(|j| num(j, "wall_s")) {
            let untraced = Speed::of(&reference).scale * median(&baseline);
            out.insert("bench.trace_overhead_s", traced_wall - untraced);
        }
        out
    }
}

/// The host measurements of one `child-sim` iteration, unscaled.
struct Timings {
    wall_s: f64,
    peak_rss_mb: f64,
    completed: f64,
    setup_s: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Timings {
    fn of(j: &Json) -> Result<Timings, String> {
        let list = |key: &str| match j.get(key) {
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|x| match x {
                    Json::Num(v) => Ok(*v),
                    _ => Err(format!("{key} holds a non-number")),
                })
                .collect::<Result<Vec<f64>, String>>(),
            _ => Err(format!("child output lacks list {key:?}")),
        };
        Ok(Timings {
            wall_s: num(j, "wall_s")?,
            peak_rss_mb: num(j, "peak_rss_mb")?,
            completed: num(j, "completed")?,
            setup_s: list("setup_s")?,
            reference_s: list("reference_s")?,
        })
    }
}

/// The `--workload` arguments of a child step.
fn workload_args(w: Workload) -> Vec<String> {
    vec!["--workload".into(), w.name().into()]
}

/// The `run_s` and `peak_rss_mb` metric names of a ladder rung.
fn rung_metrics(rung: Rung) -> (&'static str, &'static str) {
    match rung {
        Rung::Bare => ("ladder.bare.run_s", "ladder.bare.peak_rss_mb"),
        Rung::Metrics => ("ladder.metrics.run_s", "ladder.metrics.peak_rss_mb"),
        Rung::Sentinel => ("ladder.sentinel.run_s", "ladder.sentinel.peak_rss_mb"),
        Rung::Observe => ("ladder.observe.run_s", "ladder.observe.peak_rss_mb"),
        Rung::Trace => ("ladder.trace.run_s", "ladder.trace.peak_rss_mb"),
        Rung::Profile => ("ladder.profile.run_s", "ladder.profile.peak_rss_mb"),
    }
}
