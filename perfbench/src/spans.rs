//! Host-time spans recorded around calls into the simulator's crates.
//!
//! The benchmark times each layer from outside: every call it makes into a
//! crate's public API runs inside [`Spans::time`]. Spans are kept in memory
//! and written as one JSON document when the process ends.

use std::path::Path;
use std::time::Instant;

use beehive_sim::json::Json;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `workload.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` and return its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns,
        });
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// Seconds of every span named `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64 / 1e9).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as a JSON array of `{name, start_ns, dur_ns}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name".into(), Json::from(s.name)),
                        ("start_ns".into(), Json::from(s.start_ns)),
                        ("dur_ns".into(), Json::from(s.dur_ns)),
                    ])
                })
                .collect(),
        )
    }

    /// Write the spans to `path` as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }
}
