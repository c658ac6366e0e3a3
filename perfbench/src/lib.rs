//! Wall-clock benchmark of the BeeHive simulator.
//!
//! The simulator runs on virtual time, so every metric here is host time or
//! host memory; the simulated statistics are deterministic and serve as the
//! output check ([`run::Outputs`]). See `perfbench/README.md` for the
//! workloads, metrics and how to run it.

pub mod artifacts;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;

/// Digests recorded for the default horizons, one `workload seed digest`
/// line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(seed) => Some(d),
            _ => None,
        }
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// About the host seconds the reference work takes, warm, on an
/// uncontended core of the machine the benchmark was tuned on (a 2-vCPU
/// Intel Xeon VM). Every host time the benchmark reports is scaled to this
/// speed; see [`Speed`].
pub const REFERENCE_S: f64 = 0.03;

/// Time a fixed reference workload and return its host seconds. It lives
/// in the benchmark, so no change to the simulator moves it: a small
/// discrete-event loop over a binary heap, a hash map of short vectors and
/// a growing string, the simulator's own mix of work.
pub fn reference_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let start = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut store: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut out = String::new();
    for id in 0..4096u32 {
        queue.push(Reverse((next() % 1_000_000, id)));
    }
    for _ in 0..300_000 {
        let Reverse((at, id)) = queue.pop().expect("the loop keeps the queue full");
        let key = next() % 50_000;
        match next() % 4 {
            0 => {
                store.insert(key, vec![at; (next() % 24) as usize]);
            }
            1 => {
                store.remove(&key);
            }
            _ => {
                if let Some(v) = store.get(&key) {
                    out.push_str(&v.len().to_string());
                    out.push(',');
                }
            }
        }
        if out.len() > 1 << 20 {
            out.clear();
        }
        queue.push(Reverse((at + next() % 10_000, id)));
    }
    std::hint::black_box((out.len(), store.len()));
    start.elapsed().as_secs_f64()
}

/// How fast a process's core ran, from timings of the reference work taken
/// next to the measured work.
///
/// The host this benchmark runs on is shared: the same iteration's host
/// time moves by up to 2x between minutes as other tenants load the core,
/// and the reference work moves with it. Scaling a host time by
/// [`Speed::scale`] reports it at the reference speed, which cancels that
/// drift but not a change to the simulator.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    /// Median host seconds of the reference timings.
    pub reference_s: f64,
    /// [`REFERENCE_S`] over `reference_s`: multiply a host time by it.
    pub scale: f64,
}

impl Speed {
    /// The speed shown by reference timings `samples` (host seconds).
    pub fn of(samples: &[f64]) -> Speed {
        let reference_s = median(samples);
        Speed {
            reference_s,
            scale: REFERENCE_S / reference_s,
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
