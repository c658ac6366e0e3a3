//! Per-layer timings, measured from outside: each function below calls one
//! crate's public API in a loop on the workload's application and fidelity
//! and returns host time per call.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration as HostDuration, Instant};

use beehive_apps::App;
use beehive_core::config::BeeHiveConfig;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, ServerSession, SessionStep};
use beehive_db::Database;
use beehive_proxy::Proxy;
use beehive_sim::{Duration, EventQueue, Rng, SimTime};
use beehive_vm::heap::Space;
use beehive_vm::{ClassId, CostModel, Value};
use beehive_workload::router::Router;
use beehive_workload::SimConfig;

/// Host-time budget of each micro-measurement.
const BUDGET: HostDuration = HostDuration::from_millis(300);

/// Repeat `f` until [`BUDGET`] has passed (at least `min_calls` times).
/// `f` returns the host time it measured and the units of work done; the
/// result is seconds per unit.
fn per_unit(min_calls: usize, mut f: impl FnMut() -> (HostDuration, u64)) -> f64 {
    let start = Instant::now();
    let (mut timed, mut units, mut calls) = (HostDuration::ZERO, 0u64, 0usize);
    while calls < min_calls || start.elapsed() < BUDGET {
        let (t, n) = f();
        timed += t;
        units += n;
        calls += 1;
    }
    timed.as_secs_f64() / units.max(1) as f64
}

/// Time `f` and count it as one unit.
fn timed_unit<T>(f: impl FnOnce() -> T) -> (HostDuration, u64) {
    let start = Instant::now();
    std::hint::black_box(f());
    (start.elapsed(), 1)
}

/// `Router::route`, replayed once per arrival of the run (`arrivals`
/// decisions spread evenly over the horizon). Nanoseconds per decision.
pub fn router_ns_per_route(cfg: &SimConfig, arrivals: u64) -> f64 {
    let arrivals = arrivals.max(1);
    let step = cfg.horizon.as_nanos() / arrivals;
    1e9 * per_unit(3, || {
        let mut router = Router::new(cfg.strategy, cfg.engage_at, cfg.offload_ratio);
        let start = Instant::now();
        for i in 0..arrivals {
            let now = SimTime::ZERO + Duration::from_nanos(i * step);
            std::hint::black_box(router.route(now, 1));
        }
        (start.elapsed(), arrivals)
    })
}

/// `EventQueue::schedule` + `pop` on a hold model: a queue of `depth`
/// pending events, each pop rescheduling one event an exponential gap
/// later. Nanoseconds per operation (a schedule or a pop).
pub fn event_queue_ns_per_op(seed: u64, depth: usize) -> f64 {
    const HOLDS: u64 = 100_000;
    let mut rng = Rng::new(seed);
    let mean = Duration::from_millis(5);
    1e9 * per_unit(3, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth as u64 {
            q.schedule(SimTime::ZERO + rng.exponential(mean), i);
        }
        let start = Instant::now();
        for _ in 0..HOLDS {
            let (t, e) = q.pop().expect("the hold model keeps the queue full");
            q.schedule(t + rng.exponential(mean), std::hint::black_box(e));
        }
        (start.elapsed(), 2 * HOLDS)
    })
}

/// A server runtime for `app`, built the way `Sim::new` builds it.
fn server_for(app: &App, barriers: bool) -> ServerRuntime {
    let mut cost = CostModel::default();
    cost.barrier = cost.barrier * u64::from(app.fidelity.factor());
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default(),
        Proxy::new(Database::new()),
        cost,
    );
    server.vm.set_barriers(barriers);
    app.install(&mut server);
    server
}

/// Drive a server session to completion, collecting when it asks.
fn drive_server(server: &mut ServerRuntime, session: &mut ServerSession) -> Value {
    loop {
        match session.next(server) {
            SessionStep::Need(_) => {}
            SessionStep::ServerGc => {
                let pause = server
                    .vm
                    .collect(&mut [session.execution_mut()], &mut [])
                    .pause;
                session.gc_done(pause);
            }
            SessionStep::Finished(v) => return v,
            step => unreachable!("a lone server session never sees {step:?}"),
        }
    }
}

/// Drive an offload session to completion. Peer syncs pull the peer's
/// dirty set; `pull_s` accumulates host time spent in `pull_dirty_from`.
fn drive_offload(
    server: &mut ServerRuntime,
    session: &mut OffloadSession,
    funcs: &mut HashMap<u32, FunctionRuntime>,
    pull: &mut (HostDuration, u64),
) -> Value {
    loop {
        let id = session.function_id;
        let mut f = funcs.remove(&id).expect("session's instance is tracked");
        let step = session.next(server, &mut f);
        funcs.insert(id, f);
        match step {
            SessionStep::Need(_) => {}
            SessionStep::SyncFromPeer { peer, monitor } => {
                let p = funcs.get_mut(&peer).expect("peer instance is tracked");
                let start = Instant::now();
                let objs = server.pull_dirty_from(p).0;
                pull.0 += start.elapsed();
                pull.1 += 1;
                if let Some(c) = monitor {
                    server.revoke_peer_monitor(p, c);
                }
                session.deliver_peer_objects(objs);
            }
            SessionStep::Finished(v) => return v,
            step => unreachable!("a benchmark offload session never sees {step:?}"),
        }
    }
}

/// Start an offload session of `app`'s root request on instance `id`.
fn start_offload(
    server: &mut ServerRuntime,
    funcs: &mut HashMap<u32, FunctionRuntime>,
    app: &App,
    id: u32,
    arg: i64,
) -> OffloadSession {
    let net = server.config.net;
    let f = funcs.get_mut(&id).expect("instance is tracked");
    OffloadSession::start(
        server,
        f,
        app.root,
        vec![Value::I64(arg)],
        false,
        net,
        false,
    )
}

/// `ServerSession` driven to completion on a fresh server, with the
/// workload's request arguments. Microseconds per request.
pub fn server_request_us(app: &App, barriers: bool, seed: u64) -> f64 {
    let mut server = server_for(app, barriers);
    let mut rng = Rng::new(seed);
    1e6 * per_unit(20, || {
        let args = app.request_args(&mut rng);
        timed_unit(|| {
            let mut s = ServerSession::start(&mut server, app.root, args);
            drive_server(&mut server, &mut s)
        })
    })
}

/// A function heap filled with ~2 MB of request-scoped garbage (20k
/// allocations) and reclaimed by `VmInstance::collect`. Microseconds per
/// fill and collection.
pub fn gc_collect_us(app: &App) -> f64 {
    let program = Arc::clone(&app.program);
    let churn = (0..program.class_count() as u32)
        .map(ClassId)
        .find(|&c| program.class(c).name == "RequestScopedBean")
        .expect("every app has a request-scoped churn class");
    let mut vm = beehive_vm::VmInstance::function(&program, CostModel::default());
    1e6 * per_unit(10, || {
        timed_unit(|| {
            for _ in 0..20_000 {
                if vm.heap.alloc_object(churn, 9, Space::Alloc).is_none() {
                    break;
                }
            }
            vm.collect(&mut [], &mut []).pause
        })
    })
}

/// Host time per call of the offload-side layers of `core`.
#[derive(Clone, Copy, Debug)]
pub struct CoreTimes {
    /// A warm `OffloadSession` driven to completion, microseconds.
    pub offload_request_us: f64,
    /// `ServerRuntime::instantiate_closure` on a fresh instance,
    /// microseconds.
    pub closure_instantiate_us: f64,
    /// `ServerRuntime::pull_dirty_from` during monitor hand-offs between
    /// two alternating warm instances, microseconds.
    pub sync_handoff_us: f64,
}

/// Measure [`CoreTimes`] on `app` with a BeeHive server (write barriers
/// on).
pub fn core_times(app: &App, seed: u64) -> CoreTimes {
    let mut server = server_for(app, true);
    let mut funcs = HashMap::new();
    let mut pull = (HostDuration::ZERO, 0);
    // Two warm instances: the first request on each computes its closure
    // and refines the plan.
    for id in 0..2u32 {
        funcs.insert(id, FunctionRuntime::new(id, &app.program, server.vm.cost));
        let mut warm = start_offload(&mut server, &mut funcs, app, id, 1);
        drive_offload(&mut server, &mut warm, &mut funcs, &mut pull);
    }
    let mut rng = Rng::new(seed);
    let offload_request_us = 1e6
        * per_unit(20, || {
            let arg = rng.gen_range(997) as i64;
            timed_unit(|| {
                let mut s = start_offload(&mut server, &mut funcs, app, 0, arg);
                drive_offload(&mut server, &mut s, &mut funcs, &mut pull)
            })
        });

    let mut next_id = 10u32;
    let closure_instantiate_us = 1e6
        * per_unit(20, || {
            let mut f = FunctionRuntime::new(next_id, &app.program, server.vm.cost);
            next_id += 1;
            let t = timed_unit(|| server.instantiate_closure(&mut f, app.root).bytes);
            server.remove_mapping(f.id);
            t
        });

    // Alternate instances so monitor ownership keeps moving.
    let mut which = 0u32;
    pull = (HostDuration::ZERO, 0);
    let start = Instant::now();
    let mut requests = 0;
    while requests < 20 || start.elapsed() < BUDGET {
        which ^= 1;
        let mut s = start_offload(&mut server, &mut funcs, app, which, 2);
        drive_offload(&mut server, &mut s, &mut funcs, &mut pull);
        requests += 1;
    }
    CoreTimes {
        offload_request_us,
        closure_instantiate_us,
        sync_handoff_us: 1e6 * pull.0.as_secs_f64() / pull.1.max(1) as f64,
    }
}
