//! Telemetry overhead guard.
//!
//! The no-op sink must be near-free: an untraced run executes every probe
//! with no recorder installed, so the only cost is the thread-local check.
//! This bench pins that down two ways:
//!
//! * `probe/*` — the raw cost of one probe call with no recorder, with a
//!   recorder installed, and of an argument-carrying instant,
//! * `request/offload` — a hot end-to-end experiment iteration (the same
//!   shape as `components.rs`'s `request/offload/*`) with probes present
//!   but disabled.
//!
//! Run it once normally and once with tracing compiled out entirely, then
//! compare the `request/offload` rows — they should be indistinguishable:
//!
//! ```text
//! cargo bench -p beehive-bench --bench telemetry
//! CARGO_TARGET_DIR=target/compile-off \
//!     cargo bench -p beehive-bench --bench telemetry \
//!     --features beehive-telemetry/compile-off
//! ```
//!
//! The header line reports which mode the binary was compiled in. Give the
//! compiled-off run its own `CARGO_TARGET_DIR`: cargo keeps one copy of each
//! artifact per target dir, so building the feature into the shared
//! `target/` would leave a probe-free `repro` binary behind for later plain
//! builds to re-use as fresh.

use std::collections::HashMap;
use std::sync::Arc;

use beehive_apps::{App, AppKind, Fidelity};
use beehive_bench::{black_box, BenchConfig, Harness};
use beehive_core::config::BeeHiveConfig;
use beehive_core::{FunctionRuntime, OffloadSession, ServerRuntime, SessionStep};
use beehive_db::Database;
use beehive_proxy::Proxy;
use beehive_telemetry as tele;
use beehive_vm::{CostModel, Value};

fn fresh_server(app: &App) -> ServerRuntime {
    let mut server = ServerRuntime::new(
        Arc::clone(&app.program),
        BeeHiveConfig::default(),
        Proxy::new(Database::new()),
        CostModel::default(),
    );
    app.install(&mut server);
    server
}

fn drive_offload(
    server: &mut ServerRuntime,
    session: &mut OffloadSession,
    funcs: &mut HashMap<u32, FunctionRuntime>,
) -> Value {
    loop {
        let id = session.function_id;
        let mut f = funcs.remove(&id).unwrap();
        let step = session.next(server, &mut f);
        funcs.insert(id, f);
        match step {
            SessionStep::Need(_) => {}
            SessionStep::SyncFromPeer { .. }
            | SessionStep::ServerGc
            | SessionStep::AwaitLock { .. } => unreachable!("single instance, no peers"),
            SessionStep::Finished(v) => return v,
        }
    }
}

fn bench_probes(h: &mut Harness) {
    // No recorder installed: the disabled path every untraced simulation
    // pays on each probe site.
    h.bench("probe/disabled/begin_end", || {
        tele::begin(tele::Track::Server, "bench", &[]);
        tele::end(tele::Track::Server, "bench", &[]);
    });
    h.bench("probe/disabled/instant_args", || {
        tele::instant(
            tele::Track::Request(7),
            "bench",
            &[("value", tele::Arg::UInt(black_box(42)))],
        );
    });

    if tele::COMPILED_OFF {
        return; // a recorder cannot be driven when probes compile to nothing
    }
    // Recorder installed: the recording-sink cost per event. The buffer is
    // taken every batch so memory stays bounded and `take` amortizes out.
    tele::install(true);
    let mut n = 0u32;
    h.bench("probe/recording/begin_end", || {
        tele::begin(tele::Track::Server, "bench", &[]);
        tele::end(tele::Track::Server, "bench", &[]);
        n += 1;
        if n >= 4096 {
            n = 0;
            black_box(tele::take());
            tele::install(true);
        }
    });
    black_box(tele::take());
}

fn bench_offload_request(h: &mut Harness) {
    let app = App::build(AppKind::Pybbs, Fidelity::Scaled(2048));
    let mut server = fresh_server(&app);
    let mut funcs = HashMap::new();
    funcs.insert(
        0,
        FunctionRuntime::new(0, &app.program, CostModel::default()),
    );
    let net = server.config.net;
    let mut warm = OffloadSession::start(
        &mut server,
        funcs.get_mut(&0).unwrap(),
        app.root,
        vec![Value::I64(1)],
        false,
        net,
        false,
    );
    drive_offload(&mut server, &mut warm, &mut funcs);
    let mut arg = 0i64;
    h.bench("request/offload", || {
        arg = (arg + 1) % 997;
        let mut s = {
            let f = funcs.get_mut(&0).unwrap();
            OffloadSession::start(
                &mut server,
                f,
                app.root,
                vec![Value::I64(arg)],
                false,
                net,
                false,
            )
        };
        drive_offload(&mut server, &mut s, &mut funcs)
    });
}

fn main() {
    println!(
        "telemetry mode: {}",
        if tele::COMPILED_OFF {
            "compiled off (feature beehive-telemetry/compile-off)"
        } else {
            "no-op sink (probes live, no recorder)"
        }
    );
    let mut h = Harness::new(BenchConfig::default().samples(20));
    bench_probes(&mut h);
    bench_offload_request(&mut h);
    h.finish();
}
