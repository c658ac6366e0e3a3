//! Demonstrate shadow execution (§3.4): the first invocation on every fresh
//! FaaS instance suffers a cold boot, JVM warmup, and a fallback storm while
//! the closure completes. BeeHive hides all of it by running that first
//! invocation as a side-effect-free *shadow* while the real request stays on
//! the server.
//!
//! ```text
//! cargo run --release --example shadow_warmup
//! ```

use beehive::apps::AppKind;
use beehive::workload::engine::Runner;
use beehive::workload::experiment::breakdown::shadow_breakdown;
use beehive::workload::experiment::Profile;

fn main() {
    println!("Shadow execution — hiding the warmup (paper §3.4 / §5.6)\n");
    let mut run = Runner::new(Profile::quick());
    for kind in AppKind::all() {
        let r = shadow_breakdown(kind, &mut run);
        println!("{r}");
    }
    println!(
        "Without shadowing, clients ride out multi-second first invocations;\n\
         with it, offloaded requests only ever land on refined, JIT-warm\n\
         instances. The paper reports a 6.45x worst-case latency reduction."
    );
}
