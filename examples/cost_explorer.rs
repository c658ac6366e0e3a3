//! Explore when Semi-FaaS is the economical choice (§5.4, Figure 9): the
//! hourly cost of each scaling strategy as the share of the hour spent in
//! burst varies.
//!
//! ```text
//! cargo run --release --example cost_explorer [app]
//! ```

use beehive::apps::AppKind;
use beehive::workload::engine::Runner;
use beehive::workload::experiment::{fig9::fig9, Profile};

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("thumbnail") => AppKind::Thumbnail,
        Some("blog") => AppKind::Blog,
        _ => AppKind::Pybbs,
    };
    let report = fig9(kind, &mut Runner::new(Profile::quick()));
    println!("{report}");

    let burstable = report.curve("Burstable");
    let lambda = report.curve("BeeHiveL");
    let openwhisk = report.curve("BeeHiveO");
    println!("takeaways:");
    for &ratio in &report.ratios {
        let b = burstable.at(ratio);
        let l = lambda.at(ratio);
        let o = openwhisk.at(ratio);
        let cheaper: &str = if l < b && o < b {
            "both BeeHive deployments beat the always-on burstable instance"
        } else if l < b {
            "BeeHive on Lambda beats the always-on burstable instance"
        } else {
            "the always-on burstable instance is cheaper"
        };
        println!(
            "  bursts {:>4.0}% of the hour: {} ({:.2}x Lambda gain)",
            ratio * 100.0,
            cheaper,
            b / l.max(1e-9)
        );
    }
    println!(
        "\nThe paper's conclusion (§5.4): Semi-FaaS pays off when bursts are\n\
         infrequent — at a 10% burst ratio it reaches ~3.5x cost reduction on\n\
         Lambda — while sustained bursts favor reserved capacity."
    );
}
