//! Eight-core weighted-speedup comparison: the paper's headline result.
//!
//! Runs one multiprogrammed mix under all five mechanisms and reports
//! weighted speedup versus the DDR3 baseline. One `sim::api` grid: the
//! alone-IPC denominators are requested declaratively and memoized per
//! workload.
//!
//! ```sh
//! cargo run --release --example multicore_speedup          # mix w1
//! cargo run --release --example multicore_speedup -- 7     # mix w7
//! ```

use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment};
use sim::ExpParams;
use traces::eight_core_mixes;

fn main() {
    let idx: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mixes = eight_core_mixes();
    let mix = mixes
        .get(idx.saturating_sub(1))
        .unwrap_or_else(|| {
            eprintln!("mix index must be 1..={}", mixes.len());
            std::process::exit(1);
        })
        .clone();

    println!("mix {}:", mix.name);
    for (core, app) in mix.apps.iter().enumerate() {
        println!("  core {core}: {}", app.name);
    }
    println!();

    // Weighted speedup uses a common set of alone-IPC denominators
    // (baseline system), so ratios isolate the shared-run improvement.
    let sweep = Experiment::new()
        .mix(mix.clone())
        .mechanisms(&MechanismSpec::paper_all())
        .params(ExpParams::bench())
        .alone_ipcs(MechanismSpec::baseline())
        .run()
        .expect("paper configuration is valid");

    let mut ws_base = 0.0;
    println!(
        "{:<20} {:>16} {:>12}",
        "mechanism", "weighted speedup", "vs baseline"
    );
    for spec in MechanismSpec::paper_all() {
        let cell = sweep
            .get(&CellId::new().mechanism(spec.name()))
            .expect("mechanism cell");
        let ws = sweep.weighted_speedup(cell).expect("alone runs computed");
        if spec.name() == "baseline" {
            ws_base = ws;
        }
        println!(
            "{:<20} {:>16.3} {:>11.2}%",
            spec.label(),
            ws,
            (ws / ws_base - 1.0) * 100.0
        );
    }
}
