//! Quickstart: run one workload with and without ChargeCache and print
//! the headline effect, declared through the `sim::api` experiment
//! builder.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment, Metric};
use sim::ExpParams;
use traces::workload;

fn main() {
    // A memory-intensive, bank-conflict-heavy workload (two interleaved
    // streams, like STREAM's copy kernel).
    let spec = workload("STREAMcopy").expect("paper workload");

    println!("workload: {} ({:?})", spec.name, spec.pattern);
    println!("system: 1 core, 4 MB LLC, DDR3-1600, FR-FCFS, open-row\n");

    // One declarative sweep: {workload} × {baseline, ChargeCache}.
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(ExpParams::bench())
        .run()
        .expect("paper configuration is valid");

    let baseline = sweep
        .get(&CellId::new().mechanism("baseline"))
        .expect("baseline cell");
    let chargecache = sweep
        .get(&CellId::new().mechanism("chargecache"))
        .expect("ChargeCache cell");

    println!("baseline IPC:     {:.4}", baseline.metric(Metric::Ipc));
    println!("ChargeCache IPC:  {:.4}", chargecache.metric(Metric::Ipc));
    println!(
        "speedup:          {:+.2}%",
        sweep.speedup(chargecache, baseline) * 100.0
    );
    println!();
    println!(
        "HCRAC hit rate:   {:.1}%  (fraction of activations served with reduced tRCD/tRAS)",
        chargecache.result().hcrac_hit_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "0.125ms-RLTL:     {:.1}%  (the row locality ChargeCache exploits)",
        baseline.metric(Metric::RltlFraction(0)) * 100.0
    );
    println!(
        "DRAM energy:      {:.4} mJ -> {:.4} mJ ({:+.2}%)",
        baseline.metric(Metric::EnergyMj),
        chargecache.metric(Metric::EnergyMj),
        (chargecache.metric(Metric::EnergyMj) / baseline.metric(Metric::EnergyMj) - 1.0) * 100.0
    );
}
