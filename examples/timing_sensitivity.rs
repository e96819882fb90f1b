//! Latency sensitivity of row-access-locality caching: one workload
//! swept across the JEDEC DDR3 speed bins for cc/ccnuat/ll, printing the
//! speedup-vs-speed-bin curve and emitting the full sweep as a
//! `chargecache-sweep/v5` JSON document (the schema records the timing
//! axis since v3).
//!
//! ```sh
//! cargo run --release --example timing_sensitivity -- mcf
//! cargo run --release --example timing_sensitivity -- mcf --json > sweep.json
//! ```

use chargecache::MechanismSpec;
use dram::{SpeedBin, TimingSpec};
use sim::api::{CellId, Experiment};
use sim::ExpParams;
use traces::workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "mcf".into());
    let spec = workload(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    });

    let sweep = Experiment::new()
        .workload(spec.clone())
        .timings(SpeedBin::DDR3.iter().map(|&b| TimingSpec::for_bin(b)))
        .mechanisms(&[
            MechanismSpec::baseline(),
            MechanismSpec::chargecache(),
            MechanismSpec::cc_nuat(),
            MechanismSpec::lldram(),
        ])
        .params(ExpParams::bench())
        .run()
        .expect("paper configuration is valid");

    if json {
        println!("{}", sweep.to_json());
        return;
    }

    println!(
        "workload {} across {} speed bins (reductions re-quantized per bin)\n",
        spec.name,
        sweep.timings.len()
    );
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "speed bin", "tRCD", "base IPC", "cc", "ccnuat", "ll"
    );
    for bin in SpeedBin::DDR3 {
        let timing = TimingSpec::for_bin(bin).to_string();
        let id = CellId::new().timing(&timing);
        let base = sweep
            .get(&id.clone().mechanism("baseline"))
            .expect("baseline cell");
        let speedup = |mech: &str| {
            let c = sweep
                .get(&id.clone().mechanism(mech))
                .expect("mechanism cell");
            format!(
                "{:+.2}%",
                (c.result().ipc(0) / base.result().ipc(0).max(1e-9) - 1.0) * 100.0
            )
        };
        println!(
            "{:<12} {:>6} {:>10.4} {:>10} {:>10} {:>10}",
            timing,
            bin.timing().trcd,
            base.result().ipc(0),
            speedup("chargecache"),
            speedup("cc-nuat"),
            speedup("lldram")
        );
    }
}
