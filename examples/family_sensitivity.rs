//! Device-family sensitivity of row-access-locality caching: one
//! workload swept across the built-in DRAM families (DDR3, DDR4 with
//! bank groups, LPDDR4X with per-bank refresh, an HBM2-style stack) for
//! cc/ccnuat/ll, printing the speedup-vs-family curve and emitting the
//! full sweep as a `chargecache-sweep/v5` JSON document (the schema
//! records the family axis since v5).
//!
//! ```sh
//! cargo run --release --example family_sensitivity -- mcf
//! cargo run --release --example family_sensitivity -- mcf --json > sweep.json
//! ```

use chargecache::MechanismSpec;
use dram::FamilySpec;
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

    let families: Vec<FamilySpec> = ["ddr3", "ddr4", "lpddr4x", "hbm2"]
        .iter()
        .map(|f| f.parse().expect("built-in family"))
        .collect();
    let sweep = Experiment::new()
        .workload(spec.clone())
        .families(families.clone())
        .mechanisms(&[
            MechanismSpec::baseline(),
            MechanismSpec::chargecache(),
            MechanismSpec::cc_nuat(),
            MechanismSpec::lldram(),
        ])
        .params(ExpParams::bench())
        .run()
        .expect("built-in families are valid");

    if json {
        println!("{}", sweep.to_json());
        return;
    }

    println!(
        "workload {} across {} device families (each family brings its own \
         geometry, default bin, and refresh scope)\n",
        spec.name,
        sweep.families.len()
    );
    println!(
        "{:<10} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "family", "default bin", "base IPC", "cc", "ccnuat", "ll"
    );
    for f in &families {
        let family = f.to_string();
        let id = CellId::new().family(&family);
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
        let params = dram::family::resolve(f).expect("built-in family resolves");
        println!(
            "{:<10} {:>14} {:>10.4} {:>10} {:>10} {:>10}",
            family,
            params.default_timing_spec().to_string(),
            base.result().ipc(0),
            speedup("chargecache"),
            speedup("cc-nuat"),
            speedup("lldram")
        );
    }
}
