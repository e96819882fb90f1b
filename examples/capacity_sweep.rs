//! HCRAC design-space exploration: hit rate and speedup versus capacity
//! and associativity for one workload — the per-design view behind the
//! paper's Figures 9 and 10, declared as one `sim::api` variant grid.
//!
//! ```sh
//! cargo run --release --example capacity_sweep -- tpch17
//! ```

use chargecache::{MechanismSpec, ParamValue};
use sim::api::{CellId, Experiment, Variant};
use sim::ExpParams;
use traces::workload;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "tpch17".into());
    let spec = workload(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    });
    let params = ExpParams::bench();

    let baseline = Experiment::new()
        .workload(spec.clone())
        .mechanism(MechanismSpec::baseline())
        .params(params)
        .run()
        .expect("paper configuration is valid");
    let base_ipc = baseline.cells[0].result().ipc(0);
    println!(
        "workload {} — baseline IPC {:.4}, RMPKC {:.2}\n",
        spec.name,
        base_ipc,
        baseline.cells[0].result().rmpkc()
    );

    println!(
        "{:>8} {:>6} {:>10} {:>10}",
        "entries", "ways", "hit rate", "speedup"
    );
    let grid: Vec<(usize, usize)> = [32usize, 64, 128, 256, 512, 1024]
        .into_iter()
        .flat_map(|entries| [(entries, 2usize), (entries, 0usize)])
        .collect();
    let variants = grid.iter().map(|&(entries, ways)| {
        Variant::new(format!("{entries}w{ways}"), move |cfg| {
            cfg.mechanism
                .set("entries", ParamValue::Int(entries as i64));
            cfg.mechanism.set("ways", ParamValue::Int(ways as i64));
        })
    });
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanism(MechanismSpec::chargecache())
        .variants(variants)
        .variant(Variant::new("unlimited", |cfg| {
            cfg.mechanism.set("unlimited", ParamValue::Bool(true));
            cfg.mechanism
                .set("invalidation", ParamValue::Str("exact".into()));
        }))
        .params(params)
        .run()
        .expect("paper configuration is valid");
    for ((entries, ways), cell) in grid.iter().zip(&sweep.cells) {
        println!(
            "{:>8} {:>6} {:>9.1}% {:>+9.2}%",
            entries,
            if *ways == 0 {
                "full".into()
            } else {
                ways.to_string()
            },
            cell.result().hcrac_hit_rate().unwrap_or(0.0) * 100.0,
            (cell.result().ipc(0) / base_ipc - 1.0) * 100.0
        );
    }

    let unlimited = sweep
        .get(&CellId::new().variant("unlimited"))
        .expect("unlimited cell");
    println!(
        "{:>8} {:>6} {:>9.1}% {:>+9.2}%",
        "∞",
        "-",
        unlimited.result().hcrac_hit_rate().unwrap_or(0.0) * 100.0,
        (unlimited.result().ipc(0) / base_ipc - 1.0) * 100.0
    );
}
