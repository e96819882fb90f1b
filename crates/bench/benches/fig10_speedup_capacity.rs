//! Figure 10: speedup versus ChargeCache capacity.
//!
//! Paper results (eight-core): 128 entries → 8.8%, 1024 entries → 10.6%;
//! benefits grow with capacity but diminish at the high end.
//!
//! The capacity-independent baselines are their own one-variant grids
//! (memoized and shared with every other figure in the process); the
//! ChargeCache side sweeps the capacity axis as a variant list.

use bench::{banner, mean, mixes, pct, sweep_mix_count, workloads};
use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment, Variant};
use sim::exp::ExpParams;

const CAPACITIES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

fn main() {
    let p = ExpParams::bench();
    banner(
        "Figure 10: speedup vs HCRAC capacity",
        "8-core: 8.8% at 128 entries, 10.6% at 1024; diminishing returns",
    );

    // Baselines are capacity-independent: run once.
    let specs = workloads();
    let mix_list = mixes(sweep_mix_count());
    let base1 = Experiment::new()
        .workloads(specs.clone())
        .mechanism(MechanismSpec::baseline())
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let base8 = Experiment::new()
        .mixes(mix_list.clone())
        .mechanism(MechanismSpec::baseline())
        .params(p)
        .run()
        .expect("paper configuration is valid");

    let cc1 = Experiment::new()
        .workloads(specs)
        .mechanism(MechanismSpec::chargecache())
        .variants(CAPACITIES.iter().map(|&n| Variant::entries(n)))
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let cc8 = Experiment::new()
        .mixes(mix_list)
        .mechanism(MechanismSpec::chargecache())
        .variants(CAPACITIES.iter().map(|&n| Variant::entries(n)))
        .params(p)
        .run()
        .expect("paper configuration is valid");

    println!(
        "{:<10} {:>14} {:>14}",
        "entries", "1-core spdup", "8-core spdup"
    );
    for entries in CAPACITIES {
        let label = entries.to_string();
        let s1: Vec<f64> = base1
            .cells
            .iter()
            .map(|b| {
                let c = cc1
                    .get(&CellId::new().subject(&b.subject).variant(&label))
                    .expect("capacity cell");
                c.result().ipc(0) / b.result().ipc(0).max(1e-9) - 1.0
            })
            .collect();
        let s8: Vec<f64> = base8
            .cells
            .iter()
            .map(|b| {
                let c = cc8
                    .get(&CellId::new().subject(&b.subject).variant(&label))
                    .expect("capacity cell");
                c.result().ipc_sum() / b.result().ipc_sum().max(1e-9) - 1.0
            })
            .collect();
        println!(
            "{:<10} {:>14} {:>14}",
            entries,
            pct(mean(&s1)),
            pct(mean(&s8))
        );
    }
}
