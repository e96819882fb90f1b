//! Figure 11: speedup and hit rate versus caching duration.
//!
//! Paper result: longer caching durations raise the hit rate only
//! slightly but weaken the timing reductions (Table 2), so 1 ms is the
//! empirically best duration; speedup falls monotonically beyond it.
//!
//! The duration axis is a `sim::api` variant list; the
//! duration-independent baselines are shared, memoized runs.

use bench::{banner, mean, mixes, pct, sweep_mix_count, workloads};
use bitline::derive::CycleQuantized;
use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment, Variant};
use sim::exp::ExpParams;

const DURATIONS_MS: [f64; 4] = [1.0, 4.0, 8.0, 16.0];

fn main() {
    let p = ExpParams::bench();
    banner(
        "Figure 11: speedup and HCRAC hit rate vs caching duration",
        "1 ms is best; longer durations trade timing margin for few extra hits",
    );

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

    let durations = || DURATIONS_MS.iter().map(|&d| Variant::duration_ms(d));
    let cc1 = Experiment::new()
        .workloads(specs)
        .mechanism(MechanismSpec::chargecache())
        .variants(durations())
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let cc8 = Experiment::new()
        .mixes(mix_list)
        .mechanism(MechanismSpec::chargecache())
        .variants(durations())
        .params(p)
        .run()
        .expect("paper configuration is valid");

    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "duration", "ΔtRCD/ΔtRAS", "1c spdup", "1c hit", "8c spdup", "8c hit", ""
    );
    for d in DURATIONS_MS {
        let label = format!("{d} ms");
        // Same derivation the chargecache factory applies (its tck comes
        // from the cell's DRAM timing), so the printed pair matches what
        // the cells actually ran.
        let tck = sim::SystemConfig::paper_single_core(MechanismSpec::chargecache())
            .dram
            .timing
            .tck_ns;
        let red = CycleQuantized::for_duration_ms(d, tck);
        let mut s1 = Vec::new();
        let mut h1 = Vec::new();
        for b in &base1.cells {
            let c = cc1
                .get(&CellId::new().subject(&b.subject).variant(&label))
                .expect("duration cell");
            s1.push(c.result().ipc(0) / b.result().ipc(0).max(1e-9) - 1.0);
            if let Some(h) = c.result().hcrac_hit_rate() {
                h1.push(h);
            }
        }
        let mut s8 = Vec::new();
        let mut h8 = Vec::new();
        for b in &base8.cells {
            let c = cc8
                .get(&CellId::new().subject(&b.subject).variant(&label))
                .expect("duration cell");
            s8.push(c.result().ipc_sum() / b.result().ipc_sum().max(1e-9) - 1.0);
            if let Some(h) = c.result().hcrac_hit_rate() {
                h8.push(h);
            }
        }
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            label,
            format!("{}/{}", red.trcd_reduction, red.tras_reduction),
            pct(mean(&s1)),
            pct(mean(&h1)),
            pct(mean(&s8)),
            pct(mean(&h8))
        );
    }
}
