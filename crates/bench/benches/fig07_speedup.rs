//! Figure 7: speedup of NUAT, ChargeCache, ChargeCache+NUAT and LL-DRAM
//! over the DDR3 baseline, with the RMPKC overlay.
//!
//! Paper results: single-core ChargeCache up to 9.3%, average 2.1%;
//! eight-core weighted speedup — NUAT 2.5%, ChargeCache 8.6%,
//! ChargeCache+NUAT 9.6%, LL-DRAM ≈ 13.4%. Orderings:
//! LL-DRAM ≥ CC+NUAT ≥ CC > NUAT on average, hmmer unaffected.
//!
//! Declared as two `sim::api` grids (subjects × all five mechanisms);
//! the eight-core grid also requests memoized alone-IPC runs for the
//! weighted-speedup denominators.

use std::collections::HashMap;

use bench::{banner, mean, mixes, pct, workloads};
use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment};
use sim::exp::ExpParams;

/// The four non-baseline mechanisms, by registered name.
const MECHS: [&str; 4] = ["nuat", "chargecache", "cc-nuat", "lldram"];

fn main() {
    let p = ExpParams::bench();
    banner(
        "Figure 7: speedup over baseline (NUAT / CC / CC+NUAT / LL-DRAM)",
        "1-core CC avg 2.1% (max 9.3%); 8-core NUAT 2.5%, CC 8.6%, CC+NUAT 9.6%",
    );

    // ---------- (a) single-core ----------
    let specs = workloads();
    let sweep = Experiment::new()
        .workloads(specs.clone())
        .mechanisms(&MechanismSpec::paper_all())
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let mut per_mech: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut rows: Vec<(String, f64, Vec<f64>)> = Vec::new();
    for spec in &specs {
        let id = CellId::new().subject(spec.name);
        let b = sweep
            .get(&id.clone().mechanism("baseline"))
            .expect("baseline cell");
        let speedups: Vec<f64> = MECHS
            .iter()
            .map(|&k| {
                let c = sweep.get(&id.clone().mechanism(k)).expect("mechanism cell");
                sweep.speedup(c, b)
            })
            .collect();
        for (j, k) in MECHS.iter().enumerate() {
            per_mech.entry(k).or_default().push(speedups[j]);
        }
        rows.push((spec.name.to_string(), b.result().rmpkc(), speedups));
    }
    // The paper sorts Figure 7a by ascending RMPKC.
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    println!("--- (a) single-core (sorted by RMPKC) ---");
    println!(
        "{:<12} {:>8} {:>9} {:>12} {:>9} {:>9}",
        "workload", "RMPKC", "NUAT", "ChargeCache", "CC+NUAT", "LL-DRAM"
    );
    for (name, rmpkc, s) in &rows {
        println!(
            "{:<12} {:>8.2} {:>9} {:>12} {:>9} {:>9}",
            name,
            rmpkc,
            pct(s[0]),
            pct(s[1]),
            pct(s[2]),
            pct(s[3])
        );
    }
    print!("{:<12} {:>8} ", "AVG", "");
    for k in MECHS {
        print!("{:>10}", pct(mean(&per_mech[k])));
    }
    println!("\n");

    // ---------- (b) eight-core (weighted speedup) ----------
    println!("--- (b) eight-core (weighted speedup over baseline) ---");
    let mix_list = mixes(20);
    // Weighted speedup uses a common set of alone-IPC denominators (the
    // baseline system's), so WS ratios reflect only the shared-run
    // improvement — the paper's "system throughput" usage.
    let sweep8 = Experiment::new()
        .mixes(mix_list.clone())
        .mechanisms(&MechanismSpec::paper_all())
        .params(p)
        .alone_ipcs(MechanismSpec::baseline())
        .run()
        .expect("paper configuration is valid");

    println!(
        "{:<6} {:>8} {:>9} {:>12} {:>9} {:>9}",
        "mix", "RMPKC", "NUAT", "ChargeCache", "CC+NUAT", "LL-DRAM"
    );
    let mut per_mech8: HashMap<&str, Vec<f64>> = HashMap::new();
    for mix in &mix_list {
        let id = CellId::new().subject(&mix.name);
        let b = sweep8
            .get(&id.clone().mechanism("baseline"))
            .expect("baseline cell");
        let ws_base = sweep8.weighted_speedup(b).expect("alone runs computed");
        let speedups: Vec<f64> = MECHS
            .iter()
            .map(|&k| {
                let c = sweep8
                    .get(&id.clone().mechanism(k))
                    .expect("mechanism cell");
                let ws = sweep8.weighted_speedup(c).expect("alone runs computed");
                ws / ws_base.max(1e-9) - 1.0
            })
            .collect();
        for (j, k) in MECHS.iter().enumerate() {
            per_mech8.entry(k).or_default().push(speedups[j]);
        }
        println!(
            "{:<6} {:>8.2} {:>9} {:>12} {:>9} {:>9}",
            mix.name,
            b.result().rmpkc(),
            pct(speedups[0]),
            pct(speedups[1]),
            pct(speedups[2]),
            pct(speedups[3])
        );
    }
    print!("{:<6} {:>8} ", "AVG", "");
    for k in MECHS {
        print!("{:>10}", pct(mean(&per_mech8[k])));
    }
    println!();
}
