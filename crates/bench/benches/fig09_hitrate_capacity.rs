//! Figure 9: ChargeCache hit rate versus capacity (1 ms caching
//! duration), with the unlimited-capacity ceiling.
//!
//! Paper results: 128 entries/core yields 38% (single-core) and 66%
//! (eight-core) hit rates; returns diminish toward the unlimited ceiling.
//!
//! One `sim::api` grid per core count: the capacity axis (plus the
//! unlimited ceiling) is a variant list, and every point shares the
//! memoized run cache.

use bench::{banner, mean, mixes, pct, sweep_mix_count, workloads};
use chargecache::{MechanismSpec, ParamValue};
use sim::api::{CellId, Experiment, SweepResult, Variant};
use sim::exp::ExpParams;

const CAPACITIES: [usize; 7] = [32, 64, 128, 256, 512, 1024, 2048];

fn capacity_variants() -> Vec<Variant> {
    let mut vs: Vec<Variant> = CAPACITIES.iter().map(|&n| Variant::entries(n)).collect();
    // The dashed unlimited-capacity ceiling: spec parameters, like every
    // other point on the axis.
    vs.push(Variant::new("unlimited", |cfg| {
        cfg.mechanism.set("unlimited", ParamValue::Bool(true));
        cfg.mechanism
            .set("invalidation", ParamValue::Str("exact".into()));
    }));
    vs
}

fn mean_hit_rate(sweep: &SweepResult, variant: &str) -> f64 {
    let hs: Vec<f64> = sweep
        .select(&CellId::new().mechanism("chargecache").variant(variant))
        .filter_map(|c| c.result().hcrac_hit_rate())
        .collect();
    mean(&hs)
}

fn main() {
    let p = ExpParams::bench();
    banner(
        "Figure 9: HCRAC hit rate vs capacity (1 ms duration)",
        "128 entries → 38% (1-core) / 66% (8-core); dashed = unlimited ceiling",
    );

    println!(
        "{:<10} {:>14} {:>14}",
        "entries", "1-core hit", "8-core hit"
    );
    let sweep1 = Experiment::new()
        .workloads(workloads())
        .mechanism(MechanismSpec::chargecache())
        .variants(capacity_variants())
        .params(p)
        .run()
        .expect("paper configuration is valid");
    let sweep8 = Experiment::new()
        .mixes(mixes(sweep_mix_count()))
        .mechanism(MechanismSpec::chargecache())
        .variants(capacity_variants())
        .params(p)
        .run()
        .expect("paper configuration is valid");
    for entries in CAPACITIES {
        let label = entries.to_string();
        println!(
            "{:<10} {:>14} {:>14}",
            entries,
            pct(mean_hit_rate(&sweep1, &label)),
            pct(mean_hit_rate(&sweep8, &label))
        );
    }
    println!(
        "{:<10} {:>14} {:>14}",
        "unlimited",
        pct(mean_hit_rate(&sweep1, "unlimited")),
        pct(mean_hit_rate(&sweep8, "unlimited"))
    );
}
