//! Memory-latency distribution: where ChargeCache's cycles come from.
//!
//! Prints the read-latency histogram (enqueue → data, in DRAM bus cycles)
//! under baseline and ChargeCache, plus the mean and tail quantiles. The
//! mechanism shaves the activation component of row-miss latency, which
//! shows up as mass shifting toward the lower buckets.
//!
//! ```sh
//! cargo run --release --example latency_profile -- milc
//! ```

use bitline::derive::CycleQuantized;
use chargecache::MechanismSpec;
use sim::api::{CellId, Experiment};
use sim::ExpParams;
use traces::workload;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "milc".into());
    let spec = workload(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    });
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(ExpParams::bench())
        .run()
        .expect("paper configuration is valid");
    let base = sweep
        .get(&CellId::new().mechanism("baseline"))
        .expect("baseline cell")
        .result();
    let ccr = sweep
        .get(&CellId::new().mechanism("chargecache"))
        .expect("ChargeCache cell")
        .result();

    println!(
        "workload {} — read latency (bus cycles, enqueue → data)\n",
        spec.name
    );
    println!(
        "{:>12} {:>14} {:>14}",
        "≤ cycles", "baseline", "ChargeCache"
    );
    for i in 3..12 {
        let bound = 1u64 << i;
        let b = base.ctrl.read_latency_hist[i];
        let c = ccr.ctrl.read_latency_hist[i];
        if b == 0 && c == 0 {
            continue;
        }
        println!("{bound:>12} {b:>14} {c:>14}");
    }
    println!();
    println!(
        "mean:   {:>8.1} -> {:>8.1} bus cycles",
        base.ctrl.avg_read_latency(),
        ccr.ctrl.avg_read_latency()
    );
    for q in [0.5, 0.9, 0.99] {
        println!(
            "p{:<5} {:>8} -> {:>8} (bucket bound)",
            (q * 100.0) as u32,
            base.ctrl.read_latency_quantile(q).unwrap_or(0),
            ccr.ctrl.read_latency_quantile(q).unwrap_or(0)
        );
    }
    let tck = sim::SystemConfig::paper_single_core(MechanismSpec::chargecache())
        .dram
        .timing
        .tck_ns;
    let red = CycleQuantized::for_duration_ms(1.0, tck);
    println!(
        "\nHCRAC hit rate: {:.1}% — each hit removes up to {} bus cycles of tRCD",
        ccr.hcrac_hit_rate().unwrap_or(0.0) * 100.0,
        red.trcd_reduction
    );
}
