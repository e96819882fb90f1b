//! Latency sensitivity: speedup versus DRAM speed bin.
//!
//! The paper evaluates one device — DDR3-1600 11-11-11 (Table 1) — and
//! argues (Section 7.2) that ChargeCache applies to any DDR-derived
//! interface. This figure asks the obvious follow-on question the paper
//! leaves open: how does row-access-locality caching pay off as the
//! baseline gets faster or slower? Each JEDEC speed bin re-quantizes the
//! HCRAC hit timings and the NUAT bins against its own clock
//! (`tck_ns`), and the core-to-bus clock ratio follows the bin, so the
//! sweep crosses mechanisms × speed bins on equal footing.
//!
//! Expected shape: the *absolute* tRCD/tRAS cycle counts grow with the
//! clock rate (the analog timings are nearly constant in nanoseconds),
//! so the latency ChargeCache can shave stays roughly constant in ns
//! while everything else gets faster — the relative speedup persists
//! across bins rather than vanishing on faster parts.

use bench::{banner, mean, pct, workloads};
use chargecache::MechanismSpec;
use dram::{SpeedBin, TimingSpec};
use sim::api::{CellId, Experiment};
use sim::exp::ExpParams;

fn main() {
    let p = ExpParams::bench();
    banner(
        "Timing sensitivity: speedup vs JEDEC speed bin (cc/ccnuat/ll)",
        "beyond the paper: Section 7.2 claims applicability across DDR-derived interfaces",
    );

    let mechanisms = [
        MechanismSpec::baseline(),
        MechanismSpec::chargecache(),
        MechanismSpec::cc_nuat(),
        MechanismSpec::lldram(),
    ];
    let sweep = Experiment::new()
        .workloads(workloads())
        .timings(SpeedBin::DDR3.iter().map(|&b| TimingSpec::for_bin(b)))
        .mechanisms(&mechanisms)
        .params(p)
        .run()
        .expect("paper configuration is valid");

    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "speed bin", "tRCD", "base IPC", "cc", "ccnuat", "ll"
    );
    for bin in SpeedBin::DDR3 {
        let timing = TimingSpec::for_bin(bin).to_string();
        let trcd = bin.timing().trcd;
        let mut base_ipc = Vec::new();
        let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
        for w in workloads() {
            let id = CellId::new().subject(w.name).timing(&timing);
            let base = sweep
                .get(&id.clone().mechanism("baseline"))
                .expect("baseline cell");
            base_ipc.push(base.result().ipc(0));
            for (i, mech) in ["chargecache", "cc-nuat", "lldram"].iter().enumerate() {
                let c = sweep
                    .get(&id.clone().mechanism(*mech))
                    .expect("mechanism cell");
                speedups[i].push(c.result().ipc(0) / base.result().ipc(0).max(1e-9) - 1.0);
            }
        }
        println!(
            "{:<12} {:>6} {:>10.4} {:>10} {:>10} {:>10}",
            timing,
            trcd,
            mean(&base_ipc),
            pct(mean(&speedups[0])),
            pct(mean(&speedups[1])),
            pct(mean(&speedups[2]))
        );
    }
}
