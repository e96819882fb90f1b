//! Device-family sensitivity: speedup versus DRAM family.
//!
//! The paper evaluates DDR3-1600 (Table 1) and argues (Section 7.2)
//! that ChargeCache applies to any DDR-derived interface. This figure
//! tests that claim against the device features DDR3 lacks: DDR4's
//! bank groups (tCCD_L/tRRD_L penalize same-group streams), LPDDR4X's
//! longer tRCD and per-bank refresh, and an HBM2-style stack's many
//! narrow channels with small rows. Each family swaps in its own
//! geometry, default speed bin, and refresh scope; the mechanisms ride
//! along unchanged.
//!
//! Expected shape: the speedup *persists* across families — highly-
//! charged rows are a property of access locality, not of the DDR3
//! interface. LPDDR4X should benefit the most (more tRCD cycles to
//! shave per hit); bank groups reorder but do not erase the gain; the
//! HBM2-style target's small rows raise activation counts, which gives
//! the HCRAC more opportunities per kilo-instruction.
//!
//! Pass `--json` (after `--` under `cargo bench`) to emit the sweep as
//! a `chargecache-sweep/v5` document instead of the table.

use bench::{banner, mean, pct, workloads};
use chargecache::MechanismSpec;
use dram::FamilySpec;
use sim::api::{CellId, Experiment};
use sim::exp::ExpParams;

const FAMILIES: [&str; 4] = ["ddr3", "ddr4", "lpddr4x", "hbm2"];

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let p = ExpParams::bench();
    if !json {
        banner(
            "Family sensitivity: speedup vs device family (cc/ccnuat/ll)",
            "beyond the paper: Section 7.2 claims applicability across DDR-derived interfaces",
        );
    }

    let families: Vec<FamilySpec> = FAMILIES
        .iter()
        .map(|f| f.parse().expect("built-in family"))
        .collect();
    let mechanisms = [
        MechanismSpec::baseline(),
        MechanismSpec::chargecache(),
        MechanismSpec::cc_nuat(),
        MechanismSpec::lldram(),
    ];
    let sweep = Experiment::new()
        .workloads(workloads())
        .families(families.clone())
        .mechanisms(&mechanisms)
        .params(p)
        .run()
        .expect("built-in families are valid");

    if json {
        println!("{}", sweep.to_json());
        return;
    }

    println!(
        "{:<10} {:>14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "family", "default bin", "tRCD", "base IPC", "cc", "ccnuat", "ll"
    );
    for f in &families {
        let family = f.to_string();
        let params = dram::family::resolve(f).expect("built-in family resolves");
        let bin = params.default_timing_spec();
        let mut base_ipc = Vec::new();
        let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
        for w in workloads() {
            let id = CellId::new().subject(w.name).family(&family);
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
            "{:<10} {:>14} {:>6} {:>10.4} {:>10} {:>10} {:>10}",
            family,
            bin.to_string(),
            bin.resolve().expect("family default bin resolves").trcd,
            mean(&base_ipc),
            pct(mean(&speedups[0])),
            pct(mean(&speedups[1])),
            pct(mean(&speedups[2]))
        );
    }
    println!("\ngeometry:");
    for f in &families {
        let params = dram::family::resolve(f).expect("built-in family resolves");
        println!("  {:<10} {}", f.to_string(), params.geometry_line());
    }
}
