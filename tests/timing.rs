//! Timing-preset subsystem tests: `TimingSpec` grammar round-trips,
//! rejection of incoherent specs, golden pinning of the default spec
//! against pre-preset captures, and the timing axis of `sim::api`.

use std::sync::RwLock;

use dram::{ParamValue, SpeedBin, TimingSpec};
use sim::api::{CellId, Experiment};
use sim::exp::{run_configured, ExpParams};
use sim::{Engine, RunResult, SystemConfig};
use traces::workload;

/// The memoization test asserts exact deltas of the process-wide run
/// counter, so it must not overlap other tests' simulations: it takes
/// the write side, every other simulating test takes the read side.
static CACHE_LOCK: RwLock<()> = RwLock::new(());

fn small() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

#[test]
fn seeded_random_timing_specs_roundtrip_through_display() {
    // Dependency-free property test (same scheme as the MechanismSpec
    // suite): a seeded xorshift generator produces arbitrary well-formed
    // specs; Display → FromStr must be the identity on every one.
    let mut state = 0xDEAD_BEEF_0BAD_F00Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let token = |r: &mut dyn FnMut() -> u64| {
        const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.+-";
        let mut s = String::new();
        s.push(HEAD[(r() % HEAD.len() as u64) as usize] as char);
        for _ in 0..r() % 8 {
            s.push(TAIL[(r() % TAIL.len() as u64) as usize] as char);
        }
        s
    };
    for _ in 0..500 {
        let mut spec = TimingSpec::new(token(&mut next));
        let nparams = next() % 5;
        for i in 0..nparams {
            let value = match next() % 2 {
                0 => ParamValue::Int((next() % 10_000) as i64),
                _ => ParamValue::Float((next() % 1_000_000) as f64 / 128.0),
            };
            // Unique keys: suffix with the index.
            spec.set(format!("{}{i}", token(&mut next)), value);
        }
        let text = spec.to_string();
        let parsed: TimingSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} failed to parse: {e}"));
        assert_eq!(parsed, spec, "round-trip changed {text:?}");
        assert_eq!(parsed.to_string(), text);
    }
}

#[test]
fn known_specs_parse_resolve_and_display_canonically() {
    for (src, canonical) in [
        ("ddr3-1600", "ddr3-1600"),
        (" ddr3-2133 ( trcd = 13 ) ", "ddr3-2133(trcd=13)"),
        ("ddr3-1866()", "ddr3-1866"),
        ("ddr3-1600(tck=1.25)", "ddr3-1600(tck=1.25)"),
    ] {
        let spec: TimingSpec = src.parse().unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(spec.to_string(), canonical);
        spec.resolve().unwrap_or_else(|e| panic!("{src}: {e}"));
    }
}

#[test]
fn rejection_cases_cover_grammar_and_coherence() {
    // Malformed text never parses.
    for bad in ["", "ddr3-1600(", "(trcd=1)", "ddr3-1600(trcd=)", "1600ddr"] {
        assert!(bad.parse::<TimingSpec>().is_err(), "parsed {bad:?}");
    }
    // Well-formed text with unknown presets / incoherent parameters
    // parses but does not resolve, and SystemConfig::validate surfaces
    // the same failure as InvalidConfig instead of a panic.
    for bad in [
        "ddr5-8400",                // unknown preset
        "ddr3-1600(bogus=3)",       // unknown key
        "ddr3-1600(trcd=1.5)",      // cycle fields are integers
        "ddr3-1600(tck=0)",         // zero clock period
        "ddr3-1600(tck=-1.0)",      // negative clock period
        "ddr3-1600(tras=50)",       // tRAS exceeds tRC
        "ddr3-1600(trcd=29)",       // tRCD exceeds tRAS
        "ddr3-1600(trefi=100)",     // tREFI below tRFC
        "ddr3-1600(tccd=1)",        // burst no longer fits
        "ddr3-1600(trp=0)",         // zero timing field
        "ddr3-1600(trc=1,tras=28)", // tRC below tRAS + tRP
    ] {
        let spec: TimingSpec = bad.parse().unwrap_or_else(|e| panic!("{bad}: {e}"));
        assert!(spec.resolve().is_err(), "{bad} resolved");
        let mut cfg = SystemConfig::paper_single_core("baseline".parse().unwrap());
        cfg.timing = spec;
        assert!(cfg.validate().is_err(), "{bad} validated");
        assert!(cfg.clone().with_timing(cfg.timing.clone()).is_err());
    }
}

// ---------------------------------------------------------------------------
// Golden pinning: the default spec reproduces pre-preset results
// ---------------------------------------------------------------------------

/// `(workload, mechanism, cpu_cycles, reads, activates, reduced,
/// row_hits, energy_pj)` captured at the last commit *before* the timing
/// preset subsystem, at 2000 insts / 500 warmup / seed 42, identical
/// under both engines. Any drift here means the preset plumbing changed
/// the simulated machine, not just the configuration surface.
type Golden = (&'static str, &'static str, u64, u64, u64, u64, u64, f64);

const PRE_PRESET_GOLDENS: [Golden; 15] = [
    ("tpch6", "baseline", 2824, 35, 32, 0, 2, 1_296_900.0),
    ("tpch6", "chargecache", 2824, 35, 32, 1, 2, 1_296_900.0),
    ("tpch6", "cc-nuat", 2701, 35, 32, 30, 2, 1_283_220.0),
    ("tpch6", "lldram", 2479, 35, 32, 32, 2, 1_257_930.0),
    ("tpch6", "nuat", 2701, 35, 32, 30, 2, 1_283_220.0),
    ("STREAMcopy", "baseline", 6474, 197, 23, 0, 173, 2_647_275.0),
    (
        "STREAMcopy",
        "chargecache",
        6074,
        197,
        23,
        21,
        173,
        2_601_675.0,
    ),
    ("STREAMcopy", "cc-nuat", 6069, 197, 23, 23, 173, 2_601_105.0),
    ("STREAMcopy", "lldram", 6039, 197, 23, 23, 173, 2_597_685.0),
    ("STREAMcopy", "nuat", 6419, 197, 23, 23, 173, 2_641_005.0),
    ("mcf", "baseline", 6817, 140, 141, 0, 0, 4_968_705.0),
    ("mcf", "chargecache", 6817, 140, 141, 0, 0, 4_968_705.0),
    ("mcf", "cc-nuat", 6552, 140, 141, 112, 0, 4_946_805.0),
    ("mcf", "lldram", 5697, 140, 142, 142, 0, 4_880_370.0),
    ("mcf", "nuat", 6552, 140, 141, 112, 0, 4_946_805.0),
];

fn run_default_spec(wl: &str, mech: &str, engine: Engine) -> RunResult {
    let spec = workload(wl).unwrap();
    let mut cfg = SystemConfig::paper_single_core(mech.parse().unwrap());
    cfg.engine = engine;
    run_configured(cfg, std::slice::from_ref(&spec), &small()).unwrap()
}

#[test]
fn default_spec_matches_pre_preset_goldens_under_both_engines() {
    let _guard = CACHE_LOCK.read().unwrap();
    for engine in [Engine::EventSkip, Engine::PerCycle] {
        for &(wl, mech, cycles, reads, acts, reduced, hits, energy) in &PRE_PRESET_GOLDENS {
            let r = run_default_spec(wl, mech, engine);
            let label = format!("{engine:?}/{wl}/{mech}");
            assert_eq!(r.cpu_cycles, cycles, "{label}: cpu_cycles");
            assert_eq!(r.ctrl.reads, reads, "{label}: reads");
            assert_eq!(r.mech.activates(), acts, "{label}: activates");
            assert_eq!(r.mech.reduced_activates(), reduced, "{label}: reduced");
            assert_eq!(r.ctrl.row_hits, hits, "{label}: row_hits");
            // Exact equality: the energy pipeline is deterministic and
            // the default spec must not perturb a single command.
            assert_eq!(r.energy.total_pj(), energy, "{label}: energy");
        }
    }
}

#[test]
fn explicit_default_spec_is_bit_identical_to_the_constructor() {
    let _guard = CACHE_LOCK.read().unwrap();
    // Going through set_timing("ddr3-1600") must reproduce the untouched
    // paper constructor exactly.
    let spec = workload("STREAMcopy").unwrap();
    let plain = SystemConfig::paper_single_core("chargecache".parse().unwrap());
    let via_spec = plain
        .clone()
        .with_timing(TimingSpec::default())
        .expect("default spec resolves");
    let a = run_configured(plain, std::slice::from_ref(&spec), &small()).unwrap();
    let b = run_configured(via_spec, std::slice::from_ref(&spec), &small()).unwrap();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// The timing axis end-to-end
// ---------------------------------------------------------------------------

#[test]
fn timing_axis_sweeps_speed_bins_with_per_bin_results() {
    let _guard = CACHE_LOCK.read().unwrap();
    let sweep = Experiment::new()
        .workload(workload("STREAMcopy").unwrap())
        .timings(SpeedBin::DDR3.iter().map(|&b| TimingSpec::for_bin(b)))
        .mechanisms(&["baseline".parse().unwrap(), "lldram".parse().unwrap()])
        .params(small())
        .run()
        .unwrap();
    assert_eq!(sweep.timings.len(), 5);
    assert_eq!(sweep.cells.len(), 10);
    for bin in SpeedBin::DDR3 {
        let t = TimingSpec::for_bin(bin).to_string();
        let id = CellId::new()
            .subject("STREAMcopy")
            .timing(&t)
            .variant("paper");
        let base = sweep
            .get(&id.clone().mechanism("baseline"))
            .unwrap_or_else(|| panic!("no baseline cell for {t}"));
        let ll = sweep.get(&id.mechanism("lldram")).unwrap();
        assert_eq!(base.timing.to_string(), t);
        // The idealized device is never slower than its own baseline.
        assert!(ll.result().ipc(0) >= base.result().ipc(0), "{t}");
    }
    // Distinct bins simulate distinct machines: IPC differs across the
    // baseline cells (same workload, different timing).
    let ipcs: Vec<u64> = SpeedBin::DDR3
        .iter()
        .map(|&b| {
            let t = TimingSpec::for_bin(b).to_string();
            let id = CellId::new().subject("STREAMcopy").timing(&t);
            sweep
                .get(&id.mechanism("baseline").variant("paper"))
                .unwrap()
                .result()
                .cpu_cycles
        })
        .collect();
    let mut unique = ipcs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert!(
        unique.len() > 1,
        "all bins produced identical runs: {ipcs:?}"
    );

    // The v5 JSON round-trips the axis and the per-cell spec strings.
    let doc = sim::json::parse_sweep(&sweep.to_json()).unwrap();
    assert_eq!(doc.schema_version, 5);
    assert_eq!(doc.timings.len(), 5);
    assert_eq!(doc.cells.len(), 10);
    assert!(doc.cells.iter().any(|c| c.timing == "ddr3-2133"));
}

#[test]
fn timing_axis_rejects_duplicates_and_ambiguous_alone_runs() {
    let _guard = CACHE_LOCK.read().unwrap();
    let base = || {
        Experiment::new()
            .workload(workload("tpch2").unwrap())
            .mechanism("baseline".parse().unwrap())
            .params(small())
    };
    let err = base()
        .timings(["ddr3-1600".parse().unwrap(), "ddr3-1600".parse().unwrap()])
        .run()
        .unwrap_err();
    assert!(err.0.contains("duplicate timing"), "{err}");

    let err = base()
        .timings(["ddr3-1600".parse().unwrap(), "ddr3-1866".parse().unwrap()])
        .alone_ipcs("baseline".parse().unwrap())
        .run()
        .unwrap_err();
    assert!(err.0.contains("alone-IPC"), "{err}");

    // A *single* non-default timing supports alone runs: denominators
    // describe the same device as the cells.
    let sweep = base()
        .timing("ddr3-1866".parse().unwrap())
        .alone_ipcs("baseline".parse().unwrap())
        .run()
        .unwrap();
    assert!(sweep.alone_ipc("tpch2").unwrap() > 0.0);
}

#[test]
fn baseline_cells_memoize_once_per_bin_across_variants() {
    let _guard = CACHE_LOCK.write().unwrap();
    use sim::api::{run_cache_executions, Variant};
    // Two capacity variants × two bins: the Baseline spec is untouched by
    // the entries patch, so each bin simulates its baseline exactly once.
    let sweep = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .timings(["ddr3-1333".parse().unwrap(), "ddr3-1866".parse().unwrap()])
        .mechanisms(&["baseline".parse().unwrap(), "chargecache".parse().unwrap()])
        .variants([Variant::entries(64), Variant::entries(128)])
        .params(small())
        .threads(1)
        .run()
        .unwrap();
    assert_eq!(sweep.cells.len(), 8);
    let before = run_cache_executions();
    // Re-running the identical sweep costs zero simulations.
    let again = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .timings(["ddr3-1333".parse().unwrap(), "ddr3-1866".parse().unwrap()])
        .mechanisms(&["baseline".parse().unwrap(), "chargecache".parse().unwrap()])
        .variants([Variant::entries(64), Variant::entries(128)])
        .params(small())
        .threads(1)
        .run()
        .unwrap();
    assert_eq!(
        run_cache_executions(),
        before,
        "cache miss on identical sweep"
    );
    assert_eq!(again.cells.len(), 8);
    // Both baseline cells of one bin carry the same result (one run).
    for t in ["ddr3-1333", "ddr3-1866"] {
        let id = CellId::new()
            .subject("tpch2")
            .timing(t)
            .mechanism("baseline");
        let a = sweep.get(&id.clone().variant("64")).unwrap();
        let b = sweep.get(&id.variant("128")).unwrap();
        assert_eq!(a.result(), b.result(), "{t}");
    }
}

#[test]
fn engines_agree_on_a_non_default_bin() {
    let _guard = CACHE_LOCK.read().unwrap();
    // Bit-identical engine equivalence must hold off the paper's device
    // too: the skip bounds are computed from the same timing oracle the
    // scheduler issues with, whatever the parameter set.
    let spec = workload("mcf").unwrap();
    for timing in ["ddr3-1066", "ddr3-2133(trcd=13)"] {
        let mut results = Vec::new();
        for engine in [Engine::EventSkip, Engine::PerCycle] {
            let mut cfg = SystemConfig::paper_single_core("chargecache".parse().unwrap());
            cfg.set_timing(timing.parse().unwrap()).unwrap();
            cfg.engine = engine;
            results.push(run_configured(cfg, std::slice::from_ref(&spec), &small()).unwrap());
        }
        assert_eq!(results[0], results[1], "{timing}");
    }
}
