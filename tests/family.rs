//! The device-family layer, end to end: spec grammar and typed registry
//! errors, family sweeps through `sim::api` with per-family effective
//! timings, v5 JSON round-trips and the archived-document upgrade, per-bank
//! refresh in a real run, and the `cc-sim` surface (`--family`,
//! `--list-families`, family-grouped `--list-timings`) through a
//! subprocess.

use chargecache::MechanismSpec;
use dram::family::{self, FamilyError};
use dram::FamilySpec;
use sim::api::{CellId, Experiment};
use sim::exp::{run_configured, ExpParams};
use sim::json::Json;
use sim::SystemConfig;
use traces::workload;

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

// ---------------------------------------------------------------------------
// Grammar and typed registry errors.
// ---------------------------------------------------------------------------

#[test]
fn family_spec_grammar_round_trips() {
    for s in ["ddr3", "ddr4(bank_groups=2)", "lpddr4x(refresh=all-bank)"] {
        let spec: FamilySpec = s.parse().unwrap();
        assert_eq!(spec.to_string(), s, "Display/FromStr round-trip");
        family::validate_spec(&spec).unwrap();
    }
}

#[test]
fn registry_rejects_bad_specs_with_typed_errors() {
    let unknown: FamilySpec = "ddr9".parse().unwrap();
    match family::resolve(&unknown) {
        Err(FamilyError::UnknownFamily { name, known }) => {
            assert_eq!(name, "ddr9");
            assert!(known.contains("ddr4"), "known list should name built-ins");
        }
        other => panic!("expected UnknownFamily, got {other:?}"),
    }

    let bad_key: FamilySpec = "ddr4(warp=9)".parse().unwrap();
    assert!(matches!(
        family::resolve(&bad_key),
        Err(FamilyError::UnknownKey { .. })
    ));

    // Same-group spacing below cross-group spacing is structurally
    // meaningless, whatever the numbers.
    let incoherent: FamilySpec = "ddr4(tccd_l=1)".parse().unwrap();
    assert!(matches!(
        family::resolve(&incoherent),
        Err(FamilyError::IncoherentGroupSpacing { which: "tCCD", .. })
    ));

    // DDR3 has no per-bank refresh command.
    let no_pbr: FamilySpec = "ddr3(refresh=per-bank)".parse().unwrap();
    match family::resolve(&no_pbr) {
        Err(FamilyError::PerBankRefreshUnsupported { family }) => {
            assert_eq!(family, "ddr3");
        }
        other => panic!("expected PerBankRefreshUnsupported, got {other:?}"),
    }
}

#[test]
fn system_config_surfaces_family_errors_as_strings() {
    let mut cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
    let err = cfg.set_family("ddr9".parse().unwrap()).unwrap_err();
    assert!(err.contains("ddr9"), "error should name the family: {err}");
}

// ---------------------------------------------------------------------------
// Family sweeps through the API.
// ---------------------------------------------------------------------------

#[test]
fn family_axis_sweeps_with_per_family_effective_timings() {
    let spec = workload("tpch2").unwrap();
    let sweep = Experiment::new()
        .workload(spec.clone())
        .families(["ddr3", "ddr4", "lpddr4x", "hbm2"].map(|f| f.parse().unwrap()))
        .mechanisms(&[MechanismSpec::baseline(), MechanismSpec::chargecache()])
        .params(tiny())
        .run()
        .expect("built-in families sweep");
    assert_eq!(sweep.cells.len(), 4 * 2);
    assert_eq!(sweep.families.len(), 4);

    // Each cell records the *effective* timing its family adopted.
    for (fam, bin) in [
        ("ddr3", "ddr3-1600"),
        ("ddr4", "ddr4-2400"),
        ("lpddr4x", "lpddr4x-3200"),
        ("hbm2", "hbm2-1000"),
    ] {
        let id = CellId::new().subject(spec.name).family(fam);
        let c = sweep
            .get(&id.mechanism("chargecache").variant("paper"))
            .unwrap_or_else(|| panic!("missing cell for {fam}"));
        assert_eq!(c.timing.to_string(), bin, "effective bin of {fam}");
        assert!(c.result().ipc(0) > 0.0);
    }

    // The v5 document carries the axis and the per-cell identity.
    let doc = sim::json::parse_sweep(&sweep.to_json()).unwrap();
    assert_eq!(doc.schema_version, 5);
    assert_eq!(doc.families, ["ddr3", "ddr4", "lpddr4x", "hbm2"]);
    let cell = doc
        .cells
        .iter()
        .find(|c| c.family == "lpddr4x" && c.mechanism.starts_with("chargecache"))
        .expect("lpddr4x cell in JSON");
    assert_eq!(cell.timing, "lpddr4x-3200");
}

#[test]
fn default_family_sweep_is_byte_identical_to_no_family() {
    // Naming the paper's DDR3 family explicitly must not perturb a
    // single bit of the output relative to not mentioning families at
    // all — the golden guarantee that pre-PR behavior is the ddr3
    // default, not a fifth configuration.
    let spec = workload("STREAMcopy").unwrap();
    let run = |with_family: bool| {
        let mut exp = Experiment::new()
            .workload(spec.clone())
            .mechanism(MechanismSpec::chargecache())
            .params(tiny());
        if with_family {
            exp = exp.family("ddr3".parse().unwrap());
        }
        exp.run().unwrap().to_json()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn duplicate_families_are_rejected() {
    let err = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .families(["ddr4", "ddr4"].map(|f| f.parse().unwrap()))
        .params(tiny())
        .run()
        .unwrap_err();
    assert!(err.0.contains("duplicate"), "{err}");
}

// ---------------------------------------------------------------------------
// Per-bank refresh in a real run.
// ---------------------------------------------------------------------------

#[test]
fn lpddr4x_per_bank_refresh_runs_and_refreshes() {
    // Long enough to cross several tREFI boundaries.
    let p = ExpParams {
        insts_per_core: 20_000,
        warmup_insts: 2_000,
        ..ExpParams::tiny()
    };
    let w = workload("mcf").unwrap();
    let mut cfg = SystemConfig::paper_single_core(MechanismSpec::baseline());
    cfg.set_family("lpddr4x".parse().unwrap()).unwrap();
    cfg.set_timing("lpddr4x-3200".parse().unwrap()).unwrap();
    let r = run_configured(cfg, std::slice::from_ref(&w), &p).unwrap();
    assert!(r.ctrl.refreshes > 0, "per-bank refresh never fired");
    assert!(r.ipc(0) > 0.0);
}

// ---------------------------------------------------------------------------
// Archived (pre-v5) JSON documents.
// ---------------------------------------------------------------------------

#[test]
fn archived_documents_are_rejected_and_upgrade_as_documented() {
    // A real v5 document, mechanically downgraded to v4: the schema
    // string reverts and the family fields disappear — exactly what a
    // pre-family binary wrote.
    let sweep = Experiment::new()
        .workload(workload("tpch2").unwrap())
        .mechanism(MechanismSpec::baseline())
        .params(tiny())
        .run()
        .unwrap();
    let v5 = sweep.to_json();
    let v4 = v5
        .replace("chargecache-sweep/v5", "chargecache-sweep/v4")
        .replace("\"families\":[\"ddr3\"],", "")
        .replace("\"family\":\"ddr3\",", "");
    assert!(!v4.contains("famil"), "downgrade left family fields");

    // The reader names the upgrade instead of guessing.
    let err = sim::json::parse_sweep(&v4).unwrap_err();
    assert!(err.contains("chargecache-sweep/v4"), "{err}");
    assert!(err.contains("docs/SCHEMA.md"), "{err}");
    assert!(err.contains("Upgrading archived documents"), "{err}");

    // The upgrade docs/SCHEMA.md describes for a v4 document: add a
    // `ddr3` family axis and per-cell family, and set the schema to v5.
    let Json::Obj(mut top) = sim::json::parse(&v4).unwrap() else {
        panic!("sweep documents are objects")
    };
    for (key, value) in &mut top {
        match (key.as_str(), value) {
            ("schema", v) => *v = Json::str(sim::json::SCHEMA_V5),
            ("cells", Json::Arr(cells)) => {
                for cell in cells {
                    let Json::Obj(members) = cell else {
                        panic!("cells are objects")
                    };
                    members.push(("family".into(), Json::str("ddr3")));
                }
            }
            _ => {}
        }
    }
    top.push(("families".into(), Json::Arr(vec![Json::str("ddr3")])));
    let upgraded = Json::Obj(top).to_string();
    assert_eq!(
        sim::json::parse_sweep(&upgraded).unwrap(),
        sim::json::parse_sweep(&v5).unwrap()
    );
}

// ---------------------------------------------------------------------------
// The cc-sim surface, through a subprocess.
// ---------------------------------------------------------------------------

#[test]
fn cc_sim_list_families_prints_geometry_and_grammar() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .arg("--list-families")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["ddr3", "ddr4", "lpddr4x", "hbm2"] {
        assert!(text.contains(name), "--list-families missing {name}");
    }
    assert!(
        text.contains("per-bank refresh"),
        "geometry lines should show refresh scope:\n{text}"
    );
    assert!(
        text.contains("8ch x 2pc"),
        "hbm2 geometry should show pseudo-channels:\n{text}"
    );
    assert!(
        text.contains("bank_groups"),
        "grammar footer should list override keys:\n{text}"
    );
}

#[test]
fn cc_sim_list_timings_groups_bins_by_family() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .arg("--list-timings")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for header in [
        "family ddr3:",
        "family ddr4:",
        "family lpddr4x:",
        "family hbm2:",
    ] {
        assert!(text.contains(header), "--list-timings missing {header}");
    }
    // Bins stay under their family's header, not interleaved.
    let ddr3_pos = text.find("family ddr3:").unwrap();
    let ddr4_pos = text.find("family ddr4:").unwrap();
    let bin_1600 = text.find("ddr3-1600").unwrap();
    assert!(
        ddr3_pos < bin_1600 && bin_1600 < ddr4_pos,
        "ddr3-1600 should sit inside the ddr3 group"
    );
}

#[test]
fn cc_sim_family_flag_runs_and_lands_in_v5_json() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .args([
            "run",
            "--workload",
            "tpch2",
            "--family",
            "lpddr4x",
            "--insts",
            "2000",
            "--warmup",
            "500",
            "--json",
        ])
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success(), "cc-sim failed: {out:?}");
    let doc = sim::json::parse_sweep(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(doc.schema_version, 5);
    assert_eq!(doc.families, ["lpddr4x"]);
    let id = CellId::new()
        .subject("tpch2")
        .mechanism("chargecache")
        .variant("paper");
    let cell = doc.get(&id).expect("cell");
    assert_eq!(cell.family, "lpddr4x");
    assert_eq!(cell.timing, "lpddr4x-3200", "family default bin adopted");
}

#[test]
fn cc_sim_rejects_unknown_families_with_guidance() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .args(["run", "--workload", "tpch2", "--family", "ddr9"])
        .output()
        .expect("cc-sim runs");
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(
        text.contains("--list-families"),
        "error should point at the listing:\n{text}"
    );
}
