//! The openness contract of the mechanism plugin API: mechanisms defined
//! outside `crates/core` — in the facade crate (`perfect-cc`,
//! `refresh-cc`) and even inline in this test — register, validate,
//! sweep through `sim::api`, appear in `cc-sim --list-mechanisms`, run
//! through `cc-sim --mechanism`, and round-trip through v2 JSON.

use std::sync::Arc;

use chargecache::{
    registry, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec, StatSink,
};
use chargecache_repro::mechs::register_extended_mechanisms;
use dram::{ActTimings, BusCycle};
use sim::api::{CellId, Experiment};
use sim::exp::{run_configured, ExpParams};
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
// A custom mechanism defined entirely inside this test.
// ---------------------------------------------------------------------------

/// Reduced timings on every Nth activation — nonsense as hardware, but a
/// minimal stand-in for "a mechanism core has never heard of".
struct EveryNth {
    n: u64,
    base: ActTimings,
    reduced: ActTimings,
    activates: u64,
    reduced_activates: u64,
}

impl LatencyMechanism for EveryNth {
    fn on_activate(
        &mut self,
        _: BusCycle,
        _: usize,
        _: chargecache::RowKey,
        _: BusCycle,
    ) -> ActTimings {
        self.activates += 1;
        if self.activates.is_multiple_of(self.n) {
            self.reduced_activates += 1;
            self.reduced
        } else {
            self.base
        }
    }

    fn on_precharge(&mut self, _: BusCycle, _: usize, _: chargecache::RowKey) {}

    fn report_stats(&self, out: &mut dyn StatSink) {
        out.counter(chargecache::C_ACTIVATES, self.activates);
        out.counter(chargecache::C_REDUCED, self.reduced_activates);
        out.counter("every_nth_period", self.n);
    }

    fn name(&self) -> &str {
        "every-nth"
    }
}

struct EveryNthFactory;

impl MechanismFactory for EveryNthFactory {
    fn name(&self) -> &str {
        "every-nth"
    }
    fn describe(&self) -> &str {
        "test double: reduced timings on every Nth activation"
    }
    fn defaults(&self) -> MechanismSpec {
        MechanismSpec::new("every-nth").with("n", chargecache::ParamValue::Int(2))
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&["n"])?;
        if spec.usize_param("n", 2)? == 0 {
            return Err("n must be at least 1".into());
        }
        Ok(())
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        Ok(Box::new(EveryNth {
            n: spec.usize_param("n", 2)? as u64,
            base: ctx.timing.act_timings(),
            reduced: ctx.timing.act_timings().reduced_by(4, 8),
            activates: 0,
            reduced_activates: 0,
        }))
    }
}

#[test]
fn custom_mechanism_registered_from_a_test_runs_a_sweep() {
    registry::register_mechanism(Arc::new(EveryNthFactory));
    let spec = workload("STREAMcopy").unwrap();
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanism("every-nth(n=3)".parse().unwrap())
        .mechanism(MechanismSpec::baseline())
        .params(tiny())
        .run()
        .expect("registered mechanism sweeps like a built-in");
    let id = CellId::new()
        .subject(spec.name)
        .mechanism("every-nth")
        .variant("paper");
    let cell = sweep.get(&id).unwrap();
    let acts = cell.result().mech.activates();
    assert!(acts > 0);
    // About ⌊acts/3⌋ activations were reduced — the custom logic ran.
    // (±1 for the warmup-boundary phase of the modulo counter.)
    let reduced = cell.result().mech.reduced_activates() as i64;
    assert!(
        (reduced - (acts / 3) as i64).abs() <= 1,
        "reduced {reduced} of {acts}"
    );
    // Custom counters survive aggregation and warmup subtraction (a
    // constant "gauge" counter subtracts to zero — documented behavior;
    // the period is still visible pre-subtraction via report_stats).
    assert!(cell.result().mech.has("every_nth_period"));
    // And the v2 JSON names the custom spec.
    let doc = sim::json::parse_sweep(&sweep.to_json()).unwrap();
    assert!(doc.get(&id).is_some());
    assert_eq!(doc.mechanisms[0], "every-nth(n=3)");
}

#[test]
fn bad_custom_params_surface_as_invalid_config() {
    registry::register_mechanism(Arc::new(EveryNthFactory));
    let cfg = SystemConfig::paper_single_core("every-nth(n=0)".parse().unwrap());
    let w = workload("tpch2").unwrap();
    let err = run_configured(cfg, std::slice::from_ref(&w), &tiny()).unwrap_err();
    assert!(err.0.contains("n must be at least 1"), "{err}");
    // Unknown keys are rejected, not ignored.
    let cfg = SystemConfig::paper_single_core("every-nth(m=1)".parse().unwrap());
    let err = run_configured(cfg, std::slice::from_ref(&w), &tiny()).unwrap_err();
    assert!(err.0.contains("unknown parameter"), "{err}");
}

// ---------------------------------------------------------------------------
// The facade's plugin mechanisms, end to end.
// ---------------------------------------------------------------------------

#[test]
fn facade_plugins_sweep_and_respect_the_oracle_ordering() {
    register_extended_mechanisms();
    let spec = workload("STREAMcopy").unwrap();
    let sweep = Experiment::new()
        .workload(spec.clone())
        .mechanisms(&[
            MechanismSpec::chargecache(),
            "perfect-cc".parse().unwrap(),
            MechanismSpec::lldram(),
        ])
        .params(tiny())
        .run()
        .expect("facade mechanisms registered");
    let id = |m: &str| {
        CellId::new()
            .subject(spec.name)
            .mechanism(m)
            .variant("paper")
    };
    let cc = sweep.get(&id("chargecache")).unwrap();
    let oracle = sweep.get(&id("perfect-cc")).unwrap();
    let ll = sweep.get(&id("lldram")).unwrap();
    // The oracle upper-bounds the finite HCRAC and is itself bounded by
    // LL-DRAM (which also accelerates first touches).
    assert!(
        oracle.result().mech.reduced_fraction() >= cc.result().mech.reduced_fraction(),
        "oracle reduced fewer activations than the finite HCRAC"
    );
    assert!(
        ll.result().mech.reduced_fraction() >= oracle.result().mech.reduced_fraction(),
        "LL-DRAM must reduce at least as much as the oracle"
    );
    assert!(oracle.result().mech.has("tracked_rows"));
}

#[test]
fn refresh_cc_inserts_refreshed_rows_in_a_real_run() {
    register_extended_mechanisms();
    // Long enough to cross several tREFI boundaries (tREFI = 6250 bus
    // cycles ≈ 31k CPU cycles).
    let p = ExpParams {
        insts_per_core: 20_000,
        warmup_insts: 2_000,
        ..ExpParams::tiny()
    };
    let w = workload("mcf").unwrap();
    let cfg = SystemConfig::paper_single_core("refresh-cc".parse().unwrap());
    let r = run_configured(cfg, std::slice::from_ref(&w), &p).unwrap();
    assert!(r.ctrl.refreshes > 0, "run never refreshed");
    assert!(
        r.mech.get("refresh_inserts") > 0,
        "no refreshed rows reached the mechanism"
    );
    // 8 rows per bin × 8 banks per REF.
    assert_eq!(r.mech.get("refresh_inserts"), r.ctrl.refreshes * 64);
}

#[test]
fn cc_sim_lists_and_runs_plugin_mechanisms() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .arg("--list-mechanisms")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "baseline",
        "nuat",
        "chargecache",
        "cc-nuat",
        "lldram",
        "perfect-cc",
        "refresh-cc",
    ] {
        assert!(text.contains(name), "--list-mechanisms missing {name}");
    }
    assert!(text.contains("entries=128"), "defaults not shown:\n{text}");

    // A plugin spec with parameters runs through --mechanism and lands in
    // the v4 JSON.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .args([
            "run",
            "--workload",
            "tpch2",
            "--mechanism",
            "refresh-cc(entries=256)",
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
    assert_eq!(doc.mechanisms, ["refresh-cc(entries=256)"]);
    let id = CellId::new()
        .subject("tpch2")
        .mechanism("refresh-cc")
        .variant("paper");
    assert!(doc.get(&id).is_some());
}

#[test]
fn cc_sim_list_workloads_prints_the_full_catalogue() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .arg("--list-workloads")
        .output()
        .expect("cc-sim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for w in traces::single_core_workloads() {
        assert!(text.contains(w.name), "missing workload {}", w.name);
    }
    for m in traces::eight_core_mixes() {
        assert!(text.contains(&m.name), "missing mix {}", m.name);
    }
}

#[test]
fn cc_sim_rejects_unknown_mechanisms_with_guidance() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cc-sim"))
        .args(["run", "--workload", "tpch2", "--mechanism", "warp-drive"])
        .output()
        .expect("cc-sim runs");
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(
        text.contains("--list-mechanisms"),
        "error should point at the listing:\n{text}"
    );
}
