//! The three benchmark workloads: their grids, run lengths, and the
//! exact (host-independent) outputs derived from a finished sweep.

use std::collections::BTreeSet;

use chargecache::MechanismSpec;
use dram::FamilySpec;
use sim::api::{CellPlan, Experiment, SweepResult};
use sim::{ExpParams, RunResult};
use simd::SweepSpec;
use traces::{eight_core_mixes, workload, MixSpec};

/// Instructions per core of one measured interval (the repo's default
/// bench scale, fixed here so `CC_SCALE`/`CC_TINY` cannot skew a run).
pub const INSTS_PER_CORE: u64 = 120_000;
/// Warm-up instructions per core (the default; see NOTES.md on cold caches).
pub const WARMUP_INSTS: u64 = 25_000;
/// Checkpoint interval, in retired instructions per core, of every
/// checkpointed phase. Longer than the warm-up, so each cell stores one
/// checkpoint, 85k instructions into its 145k.
pub const CHECKPOINT_INTERVAL: u64 = 60_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four eight-core mixes × {baseline, chargecache}, in-process.
    PaperMix,
    /// Six single-core workloads × four device families ×
    /// {baseline, chargecache}, in-process.
    DeviceGrid,
    /// Four single-core workloads × the paper's five mechanisms, served
    /// by a `cc-simd` daemon with a disk cache and checkpoints.
    ServedDurable,
}

pub const PAPER_MIXES: [&str; 4] = ["w1", "w3", "w10", "w14"];
pub const DEVICE_WORKLOADS: [&str; 6] =
    ["hmmer", "tpch6", "libquantum", "mcf", "STREAMcopy", "lbm"];
pub const FAMILIES: [&str; 4] = ["ddr3", "ddr4", "lpddr4x", "hbm2"];
/// Single-core workloads `device_grid` does not use, whose ChargeCache
/// speed-up is well clear of zero (so `cc_speedup_pct` varies little from
/// seed to seed): Zipf, two stream/Zipf blends and a five-stream kernel.
pub const SERVED_WORKLOADS: [&str; 4] = ["tpch2", "bzip2", "soplex", "leslie3d"];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_mix" => Some(Workload::PaperMix),
            "device_grid" => Some(Workload::DeviceGrid),
            "served_durable" => Some(Workload::ServedDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::DeviceGrid => "device_grid",
            Workload::ServedDurable => "served_durable",
        }
    }

    /// The paper's headline speed-up for this kind of grid.
    pub fn paper_speedup_pct(self) -> f64 {
        match self {
            Workload::PaperMix => 8.6,
            _ => 2.1,
        }
    }
}

pub fn params(seed: u64) -> ExpParams {
    ExpParams {
        insts_per_core: INSTS_PER_CORE,
        warmup_insts: WARMUP_INSTS,
        max_cycle_factor: 150,
        seed,
        checkpoint_interval: 0,
    }
}

pub fn mix(name: &str) -> MixSpec {
    eight_core_mixes()
        .into_iter()
        .find(|m| m.name == name)
        .expect("paper mix")
}

fn cc_mechanisms() -> [MechanismSpec; 2] {
    [MechanismSpec::baseline(), MechanismSpec::chargecache()]
}

/// The served grid in wire form.
pub fn served_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        subjects: SERVED_WORKLOADS.iter().map(|s| s.to_string()).collect(),
        mechanisms: MechanismSpec::paper_all().to_vec(),
        families: Vec::new(),
        timings: Vec::new(),
        variants: Vec::new(),
        params: params(seed),
        engine: None,
    }
}

/// The served resume job: one eight-core cell.
pub fn resume_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        subjects: vec!["w1".into()],
        mechanisms: vec![MechanismSpec::chargecache()],
        ..served_spec(seed)
    }
}

/// The workload's grid as a one-thread, cache-less in-process sweep.
pub fn experiment(w: Workload, seed: u64) -> Experiment {
    let exp = match w {
        Workload::PaperMix => Experiment::new()
            .mixes(PAPER_MIXES.iter().map(|m| mix(m)))
            .mechanisms(&cc_mechanisms())
            .alone_ipcs(MechanismSpec::baseline())
            .params(params(seed)),
        Workload::DeviceGrid => Experiment::new()
            .workloads(
                DEVICE_WORKLOADS
                    .iter()
                    .map(|n| workload(n).expect("paper workload")),
            )
            .families(
                FAMILIES
                    .iter()
                    .map(|f| f.parse::<FamilySpec>().expect("family")),
            )
            .mechanisms(&cc_mechanisms())
            .params(params(seed)),
        Workload::ServedDurable => served_spec(seed).experiment().expect("served grid"),
    };
    exp.threads(1)
}

/// The job a resume phase kills and resumes: paper_mix and served_durable
/// resume one eight-core cell, device_grid (whose cells are short) its
/// whole grid.
pub fn resume_experiment(w: Workload, seed: u64) -> Experiment {
    match w {
        Workload::DeviceGrid => experiment(w, seed),
        _ => resume_spec(seed)
            .experiment()
            .expect("resume job")
            .threads(1),
    }
}

/// Checkpoint store after which the resume phase's killed run exits:
/// half-way through the job.
pub fn resume_kill_at(w: Workload) -> u64 {
    match w {
        // One checkpoint per cell: die inside cell 25 of 48.
        Workload::DeviceGrid => 25,
        _ => 1,
    }
}

/// Plans of the alone-IPC runs `Experiment::run` adds for `alone_ipcs`,
/// built as one-cell sweeps so that their content keys match the runs the
/// sweep memoized (the warm phase relies on this, and checks it).
pub fn alone_plans(w: Workload, seed: u64) -> Vec<CellPlan> {
    if w != Workload::PaperMix {
        return Vec::new();
    }
    let mut names = BTreeSet::new();
    let mut plans = Vec::new();
    for m in PAPER_MIXES {
        for app in mix(m).apps {
            if names.insert(app.name) {
                let plan = Experiment::new()
                    .workload(app)
                    .mechanism(MechanismSpec::baseline())
                    .params(params(seed))
                    .plan()
                    .expect("alone plan");
                plans.extend(plan.cells);
            }
        }
    }
    plans
}

/// Distinct simulations in `plans` (cells with equal content keys run once).
pub fn unique_jobs<'a>(plans: impl IntoIterator<Item = &'a CellPlan>) -> usize {
    plans
        .into_iter()
        .map(CellPlan::content_key)
        .collect::<BTreeSet<_>>()
        .len()
}

/// Simulated instructions of one run: warm-up plus measured, all cores.
pub fn simulated_insts(r: &RunResult, p: &ExpParams) -> u64 {
    r.cores.iter().map(|c| c.retired + p.warmup_insts).sum()
}

/// Identity of a cell in a fingerprint listing.
pub fn cell_label(subject: &str, family: &FamilySpec, mechanism: &MechanismSpec) -> String {
    format!("{subject}/{family}/{}", mechanism.name())
}

/// ChargeCache speed-up over baseline averaged over the grid, in percent:
/// IPC for single-core subjects, weighted speedup for mixes. Other
/// mechanisms in the grid do not enter it.
pub fn cc_speedup_pct(sweep: &SweepResult) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for cc in sweep
        .cells
        .iter()
        .filter(|c| c.mechanism.name() == "chargecache")
    {
        let base = sweep.cells.iter().find(|b| {
            b.mechanism.name() == "baseline" && b.subject == cc.subject && b.family == cc.family
        })?;
        if !cc.is_ok() || !base.is_ok() {
            return None;
        }
        let ratio = if cc.apps.len() > 1 {
            sweep.weighted_speedup(cc)? / sweep.weighted_speedup(base)?
        } else {
            cc.result().ipc(0) / base.result().ipc(0)
        };
        sum += ratio - 1.0;
        n += 1;
    }
    (n > 0).then(|| 100.0 * sum / n as f64)
}
