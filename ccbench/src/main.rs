//! `ccbench` — the repository's benchmark: three workloads, end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! bash ccbench/run.sh --workload paper_mix|device_grid|served_durable \
//!     --seed 42 --seconds 20 --trace 0|1
//! ```
//!
//! Human-readable lines (host fingerprint, every metric with its unit and
//! sample count, the seed's result fingerprint) go to stdout first; the
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed correctness
//! check makes the exit code 1. See `NOTES.md` for the design.

mod calib;
mod grid;
mod local;
mod served;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use sim::json::Json;

use grid::Workload;
use util::{median, num, obj, quantile};

/// Seed of the repository's goldens; the default.
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: ccbench --simd PATH --workload paper_mix|device_grid|served_durable \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Samples of every end-to-end metric.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub sweep_s: Vec<f64>,
    pub minst_per_s: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub resume_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

impl Samples {
    /// Appends `phase`, stated at the nominal host speed: host times
    /// divided by `slowdown`, the rate multiplied by it (see [`calib`]).
    fn add_scaled(&mut self, phase: &Samples, slowdown: f64) {
        let time = |to: &mut Vec<f64>, xs: &[f64]| to.extend(xs.iter().map(|x| x / slowdown));
        time(&mut self.setup_s, &phase.setup_s);
        time(&mut self.sweep_s, &phase.sweep_s);
        time(&mut self.warm_ms, &phase.warm_ms);
        time(&mut self.resume_s, &phase.resume_s);
        self.minst_per_s
            .extend(phase.minst_per_s.iter().map(|x| x * slowdown));
        self.peak_rss_mb.extend(&phase.peak_rss_mb);
    }
}

/// The samples of one run, as measured and at the nominal host speed,
/// plus the run's exact outputs.
#[derive(Default)]
pub struct Report {
    pub measured: Samples,
    pub scaled: Samples,
    /// Host-speed probe times, one between every two measured phases.
    pub probe_s: Vec<f64>,
    pub cc_speedup_pct: f64,
    pub fingerprint: String,
    pub cells: usize,
}

impl Report {
    /// Adds the samples of one phase, which the probes on either side of
    /// it found `slowdown` times slower than nominal.
    pub fn add(&mut self, phase: Samples, slowdown: f64) {
        self.scaled.add_scaled(&phase, slowdown);
        self.measured.add_scaled(&phase, 1.0);
    }
}

/// Operations attempted and failed across every phase of a run.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    errors: Vec<String>,
    /// Failures that were retried (served jobs resubmitted after a
    /// protocol error); every other failure makes the run incorrect.
    pub retried: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Counts `cells` served cells, `failed` of them with a cell error.
    pub fn count_cells(&mut self, cells: u64, failed: u64) {
        self.attempted += cells;
        for _ in 0..failed {
            self.errors.push("served cell failed".into());
        }
    }

    /// Takes a finished child's report, counting a crashed or silent
    /// child as one failed operation.
    pub fn child(&mut self, out: ChildOut) -> Option<Json> {
        let parsed = (out.code == Some(0))
            .then(|| {
                out.stdout
                    .lines()
                    .last()
                    .and_then(|l| sim::json::parse(l).ok())
            })
            .flatten();
        if parsed.is_none() {
            self.fail(format!("benchmark child exited with {:?}", out.code));
        }
        parsed
    }

    /// Adds a child's own operation counts and failures.
    pub fn absorb(&mut self, j: &Json) {
        self.attempted += num(j, "attempted") as u64;
        self.errors.extend(util::str_list(j, "errors"));
    }

    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// A child's counts, for the parent's [`Ledger::absorb`].
    pub fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed())),
            ("errors", util::strs(&self.errors)),
        ]
    }
}

pub struct ChildOut {
    pub code: Option<i32>,
    pub stdout: String,
}

/// Runs this binary again as a child with `args` (and `env` set) and
/// collects its exit code and stdout; stderr passes through.
pub fn spawn_child(args: &[&str], env: &[(&str, &str)]) -> ChildOut {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(args)
        .env_remove("CC_FAULT_INJECTION")
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match out {
        Ok(o) => ChildOut {
            code: o.status.code(),
            stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
        },
        Err(e) => {
            eprintln!("ccbench: spawn failed: {e}");
            ChildOut {
                code: None,
                stdout: String::new(),
            }
        }
    }
}

struct Args {
    simd: Option<PathBuf>,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    t0: u128,
    setup_only: bool,
    dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        simd: None,
        workload: Workload::PaperMix,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        t0: 0,
        setup_only: false,
        dir: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--simd" => a.simd = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => a.seconds = value.parse().map_err(bad)?,
            "--trace" => a.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--t0" => a.t0 = value.parse().map_err(bad)?,
            "--dir" | "--warm-dir" => a.dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some(m @ ("child-cold" | "child-resume" | "child-traced")) => (m, &argv[1..]),
        _ => ("main", &argv[..]),
    };
    let a = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "child-cold" => local::child_cold(a.workload, a.seed, a.t0, a.setup_only, a.dir.as_deref()),
        "child-resume" => local::child_resume(a.workload, a.seed, a.dir.as_deref().expect("--dir")),
        "child-traced" => traced::child(a.workload, a.seed, a.dir.as_deref().expect("--dir")),
        _ => return run(&a),
    }
    ExitCode::SUCCESS
}

/// A scratch directory unique to this run, inside the checkout.
fn scratch_dir(w: Workload) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{}-{}", w.name(), std::process::id()))
}

fn run(a: &Args) -> ExitCode {
    let Some(simd) = a.simd.as_deref() else {
        eprintln!("ccbench: --simd is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let w = a.workload;
    println!("host: {}", util::host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {} (held-out seed for claims: {})",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        traced::HELD_OUT_SEED
    );
    let scratch = scratch_dir(w);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ccbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let mut ledger = Ledger::default();
    let metrics = if a.trace {
        traced::run(simd, w, a.seed, &scratch, &mut ledger)
    } else {
        end_to_end(simd, w, a, &scratch, &mut ledger)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_run");

    let failed = ledger.failed();
    let attempted = ledger.attempted.max(1);
    for e in &ledger.errors {
        println!("FAILED: {e}");
    }
    println!(
        "{:<24} {:>14.4} % of ops  ({failed} failed of {attempted} attempted)",
        "fail_pct",
        100.0 * failed as f64 / attempted as f64
    );
    // A job that lost or duplicated a cell fails its operation, but its
    // resubmission can still deliver the right document.
    let correct = failed == ledger.retried;
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, String);

fn end_to_end(
    simd: &Path,
    w: Workload,
    a: &Args,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let r = match w {
        Workload::ServedDurable => {
            let mut times = served::SimdStats::default();
            let r = served::run(
                simd,
                a.seed,
                a.seconds,
                usize::MAX,
                scratch,
                &mut times,
                ledger,
            );
            println!(
                "simd protocol errors: {} jobs ({} cells after done, {} duplicates resubmitted)",
                times.protocol_errors, times.cells_after_done, ledger.retried
            );
            r
        }
        _ => local::run(w, a.seed, a.seconds, scratch, ledger),
    };
    println!(
        "fingerprint {} seed {}: {} over {} cells",
        w.name(),
        a.seed,
        r.fingerprint,
        r.cells
    );
    println!(
        "host probe {:.4} s (median of {}, quartiles {:.4}..{:.4}; nominal {} s)",
        median(&r.probe_s),
        r.probe_s.len(),
        quantile(&r.probe_s, 0.25),
        quantile(&r.probe_s, 0.75),
        calib::NOMINAL_S
    );
    let (m, s) = (&r.measured, &r.scaled);
    let mut out = vec![
        summarize("setup_s", &s.setup_s, &m.setup_s, "s"),
        summarize("sweep_s", &s.sweep_s, &m.sweep_s, "s"),
        summarize("sim_minst_per_s", &s.minst_per_s, &m.minst_per_s, "Minst/s"),
        summarize("warm_ms", &s.warm_ms, &m.warm_ms, "ms"),
        summarize("resume_s", &s.resume_s, &m.resume_s, "s"),
        summarize("peak_rss_mb", &s.peak_rss_mb, &m.peak_rss_mb, "MiB"),
    ];
    println!(
        "{:<24} {:>14.4} %        (simulated, exact; paper: {}% — synthetic workloads, model unvalidated)",
        "cc_speedup_pct",
        r.cc_speedup_pct,
        w.paper_speedup_pct()
    );
    out.push(("cc_speedup_pct".into(), r.cc_speedup_pct, "%".into()));
    out
}

/// Prints one end-to-end metric and returns it: the median of its
/// samples at the nominal host speed, printed beside the median and
/// quartiles of the same samples as measured.
fn summarize(name: &str, scaled: &[f64], measured: &[f64], unit: &str) -> Metric {
    let value = median(scaled);
    let (med, q1, q3) = (
        median(measured),
        quantile(measured, 0.25),
        quantile(measured, 0.75),
    );
    println!(
        "{name:<24} {value:>14.4} {unit:<8} (median of {}; as measured {med:.4}, quartiles {q1:.4}..{q3:.4})",
        measured.len()
    );
    (name.to_string(), value, unit.to_string())
}
