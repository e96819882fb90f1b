//! The in-process workloads (`paper_mix`, `device_grid`): the child
//! processes that run one cold sweep or one resume each, and the parent
//! loop that spawns them and aggregates their reports.

use std::path::Path;
use std::time::{Duration, Instant};

use sim::api::{clear_run_cache, run_cache_executions, CellPlan, SweepResult};
use sim::json::Json;
use sim::{checkpoint_stats, DiskCache, RunResult};

use crate::calib::Probes;
use crate::grid::{self, Workload};
use crate::util::{self, num, obj, str_list, strs};
use crate::{spawn_child, Ledger, Report, Samples};

/// Fewest measuring iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// Set-up-only processes per iteration, on top of the cold sweep's own.
const SETUP_SAMPLES: usize = 4;
/// Warm re-runs in each cold process.
const WARM_REPS: usize = 5;

/// Exit code of a process killed by `CC_FAULT_INJECTION=ckpt-exit=N`.
pub const CKPT_EXIT_CODE: i32 = 86;

/// Labels and encoded-result hashes of every cell of a sweep, in grid
/// order, then its alone-IPC runs.
pub struct Fingerprint {
    pub labels: Vec<String>,
    pub hashes: Vec<String>,
}

impl Fingerprint {
    pub fn of(sweep: &SweepResult, alone: &[(String, RunResult)]) -> Fingerprint {
        let mut labels = Vec::new();
        let mut hashes = Vec::new();
        for c in &sweep.cells {
            labels.push(grid::cell_label(&c.subject, &c.family, &c.mechanism));
            hashes.push(match &c.outcome {
                Ok(r) => util::hash_hex(&r.encode()),
                Err(e) => format!("error: {e}"),
            });
        }
        for (name, r) in alone {
            labels.push(format!("alone/{name}"));
            hashes.push(util::hash_hex(&r.encode()));
        }
        Fingerprint { labels, hashes }
    }

    /// One hash over every cell hash.
    pub fn digest(&self) -> String {
        util::hash_hex(self.hashes.join(",").as_bytes())
    }

    pub fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("labels", strs(&self.labels)),
            ("hashes", strs(&self.hashes)),
            ("fingerprint", Json::str(self.digest())),
        ]
    }

    pub fn from_json(j: &Json) -> Fingerprint {
        Fingerprint {
            labels: str_list(j, "labels"),
            hashes: str_list(j, "hashes"),
        }
    }

    pub fn get(&self, label: &str) -> Option<&str> {
        let i = self.labels.iter().position(|l| l == label)?;
        Some(&self.hashes[i])
    }
}

/// Counts every cell of `sweep` as one operation, failed if it errored.
fn check_cells(ledger: &mut Ledger, sweep: &SweepResult) {
    for c in &sweep.cells {
        ledger.check(c.is_ok(), || {
            format!(
                "cell {} failed: {}",
                c.subject,
                c.error().expect("failed cell")
            )
        });
    }
}

/// Child: set up, run one cold sweep, and (with `warm_dir`) the warm
/// re-runs over a disk cache filled from the cold results.
pub fn child_cold(w: Workload, seed: u64, t0_ns: u128, setup_only: bool, warm_dir: Option<&Path>) {
    let exp = grid::experiment(w, seed);
    let plan = exp.plan().expect("valid grid");
    let alone = grid::alone_plans(w, seed);
    let unique = grid::unique_jobs(plan.cells.iter().chain(&alone));
    let setup_s = (util::epoch_ns() - t0_ns) as f64 / 1e9;
    if setup_only {
        println!("{}", obj(vec![("setup_s", Json::num(setup_s))]));
        return;
    }

    let mut checks = Ledger::default();
    let executions = run_cache_executions();
    let start = Instant::now();
    let sweep = exp.run().expect("valid grid");
    let sim_s = start.elapsed().as_secs_f64();
    let doc = sweep.to_json();
    let sweep_s = start.elapsed().as_secs_f64();
    let simulated = run_cache_executions() - executions;
    let peak_rss_mb = util::vmhwm_mib("self").unwrap_or(f64::NAN);

    check_cells(&mut checks, &sweep);
    checks.check(simulated == unique as u64, || {
        format!("cold sweep simulated {simulated} runs, expected {unique} unique")
    });
    // The alone runs are memoized now: re-resolving them must not simulate.
    let alone_results: Vec<(String, RunResult)> = alone
        .iter()
        .map(|p| (p.subject.clone(), run_plan(p)))
        .collect();
    checks.check(run_cache_executions() - executions == simulated, || {
        "alone-IPC plans do not match the sweep's memoized runs".into()
    });
    let p = grid::params(seed);
    let insts: u64 = sweep
        .cells
        .iter()
        .filter(|c| c.is_ok())
        .map(|c| grid::simulated_insts(c.result(), &p))
        .chain(
            alone_results
                .iter()
                .map(|(_, r)| grid::simulated_insts(r, &p)),
        )
        .sum();
    let fp = Fingerprint::of(&sweep, &alone_results);

    let mut warm_ms = Vec::new();
    if let Some(dir) = warm_dir {
        let disk = DiskCache::shared(dir);
        for (plan, cell) in plan.cells.iter().zip(&sweep.cells) {
            if let Ok(r) = &cell.outcome {
                disk.store(plan.content_key(), &r.encode());
            }
        }
        for (plan, (_, r)) in alone.iter().zip(&alone_results) {
            disk.store(plan.content_key(), &r.encode());
        }
        for _ in 0..WARM_REPS {
            clear_run_cache();
            let before = (run_cache_executions(), disk.stats());
            let t = Instant::now();
            let warm = grid::experiment(w, seed)
                .cache_dir(dir)
                .run()
                .expect("valid grid");
            let warm_doc = warm.to_json();
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let after = (run_cache_executions(), disk.stats());
            checks.check(warm_doc == doc, || {
                "warm document differs from the cold one".into()
            });
            checks.check(after.0 == before.0, || {
                format!("warm sweep simulated {} runs", after.0 - before.0)
            });
            let hits = after.1.hits - before.1.hits;
            checks.check(hits == unique as u64, || {
                format!("warm sweep had {hits} disk hits, expected {unique}")
            });
        }
    }

    let mut out = vec![
        ("setup_s", Json::num(setup_s)),
        ("sweep_s", Json::num(sweep_s)),
        ("sim_s", Json::num(sim_s)),
        ("insts", Json::uint(insts)),
        ("peak_rss_mb", Json::num(peak_rss_mb)),
        (
            "cc_speedup_pct",
            Json::num(grid::cc_speedup_pct(&sweep).unwrap_or(f64::NAN)),
        ),
        (
            "warm_ms",
            Json::Arr(warm_ms.into_iter().map(Json::num).collect()),
        ),
    ];
    out.extend(fp.to_json());
    out.extend(checks.to_json());
    println!("{}", obj(out));
}

fn run_plan(plan: &CellPlan) -> RunResult {
    plan.run(None).expect("alone run").as_ref().clone()
}

/// Child: run the workload's resume job with checkpoints in `dir`. The
/// parent arms `CC_FAULT_INJECTION=ckpt-exit=N` for the run that must
/// die; the run after it resumes and reports.
pub fn child_resume(w: Workload, seed: u64, dir: &Path) {
    let mut p = grid::params(seed);
    p.checkpoint_interval = grid::CHECKPOINT_INTERVAL;
    let exp = grid::resume_experiment(w, seed).params(p).cache_dir(dir);
    let mut checks = Ledger::default();
    let ckpts = util::files_with_suffix(dir, ".ckpt");
    checks.check(ckpts == 1, || {
        format!("resume started with {ckpts} checkpoint files, expected 1")
    });
    let resumes = checkpoint_stats().resumes;
    let start = Instant::now();
    let sweep = exp.run().expect("valid resume job");
    let resume_s = start.elapsed().as_secs_f64();
    let resumed = checkpoint_stats().resumes - resumes;
    check_cells(&mut checks, &sweep);
    checks.check(resumed == 1, || {
        format!("resumed {resumed} cells, expected 1")
    });
    let mut out = vec![
        ("resume_s", Json::num(resume_s)),
        ("resumed", Json::uint(resumed)),
    ];
    out.extend(Fingerprint::of(&sweep, &[]).to_json());
    out.extend(checks.to_json());
    println!("{}", obj(out));
}

/// Parent: one kill-and-resume cycle in `dir`. A child runs the resume
/// job until `CC_FAULT_INJECTION=ckpt-exit=N` kills it; a fresh child
/// resumes, and every cell it reports must match the uninterrupted `fp`.
/// Returns the resuming child's report.
pub fn resume_cycle(
    w: Workload,
    seed: u64,
    dir: &Path,
    fp: &Fingerprint,
    ledger: &mut Ledger,
) -> Option<Json> {
    let dir_s = dir.to_string_lossy().into_owned();
    let seed_s = seed.to_string();
    let args = [
        "child-resume",
        "--workload",
        w.name(),
        "--seed",
        &seed_s,
        "--dir",
        &dir_s,
    ];
    let fault = format!("ckpt-exit={}", grid::resume_kill_at(w));
    let killed = spawn_child(&args, &[("CC_FAULT_INJECTION", &fault)]);
    ledger.check(killed.code == Some(CKPT_EXIT_CODE), || {
        format!(
            "killed run exited with {:?}, expected {CKPT_EXIT_CODE}",
            killed.code
        )
    });
    let j = ledger.child(spawn_child(&args, &[]))?;
    ledger.absorb(&j);
    let resumed = Fingerprint::from_json(&j);
    for (label, hash) in resumed.labels.iter().zip(&resumed.hashes) {
        ledger.check(fp.get(label) == Some(hash.as_str()), || {
            format!("resumed cell {label} differs from the uninterrupted run")
        });
    }
    Some(j)
}

/// Parent: the whole local workload for one run. Every iteration of the
/// measuring window takes set-up samples, one cold sweep (with its warm
/// re-runs) and one kill-and-resume, so every metric samples the whole
/// window rather than one stretch of the host's drift.
pub fn run(w: Workload, seed: u64, seconds: u64, scratch: &Path, ledger: &mut Ledger) -> Report {
    let seed_s = seed.to_string();
    let cold = |extra: &[&str], ledger: &mut Ledger| {
        let t0 = util::epoch_ns().to_string();
        let mut args = vec![
            "child-cold",
            "--workload",
            w.name(),
            "--seed",
            &seed_s,
            "--t0",
            &t0,
        ];
        args.extend(extra);
        ledger.child(spawn_child(&args, &[]))
    };
    let mut r = Report::default();
    let mut fp: Option<Fingerprint> = None;
    let mut probes = Probes::start();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut iteration = 0;
    while iteration < MIN_ITERATIONS || Instant::now() < deadline {
        iteration += 1;
        let mut phase = Samples::default();
        for _ in 0..SETUP_SAMPLES {
            if let Some(j) = cold(&["--setup-only"], ledger) {
                phase.setup_s.push(num(&j, "setup_s"));
            }
        }
        // A cold sweep in a fresh process (empty memoizer), then its warm
        // re-runs over a cache filled from its results.
        let warm_dir = scratch.join(format!("warm{iteration}"));
        let Some(j) = cold(&["--warm-dir", &warm_dir.to_string_lossy()], ledger) else {
            break;
        };
        let _ = std::fs::remove_dir_all(&warm_dir);
        ledger.absorb(&j);
        let this = Fingerprint::from_json(&j);
        let reference = fp.get_or_insert_with(|| {
            r.cc_speedup_pct = num(&j, "cc_speedup_pct");
            Fingerprint::from_json(&j)
        });
        ledger.check(this.digest() == reference.digest(), || {
            "cold sweeps of one seed disagree".into()
        });
        phase.setup_s.push(num(&j, "setup_s"));
        phase.sweep_s.push(num(&j, "sweep_s"));
        phase
            .minst_per_s
            .push(num(&j, "insts") / num(&j, "sim_s") / 1e6);
        phase.peak_rss_mb.push(num(&j, "peak_rss_mb"));
        phase.warm_ms.extend(
            j.get("warm_ms")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_num),
        );
        r.add(phase, probes.next());

        let mut phase = Samples::default();
        let resume_dir = scratch.join(format!("resume{iteration}"));
        if let Some(j) = resume_cycle(w, seed, &resume_dir, reference, ledger) {
            phase.resume_s.push(num(&j, "resume_s"));
        }
        let _ = std::fs::remove_dir_all(&resume_dir);
        r.add(phase, probes.next());
    }
    r.probe_s = probes.times;
    if let Some(fp) = fp {
        r.fingerprint = fp.digest();
        r.cells = fp.labels.len();
    }
    r
}
