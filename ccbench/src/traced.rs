//! The traced run: per-layer metrics.
//!
//! Spans come from this benchmark's own code around each call into a
//! layer (the program itself is not instrumented). Every span records its
//! name, start, end, parent and cell; spans are kept in memory and written
//! to `.bench_trace/<workload>-<seed>.json` when the run ends. Calls too
//! frequent to span one by one — `TraceSource::next_entry` and the
//! mechanism hooks — are timed by wrappers and summed per cell instead.
//!
//! The wrappers: each core's trace is wrapped before `System::try_new`,
//! and each mechanism is re-registered as `timed.<name>` through
//! `chargecache::registry::register_mechanism`. The LLC, the memory
//! controller and the DRAM device are also driven stand-alone with the
//! access stream captured from the real run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use chargecache::{
    registry, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec, RowKey,
    StatSink, C_HCRAC_HITS, C_HCRAC_LOOKUPS,
};
use cpu::{Llc, LlcOutcome, MemOp, TraceEntry, TraceSource};
use dram::{ActTimings, BusCycle, Command, DramDevice};
use memctrl::{AccessKind, CtrlStats, MemRequest, MemorySystem};
use sim::api::{clear_run_cache, run_cache_executions, CellPlan};
use sim::json::Json;
use sim::{run_configured, CheckpointStore, DiskCache, RunResult, System};

use crate::grid::{self, Workload};
use crate::local::{self, Fingerprint};
use crate::served::{self, SimdStats};
use crate::util::{self, num, obj};
use crate::{spawn_child, Ledger, Metric};

/// Seed held out from tuning, named here so later performance claims can
/// be checked on inputs nobody tuned for.
pub const HELD_OUT_SEED: u64 = 7;

/// Every per-layer metric, in print order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.system.ns_per_kcycle", "ns"),
    ("sim.system.ns_per_kcycle.ddr3", "ns"),
    ("sim.system.ns_per_kcycle.ddr4", "ns"),
    ("sim.system.ns_per_kcycle.lpddr4x", "ns"),
    ("sim.system.ns_per_kcycle.hbm2", "ns"),
    ("sim.system.self_pct", "%"),
    ("sim.system.cycles", "count"),
    ("sim.system.build_us", "us"),
    ("sim.system.save_us", "us"),
    ("sim.system.load_us", "us"),
    ("sim.system.state_kb", "KiB"),
    ("sim.api.plan_ms", "ms"),
    ("sim.api.simulated", "count"),
    ("sim.api.memo_hits", "count"),
    ("sim.api.disk_hits", "count"),
    ("sim.api.resumed", "count"),
    ("sim.cache.store_us", "us"),
    ("sim.cache.load_us", "us"),
    ("sim.cache.entry_bytes", "bytes"),
    ("sim.cache.quarantined", "count"),
    ("sim.ckpt.stores", "count"),
    ("sim.ckpt.bytes", "bytes"),
    ("sim.ckpt.store_us", "us"),
    ("sim.ckpt.load_us", "us"),
    ("sim.ckpt.share_pct", "%"),
    ("sim.json.encode_ms", "ms"),
    ("sim.json.doc_kb", "KiB"),
    ("traces.next_calls", "count"),
    ("traces.next_ns", "ns"),
    ("cpu.llc.accesses", "count"),
    ("cpu.llc.hit_rate", "ratio"),
    ("cpu.llc.replay_accesses", "count"),
    ("cpu.llc.ns_per_access", "ns"),
    ("cpu.core.stall_pct", "%"),
    ("memctrl.sched_passes", "count"),
    ("memctrl.bank_visits_per_pass", "count"),
    ("memctrl.replay_ticks", "count"),
    ("memctrl.tick_ns", "ns"),
    ("memctrl.enqueue_attempts", "count"),
    ("memctrl.enqueue_reject_pct", "%"),
    ("memctrl.row_accesses", "count"),
    ("memctrl.row_hit_rate", "ratio"),
    ("memctrl.read_lat_p50_cyc", "cycles"),
    ("memctrl.read_lat_p99_cyc", "cycles"),
    ("dram.activations", "count"),
    ("dram.refreshes", "count"),
    ("dram.replay_commands", "count"),
    ("dram.issue_ns", "ns"),
    ("dram.issue_ns.ddr3", "ns"),
    ("dram.issue_ns.ddr4", "ns"),
    ("dram.issue_ns.lpddr4x", "ns"),
    ("dram.issue_ns.hbm2", "ns"),
    ("chargecache.hook_calls", "count"),
    ("chargecache.hook_ns", "ns"),
    ("chargecache.hcrac_lookups", "count"),
    ("chargecache.hcrac_hit_rate", "ratio"),
    ("simd.spawn_ms", "ms"),
    ("simd.accept_ms", "ms"),
    ("simd.queue_wait_ms", "ms"),
    ("simd.cell_gaps", "count"),
    ("simd.cell_gap_ms_p50", "ms"),
    ("simd.cell_gap_tail_pct", "%"),
    ("simd.cell_gap_ms_tail", "ms"),
    ("simd.protocol_errors", "count"),
    ("trace.overhead_pct", "%"),
];

/// Misses replayed into the stand-alone controller and device, per cell.
const REPLAY_CAP: usize = 20_000;

// ---------------------------------------------------------------------------
// Wrappers. The traced child is single-threaded, so plain thread-locals
// carry the counters out of the boxed trait objects the system owns.
// ---------------------------------------------------------------------------

thread_local! {
    static NEXT_CALLS: Cell<u64> = const { Cell::new(0) };
    static NEXT_NS: Cell<u64> = const { Cell::new(0) };
    static HOOK_CALLS: Cell<u64> = const { Cell::new(0) };
    static HOOK_NS: Cell<u64> = const { Cell::new(0) };
    /// Memory operations each core's trace produced, in order.
    static CAPTURE: RefCell<Vec<Vec<MemOp>>> = const { RefCell::new(Vec::new()) };
}

fn add(c: &'static std::thread::LocalKey<Cell<u64>>, v: u64) {
    c.with(|x| x.set(x.get() + v));
}

fn take(c: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    c.with(|x| x.replace(0))
}

/// Times `TraceSource::next_entry` and captures the memory operations.
struct TimedTrace {
    inner: Box<dyn TraceSource>,
    core: usize,
}

impl TraceSource for TimedTrace {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        let t = Instant::now();
        let e = self.inner.next_entry();
        add(&NEXT_NS, t.elapsed().as_nanos() as u64);
        add(&NEXT_CALLS, 1);
        if let Some(op) = e.and_then(|e| e.op) {
            CAPTURE.with(|c| c.borrow_mut()[self.core].push(op));
        }
        e
    }
}

/// Times every hook of the wrapped mechanism; state, statistics and
/// checkpoints pass through untouched.
struct TimedMech(Box<dyn LatencyMechanism>);

fn timed<R>(f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    add(&HOOK_NS, t.elapsed().as_nanos() as u64);
    add(&HOOK_CALLS, 1);
    r
}

impl LatencyMechanism for TimedMech {
    fn on_activate(
        &mut self,
        now: BusCycle,
        core: usize,
        key: RowKey,
        age: BusCycle,
    ) -> ActTimings {
        timed(|| self.0.on_activate(now, core, key, age))
    }
    fn on_precharge(&mut self, now: BusCycle, core: usize, key: RowKey) {
        timed(|| self.0.on_precharge(now, core, key));
    }
    fn on_refresh_row(&mut self, now: BusCycle, key: RowKey) {
        timed(|| self.0.on_refresh_row(now, key));
    }
    fn on_read(&mut self, now: BusCycle, core: usize, key: RowKey) {
        timed(|| self.0.on_read(now, core, key));
    }
    fn on_write(&mut self, now: BusCycle, core: usize, key: RowKey) {
        timed(|| self.0.on_write(now, core, key));
    }
    fn tick(&mut self, now: BusCycle) {
        timed(|| self.0.tick(now));
    }
    fn report_stats(&self, out: &mut dyn StatSink) {
        self.0.report_stats(out);
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.0.save_state(out)
    }
    fn load_state(&mut self, input: &mut &[u8]) -> Result<(), String> {
        self.0.load_state(input)
    }
}

/// Registers as `timed.<inner>` and builds the inner mechanism wrapped.
struct TimedFactory {
    name: String,
    inner: Arc<dyn MechanismFactory>,
}

impl TimedFactory {
    fn inner_spec(&self, spec: &MechanismSpec) -> MechanismSpec {
        let mut s = MechanismSpec::new(self.inner.name().to_string());
        for (k, v) in spec.params() {
            s.set(k.clone(), v.clone());
        }
        s
    }
}

impl MechanismFactory for TimedFactory {
    fn name(&self) -> &str {
        &self.name
    }
    fn describe(&self) -> &str {
        "benchmark wrapper timing every hook of the inner mechanism"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        self.inner.validate(&self.inner_spec(spec))
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        Ok(Box::new(TimedMech(
            self.inner.build(&self.inner_spec(spec), ctx)?,
        )))
    }
}

fn timed_spec(spec: &MechanismSpec) -> MechanismSpec {
    let mut s = MechanismSpec::new(format!("timed.{}", spec.name()));
    for (k, v) in spec.params() {
        s.set(k.clone(), v.clone());
    }
    s
}

fn register_timed_mechanisms() {
    for spec in MechanismSpec::paper_all() {
        let inner = registry::with_registry(|r| r.resolve(spec.name()).cloned())
            .expect("built-in mechanism");
        registry::register_mechanism(Arc::new(TimedFactory {
            name: format!("timed.{}", spec.name()),
            inner,
        }));
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>, cell: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in ns.
    fn close(&mut self, id: usize) -> u64 {
        let s = &mut self.spans[id];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        s.end_ns - s.start_ns
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::uint(s.start_ns)),
                        ("end_ns", Json::uint(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                        ),
                        ("cell", s.cell.map_or(Json::Null, |c| Json::uint(c as u64))),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-layer sums and their bases.
#[derive(Default)]
struct Acc {
    m: BTreeMap<String, f64>,
}

impl Acc {
    fn add(&mut self, k: &str, v: f64) {
        *self.m.entry(k.to_string()).or_default() += v;
    }
    fn get(&self, k: &str) -> f64 {
        self.m.get(k).copied().unwrap_or(0.0)
    }
    fn set(&mut self, k: &str, v: f64) {
        self.m.insert(k.to_string(), v);
    }
    /// `num / den`, 0 when the base is empty.
    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

// ---------------------------------------------------------------------------
// The traced child
// ---------------------------------------------------------------------------

/// Child: plan and run the workload's grid untraced, then again through
/// the wrappers, then drive the LLC, controller, device, run cache and
/// checkpoint store stand-alone; print the per-layer metrics.
pub fn child(w: Workload, seed: u64, dir: &Path) {
    register_timed_mechanisms();
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut acc = Acc::default();
    let mut ledger = Ledger::default();
    let p = grid::params(seed);

    let s = spans.open("sim.api.plan", None, None);
    let exp = grid::experiment(w, seed);
    let plan = exp.plan().expect("valid grid");
    let alone = grid::alone_plans(w, seed);
    acc.set("sim.api.plan_ms", spans.close(s) as f64 / 1e6);

    // Untraced cold sweep: the reference bytes and the overhead base.
    let executions = run_cache_executions();
    let s = spans.open("sim.api.run", None, None);
    let sweep = exp.run().expect("valid grid");
    let untraced_ns = spans.close(s);
    let simulated = run_cache_executions() - executions;
    let requested = (plan.cells.len() + alone.len()) as u64;
    acc.set("sim.api.simulated", simulated as f64);
    acc.set("sim.api.memo_hits", (requested - simulated) as f64);
    let s = spans.open("sim.json.encode", None, None);
    let doc = sweep.to_json();
    acc.set("sim.json.encode_ms", spans.close(s) as f64 / 1e6);
    acc.set("sim.json.doc_kb", doc.len() as f64 / 1024.0);

    // The unique runs: grid cells, then alone runs, with their results.
    let mut jobs: Vec<(CellPlan, RunResult)> = Vec::new();
    for (plan, cell) in plan.cells.iter().zip(&sweep.cells) {
        let Ok(r) = &cell.outcome else {
            ledger.fail(format!("cell {} failed", cell.subject));
            continue;
        };
        if !jobs
            .iter()
            .any(|(q, _)| q.content_key() == plan.content_key())
        {
            jobs.push((plan.clone(), r.clone()));
        }
    }
    let mut alone_results = Vec::new();
    for a in &alone {
        let r = a.run(None).expect("memoized alone run").as_ref().clone();
        alone_results.push((a.subject.clone(), r.clone()));
        jobs.push((a.clone(), r));
    }
    let fp = Fingerprint::of(&sweep, &alone_results);

    exact_counters(&jobs, &mut acc);

    // Warm rung: every run from a disk cache filled with the results.
    let cache_dir = dir.join("cache");
    let disk = DiskCache::shared(&cache_dir);
    cache_layer(&jobs, &disk, &mut spans, &mut acc, &mut ledger);
    clear_run_cache();
    let before = disk.stats().hits;
    let warm = grid::experiment(w, seed)
        .cache_dir(&cache_dir)
        .run()
        .expect("valid grid");
    acc.set("sim.api.disk_hits", (disk.stats().hits - before) as f64);
    ledger.check(warm.to_json() == doc, || {
        "warm document differs from the cold one".into()
    });

    // Traced passes over every unique run.
    let store = CheckpointStore::new(&dir.join("ckpt"));
    let _ = std::fs::create_dir_all(dir.join("ckpt"));
    let mut traced_ns = 0;
    for (i, (plan, reference)) in jobs.iter().enumerate() {
        let cell = spans.open("cell", None, Some(i));
        // Pass A: the hook-timing mechanism must leave every result byte
        // as it was.
        let mut cfg = plan.cfg.clone();
        cfg.mechanism = timed_spec(&cfg.mechanism);
        let s = spans.open("sim.run_configured.timed_mechanism", Some(cell), Some(i));
        let r = run_configured(cfg, &plan.apps, &p);
        spans.close(s);
        ledger.check(
            r.as_ref().map(RunResult::encode).ok() == Some(reference.encode()),
            || {
                format!(
                    "traced result of {} differs from the untraced one",
                    plan.subject
                )
            },
        );
        take(&HOOK_CALLS);
        take(&HOOK_NS);
        // Pass B: the engine with both wrappers, a mid-run checkpoint,
        // and the captured access stream.
        traced_ns += system_pass(
            plan,
            reference,
            i,
            cell,
            &store,
            &mut spans,
            &mut acc,
            &mut ledger,
        );
        let stream = CAPTURE.with(|c| std::mem::take(&mut *c.borrow_mut()));
        let misses = llc_replay(plan, &stream, &mut acc);
        memctrl_replay(plan, &misses, &mut acc);
        dram_replay(plan, &misses, &mut acc);
        spans.close(cell);
    }
    acc.set(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns as f64 - 1.0),
    );

    let mut metrics = Vec::new();
    for (name, _) in PER_LAYER {
        if let Some(v) = finish(&acc, name) {
            metrics.push((name.to_string(), Json::num(v)));
        }
    }
    let trace_dir = Path::new(".bench_trace");
    let _ = std::fs::create_dir_all(trace_dir);
    let trace_file = trace_dir.join(format!("{}-{seed}.json", w.name()));
    let _ = std::fs::write(&trace_file, format!("{}\n", spans.to_json()));
    let mut out = vec![
        ("metrics", Json::Obj(metrics)),
        ("trace_file", Json::str(trace_file.display().to_string())),
    ];
    out.extend(ledger.to_json());
    out.extend(fp.to_json());
    println!("{}", obj(out));
}

/// Host-independent counters summed over the unique runs' results.
fn exact_counters(jobs: &[(CellPlan, RunResult)], acc: &mut Acc) {
    let mut ctrl = CtrlStats::default();
    for (_, r) in jobs {
        ctrl.absorb(&r.ctrl);
        acc.add("sim.system.cycles", r.cpu_cycles as f64);
        acc.add("llc.hits", (r.llc.read_hits + r.llc.write_hits) as f64);
        acc.add(
            "cpu.llc.accesses",
            (r.llc.read_accesses + r.llc.write_accesses) as f64,
        );
        acc.add(
            "chargecache.hcrac_lookups",
            r.mech.get(C_HCRAC_LOOKUPS) as f64,
        );
        acc.add("hcrac.hits", r.mech.get(C_HCRAC_HITS) as f64);
    }
    acc.set("memctrl.sched_passes", ctrl.sched_passes as f64);
    acc.set("memctrl.bank_visits_per_pass", ctrl.bank_visits_per_pass());
    acc.set(
        "memctrl.row_accesses",
        (ctrl.row_hits + ctrl.row_misses + ctrl.row_conflicts) as f64,
    );
    acc.set("memctrl.row_hit_rate", ctrl.row_hit_rate());
    acc.set(
        "memctrl.read_lat_p50_cyc",
        ctrl.read_latency_quantile(0.5).unwrap_or(0) as f64,
    );
    acc.set(
        "memctrl.read_lat_p99_cyc",
        ctrl.read_latency_quantile(0.99).unwrap_or(0) as f64,
    );
    acc.set("dram.activations", ctrl.activations() as f64);
    acc.set("dram.refreshes", ctrl.refreshes as f64);
}

/// Times one store and one load of every result in the run cache,
/// including `RunResult::encode`/`decode`.
fn cache_layer(
    jobs: &[(CellPlan, RunResult)],
    disk: &DiskCache,
    spans: &mut Spans,
    acc: &mut Acc,
    ledger: &mut Ledger,
) {
    for (i, (plan, r)) in jobs.iter().enumerate() {
        let key = plan.content_key();
        let s = spans.open("sim.cache.store", None, Some(i));
        disk.store(key, &r.encode());
        acc.add("cache.store_ns", spans.close(s) as f64);
        acc.add(
            "sim.cache.entry_bytes",
            std::fs::metadata(disk.path_for(key)).map_or(0, |m| m.len()) as f64,
        );
        let s = spans.open("sim.cache.load", None, Some(i));
        let back = disk.load(key).and_then(|b| RunResult::decode(&b));
        acc.add("cache.load_ns", spans.close(s) as f64);
        ledger.check(back.as_ref() == Some(r), || {
            format!("cache round trip of {} changed it", plan.subject)
        });
    }
    acc.set("sim.cache.quarantined", disk.stats().quarantined as f64);
}

/// Builds `plan`'s system under `cfg` the way the sweep does (one trace per
/// core, seeded per core); with `timed`, each trace is wrapped in a
/// [`TimedTrace`] and the capture buffers are reset.
fn build_system(plan: &CellPlan, cfg: &sim::SystemConfig, timed: bool) -> System {
    let p = plan.params;
    if timed {
        CAPTURE.with(|c| *c.borrow_mut() = vec![Vec::new(); cfg.cores]);
    }
    let traces = plan
        .apps
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            let inner = spec.build(
                p.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                cfg.region_base(core),
            );
            if timed {
                Box::new(TimedTrace { inner, core })
            } else {
                inner
            }
        })
        .collect();
    System::try_new(cfg.clone(), traces).expect("valid cell")
}

/// Builds the cell's system with timed traces and mechanism, runs it the
/// way the sweep does with one checkpoint save/store/load/restore at the
/// workload's interval, and returns the host ns of build and run.
#[allow(clippy::too_many_arguments)]
fn system_pass(
    plan: &CellPlan,
    reference: &RunResult,
    i: usize,
    cell: usize,
    store: &CheckpointStore,
    spans: &mut Spans,
    acc: &mut Acc,
    ledger: &mut Ledger,
) -> u64 {
    let p = plan.params;
    let max_cycles = p.max_cycle_factor * (p.warmup_insts + p.insts_per_core);
    let mut cfg = plan.cfg.clone();
    cfg.mechanism = timed_spec(&cfg.mechanism);
    let s = spans.open("sim.system.build", Some(cell), Some(i));
    let mut sys = build_system(plan, &cfg, true);
    let build_ns = spans.close(s);
    acc.add("build.ns", build_ns as f64);
    take(&NEXT_CALLS);
    take(&NEXT_NS);
    take(&HOOK_CALLS);
    take(&HOOK_NS);

    let s = spans.open("sim.system.warmup", Some(cell), Some(i));
    sys.run_until_retired(p.warmup_insts, max_cycles);
    sys.memory_mut().device_mut().take_log();
    let mut run_ns = spans.close(s);
    let warm_now = sys.now();
    let deadline = warm_now + max_cycles;
    let s = spans.open("sim.system.measure", Some(cell), Some(i));
    let mid = (p.warmup_insts + grid::CHECKPOINT_INTERVAL).min(p.warmup_insts + p.insts_per_core);
    sys.run_until_retired(mid, deadline - sys.now());
    run_ns += spans.close(s);

    // Checkpoint at the workload's interval: save, store, load, restore.
    let s = spans.open("sim.system.save_state", Some(cell), Some(i));
    let mut state = Vec::new();
    let saved = sys.save_state(&mut state);
    let save_ns = spans.close(s);
    let key = plan.content_key();
    let stores = sim::checkpoint_stats().stores;
    let s = spans.open("sim.ckpt.store", Some(cell), Some(i));
    store.store(key, &state);
    let store_ns = spans.close(s);
    let s = spans.open("sim.ckpt.load", Some(cell), Some(i));
    let loaded = store.load(key);
    let load_ns = spans.close(s);
    acc.add(
        "sim.ckpt.stores",
        (sim::checkpoint_stats().stores - stores) as f64,
    );
    acc.add(
        "sim.ckpt.bytes",
        std::fs::metadata(store.path_for(key)).map_or(0, |m| m.len()) as f64,
    );
    store.remove(key);
    // Restore into an untraced twin, so the traced run's counters and
    // captured stream stay its own.
    let mut fresh = build_system(plan, &plan.cfg, false);
    let s = spans.open("sim.system.load_state", Some(cell), Some(i));
    let restored = loaded
        .as_deref()
        .map(|mut b| fresh.load_state(&mut b))
        .unwrap_or_else(|| Err("checkpoint did not load".into()));
    let load_state_ns = spans.close(s);
    let mut again = Vec::new();
    fresh.save_state(&mut again);
    ledger.check(saved && restored.is_ok() && again == state, || {
        format!(
            "checkpoint of {} did not restore bit-identically",
            plan.subject
        )
    });
    acc.add("save.ns", save_ns as f64);
    acc.add("ckpt.store_ns", store_ns as f64);
    acc.add("ckpt.load_ns", load_ns as f64);
    acc.add("load.ns", load_state_ns as f64);
    acc.add("state.bytes", state.len() as f64);

    let s = spans.open("sim.system.measure", Some(cell), Some(i));
    sys.run_until_retired(p.warmup_insts + p.insts_per_core, deadline - sys.now());
    run_ns += spans.close(s);
    // Core statistics of the whole run, warm-up included (a RunResult's
    // stall count spans the warm-up while its cycle count does not).
    for core in 0..cfg.cores {
        let c = sys.core_stats(core);
        acc.add("core.stalls", c.stall_cycles as f64);
        acc.add("core.cycles", c.cycles as f64);
    }
    let cycles = sys.now() - warm_now;
    ledger.check(cycles == reference.cpu_cycles, || {
        format!(
            "traced {} ran {cycles} cycles, untraced {}",
            plan.subject, reference.cpu_cycles
        )
    });

    let next_ns = take(&NEXT_NS);
    let hook_ns = take(&HOOK_NS);
    acc.add("traces.next_calls", take(&NEXT_CALLS) as f64);
    acc.add("next.ns", next_ns as f64);
    acc.add("chargecache.hook_calls", take(&HOOK_CALLS) as f64);
    acc.add("hook.ns", hook_ns as f64);
    acc.add("run.ns", run_ns as f64);
    acc.add("run.cycles", sys.now() as f64);
    let family = plan.family.to_string();
    acc.add(&format!("run.ns.{family}"), run_ns as f64);
    acc.add(&format!("run.cycles.{family}"), sys.now() as f64);
    acc.add("cells", 1.0);
    build_ns + run_ns
}

/// Replays the captured operations (cores interleaved one by one) into a
/// fresh LLC, timing every access; returns the misses and writebacks the
/// memory system would see.
fn llc_replay(plan: &CellPlan, stream: &[Vec<MemOp>], acc: &mut Acc) -> Vec<MemRequest> {
    let mut llc = Llc::new(plan.cfg.llc);
    let mut misses = Vec::new();
    let longest = stream.iter().map(Vec::len).max().unwrap_or(0);
    let start = Instant::now();
    let mut accesses = 0u64;
    for k in 0..longest {
        for (core, ops) in stream.iter().enumerate() {
            let Some(op) = ops.get(k) else { continue };
            accesses += 1;
            let req = |addr, kind| MemRequest { addr, kind, core };
            match *op {
                MemOp::Load(a) => {
                    if let LlcOutcome::Miss { .. } = llc.read(a) {
                        misses.push(req(a, AccessKind::Read));
                        if let Some(wb) = llc.fill(a) {
                            misses.push(req(wb, AccessKind::Write));
                        }
                    }
                }
                MemOp::Store(a) => {
                    if let LlcOutcome::Miss {
                        writeback: Some(wb),
                    } = llc.write(a)
                    {
                        misses.push(req(wb, AccessKind::Write));
                    }
                }
            }
        }
    }
    acc.add("llc.replay_ns", start.elapsed().as_nanos() as f64);
    acc.add("cpu.llc.replay_accesses", accesses as f64);
    misses
}

/// Feeds the miss stream into a fresh memory system, one enqueue attempt
/// per bus cycle, timing every controller tick.
fn memctrl_replay(plan: &CellPlan, misses: &[MemRequest], acc: &mut Acc) {
    let cfg = &plan.cfg;
    let Ok(mut mem) = MemorySystem::from_spec(
        cfg.dram.clone(),
        cfg.ctrl.clone(),
        &cfg.mechanism,
        cfg.cores,
    ) else {
        return;
    };
    let reqs = &misses[..misses.len().min(REPLAY_CAP)];
    let mut done = Vec::new();
    let (mut now, mut next, mut attempts, mut rejects, mut tick_ns) =
        (0u64, 0usize, 0u64, 0u64, 0u64);
    let cap = 1000 * (reqs.len() as u64 + 1);
    while (next < reqs.len() || !mem.is_idle()) && now < cap {
        if next < reqs.len() {
            attempts += 1;
            if mem.try_enqueue(reqs[next], now).is_some() {
                next += 1;
            } else {
                rejects += 1;
            }
        }
        let t = Instant::now();
        mem.tick_into(now, &mut done);
        tick_ns += t.elapsed().as_nanos() as u64;
        done.clear();
        now += 1;
    }
    acc.add("memctrl.replay_ticks", now as f64);
    acc.add("tick.ns", tick_ns as f64);
    acc.add("memctrl.enqueue_attempts", attempts as f64);
    acc.add("enqueue.rejects", rejects as f64);
}

/// Drives a fresh DRAM device of the cell's family with the miss stream
/// under an in-order open-page policy, timing `earliest_issue` + `issue`.
fn dram_replay(plan: &CellPlan, misses: &[MemRequest], acc: &mut Acc) {
    let cfg = &plan.cfg;
    let Ok(mem) = MemorySystem::from_spec(
        cfg.dram.clone(),
        cfg.ctrl.clone(),
        &cfg.mechanism,
        cfg.cores,
    ) else {
        return;
    };
    let mapper = mem.mapper().clone();
    let mut dev = DramDevice::new(cfg.dram.clone());
    let act = cfg.dram.timing.act_timings();
    let (mut now, mut commands, mut ns) = (0u64, 0u64, 0u64);
    for req in &misses[..misses.len().min(REPLAY_CAP)] {
        let a = mapper.decode(req.addr);
        let mut cmds = Vec::with_capacity(3);
        match dev.open_row(a.loc) {
            Some(row) if row == a.row => {}
            Some(_) => cmds.extend([Command::pre(a.loc), Command::act(a.loc, a.row)]),
            None => cmds.push(Command::act(a.loc, a.row)),
        }
        cmds.push(match req.kind {
            AccessKind::Read => Command::rd(a.loc, a.col),
            AccessKind::Write => Command::wr(a.loc, a.col),
        });
        for c in &cmds {
            let t = Instant::now();
            if let Ok(at) = dev.earliest_issue(c, now) {
                dev.issue(c, at, act);
                now = at;
            }
            ns += t.elapsed().as_nanos() as u64;
            commands += 1;
        }
    }
    let family = plan.family.to_string();
    acc.add("dram.replay_commands", commands as f64);
    acc.add("issue.ns", ns as f64);
    acc.add(&format!("issue.commands.{family}"), commands as f64);
    acc.add(&format!("issue.ns.{family}"), ns as f64);
}

/// The value of one per-layer metric from the child's sums; `None` for
/// the metrics the parent fills in.
fn finish(acc: &Acc, name: &str) -> Option<f64> {
    let per_kcycle = |ns: &str, cycles: &str| 1000.0 * acc.ratio(ns, cycles);
    let cells = acc.get("cells").max(1.0);
    Some(match name {
        "sim.system.ns_per_kcycle" => per_kcycle("run.ns", "run.cycles"),
        "sim.system.self_pct" => {
            let run = acc.get("run.ns");
            if run == 0.0 {
                0.0
            } else {
                100.0 * (run - acc.get("next.ns") - acc.get("hook.ns")) / run
            }
        }
        "sim.system.build_us" => acc.get("build.ns") / cells / 1e3,
        "sim.system.save_us" => acc.get("save.ns") / cells / 1e3,
        "sim.system.load_us" => acc.get("load.ns") / cells / 1e3,
        "sim.system.state_kb" => acc.get("state.bytes") / cells / 1024.0,
        "sim.cache.store_us" => acc.get("cache.store_ns") / cells / 1e3,
        "sim.cache.load_us" => acc.get("cache.load_ns") / cells / 1e3,
        "sim.cache.entry_bytes" => acc.get("sim.cache.entry_bytes") / cells,
        "sim.ckpt.bytes" => acc.get("sim.ckpt.bytes") / cells,
        "sim.ckpt.store_us" => acc.get("ckpt.store_ns") / cells / 1e3,
        "sim.ckpt.load_us" => acc.get("ckpt.load_ns") / cells / 1e3,
        "sim.ckpt.share_pct" => {
            100.0 * (acc.get("save.ns") + acc.get("ckpt.store_ns")) / acc.get("run.ns").max(1.0)
        }
        "traces.next_ns" => acc.ratio("next.ns", "traces.next_calls"),
        "cpu.llc.hit_rate" => acc.ratio("llc.hits", "cpu.llc.accesses"),
        "cpu.llc.ns_per_access" => acc.ratio("llc.replay_ns", "cpu.llc.replay_accesses"),
        "cpu.core.stall_pct" => 100.0 * acc.ratio("core.stalls", "core.cycles"),
        "memctrl.tick_ns" => acc.ratio("tick.ns", "memctrl.replay_ticks"),
        "memctrl.enqueue_reject_pct" => {
            100.0 * acc.ratio("enqueue.rejects", "memctrl.enqueue_attempts")
        }
        "dram.issue_ns" => acc.ratio("issue.ns", "dram.replay_commands"),
        "chargecache.hook_ns" => acc.ratio("hook.ns", "chargecache.hook_calls"),
        "chargecache.hcrac_hit_rate" => acc.ratio("hcrac.hits", "chargecache.hcrac_lookups"),
        n if n.starts_with("sim.system.ns_per_kcycle.") => {
            let f = &n["sim.system.ns_per_kcycle.".len()..];
            per_kcycle(&format!("run.ns.{f}"), &format!("run.cycles.{f}"))
        }
        n if n.starts_with("dram.issue_ns.") => {
            let f = &n["dram.issue_ns.".len()..];
            acc.ratio(&format!("issue.ns.{f}"), &format!("issue.commands.{f}"))
        }
        n if n.starts_with("simd.") || n == "sim.api.resumed" => return None,
        n => acc.get(n),
    })
}

// ---------------------------------------------------------------------------
// The parent side of a traced run
// ---------------------------------------------------------------------------

/// Parent: one traced child for the simulation layers, plus one served
/// cycle (served_durable) or one kill-and-resume (local) for the rest.
pub fn run(
    simd: &Path,
    w: Workload,
    seed: u64,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let dir = scratch.join("traced");
    let dir_s = dir.display().to_string();
    let seed_s = seed.to_string();
    let args = [
        "child-traced",
        "--workload",
        w.name(),
        "--seed",
        &seed_s,
        "--dir",
        &dir_s,
    ];
    let Some(j) = ledger.child(spawn_child(&args, &[])) else {
        return Vec::new();
    };
    ledger.absorb(&j);
    let fp = Fingerprint::from_json(&j);
    println!(
        "fingerprint {} seed {}: {} over {} cells",
        w.name(),
        seed,
        fp.digest(),
        fp.labels.len()
    );
    println!("spans written to {}", util::text(&j, "trace_file"));
    let child = j.get("metrics").cloned().unwrap_or(Json::Null);

    let mut times = SimdStats::default();
    let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
    if w == Workload::ServedDurable {
        served::run(simd, seed, 0, 1, scratch, &mut times, ledger);
        let gaps = &times.cell_gap_ms;
        let (tail_pct, tail) = util::tail(gaps).unwrap_or((0.0, 0.0));
        extra.extend([
            ("simd.spawn_ms", util::median(&times.spawn_ms)),
            ("simd.accept_ms", util::median(&times.accept_ms)),
            ("simd.queue_wait_ms", util::median(&times.queue_wait_ms)),
            ("simd.cell_gaps", gaps.len() as f64),
            ("simd.cell_gap_ms_p50", util::median(gaps)),
            ("simd.cell_gap_tail_pct", tail_pct),
            ("simd.cell_gap_ms_tail", tail),
            ("simd.protocol_errors", times.protocol_errors as f64),
            ("sim.api.resumed", times.resumed as f64),
            ("sim.api.simulated", times.simulated as f64),
            ("sim.api.disk_hits", times.disk_hits as f64),
        ]);
    } else {
        let resumed = local::resume_cycle(w, seed, &scratch.join("resume"), &fp, ledger)
            .map_or(0.0, |r| num(&r, "resumed"));
        extra.insert("sim.api.resumed", resumed);
    }

    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = extra
            .get(name)
            .copied()
            .or_else(|| child.get(name).and_then(Json::as_num))
            .unwrap_or(0.0);
        println!("{name:<34} {value:>16.4} {unit}");
        out.push((name.to_string(), value, unit.to_string()));
    }
    out
}
