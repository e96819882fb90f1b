//! The sweep-service contract: served sweeps byte-identical to local
//! ones, single-flighted overlapping submissions, bounded queues with
//! typed rejections, protocol robustness under a seeded fuzzer, and
//! kill-and-restart durability through the `cc-simd` subprocess.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use chargecache::{
    registry, Baseline, LatencyMechanism, MechanismContext, MechanismFactory, MechanismSpec,
};
use sim::api;
use sim::exp::ExpParams;
use sim::json::{parse, Json};
use simd::{Client, ClientError, Server, ServerConfig, SweepSpec};
use traces::TraceRng;

/// Serializes the tests that simulate in-process: they share the
/// process-wide run memoizer and its execution counter.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ExpParams {
    ExpParams {
        insts_per_core: 2_000,
        warmup_insts: 500,
        ..ExpParams::tiny()
    }
}

/// Fresh path under the system temp dir, unique per test and process.
fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "cc-simd-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    let _ = fs::remove_file(&d);
    d
}

fn spec(subjects: &[&str], mechanisms: Vec<MechanismSpec>, params: ExpParams) -> SweepSpec {
    SweepSpec {
        subjects: subjects.iter().map(|s| s.to_string()).collect(),
        mechanisms,
        families: Vec::new(),
        timings: Vec::new(),
        variants: Vec::new(),
        params,
        engine: None,
    }
}

/// Binds a daemon on a fresh socket and runs it on a background thread;
/// returns the socket path and the join handle (joined after a
/// `shutdown` request).
fn start_server(
    tag: &str,
    configure: impl FnOnce(&mut ServerConfig),
) -> (PathBuf, thread::JoinHandle<()>) {
    let socket = tmp_path(&format!("{tag}-sock"));
    let mut cfg = ServerConfig::new(&socket);
    cfg.threads = 2;
    configure(&mut cfg);
    let server = Server::bind(cfg).expect("bind daemon");
    let handle = thread::spawn(move || server.run().expect("daemon run"));
    (socket, handle)
}

fn shut_down(socket: &PathBuf, handle: thread::JoinHandle<()>) {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    let bye = c
        .request(&Json::Obj(vec![("type".into(), Json::str("shutdown"))]))
        .expect("shutdown request");
    assert_eq!(bye.get("type").and_then(Json::as_str), Some("bye"));
    handle.join().expect("daemon thread");
    assert!(!socket.exists(), "daemon left its socket file behind");
}

#[test]
fn served_sweep_is_byte_identical_to_local() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let cache = tmp_path("ident-cache");
    let (socket, handle) = start_server("ident", |cfg| cfg.cache_dir = Some(cache.clone()));

    let s = spec(
        &["mcf"],
        vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
        tiny(),
    );
    let served = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&s)
        .expect("served sweep");
    assert_eq!(served.failed, 0);

    let local = s
        .experiment()
        .expect("experiment")
        .run()
        .expect("local sweep");
    assert_eq!(
        served.doc,
        local.to_json(),
        "served document diverged from the local one"
    );

    shut_down(&socket, handle);
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn overlapping_concurrent_submissions_are_single_flighted() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let (socket, handle) = start_server("flight", |_| {});

    // A grid no other test uses (distinct seed ⇒ distinct content keys),
    // so the memoizer is guaranteed cold for exactly these cells.
    let s = spec(
        &["mcf"],
        vec![MechanismSpec::baseline(), MechanismSpec::chargecache()],
        ExpParams {
            seed: 777,
            ..tiny()
        },
    );
    api::clear_run_cache();
    let before = api::run_cache_executions();
    let docs: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let socket = &socket;
                let s = &s;
                scope.spawn(move || {
                    Client::connect(socket)
                        .expect("connect")
                        .run_sweep(s)
                        .expect("served sweep")
                        .doc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let executed = api::run_cache_executions() - before;
    assert_eq!(
        executed, 2,
        "three overlapping submissions of a 2-cell grid must simulate each cell once"
    );
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[1], docs[2]);

    shut_down(&socket, handle);
}

#[test]
fn bounded_queue_and_client_quota_reject_with_typed_errors() {
    let (socket, handle) = start_server("quota", |cfg| cfg.client_quota = 2);
    let err = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny()))
        .expect_err("a 5-cell submit must exceed a quota of 2");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "client-quota"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }
    shut_down(&socket, handle);

    let (socket, handle) = start_server("depth", |cfg| cfg.queue_depth = 1);
    let err = Client::connect(&socket)
        .expect("connect")
        .run_sweep(&spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny()))
        .expect_err("a 5-cell submit must exceed a queue depth of 1");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "queue-full"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }
    shut_down(&socket, handle);
}

#[test]
fn cancel_and_unknown_job_answer_typed_responses() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let (socket, handle) = start_server("cancel", |cfg| cfg.threads = 1);
    let mut c = Client::connect(&socket).expect("connect");

    // Cancelling a job this connection never submitted is a typed error.
    let err = c
        .request(&Json::Obj(vec![
            ("type".into(), Json::str("cancel")),
            ("job".into(), Json::str("j999")),
        ]))
        .expect_err("cancel of a foreign job must be rejected");
    match err {
        ClientError::Daemon { code, .. } => assert_eq!(code, "unknown-job"),
        other => panic!("expected a typed daemon rejection, got {other:?}"),
    }

    // Submit, then cancel immediately. Depending on worker timing the
    // job is either still live (`cancelled`) or already finished
    // (`unknown-job`); both are valid protocol outcomes, and the
    // connection must stay usable either way.
    let s = spec(&["mcf"], MechanismSpec::paper_all().to_vec(), tiny());
    c.send(&Json::Obj(vec![
        ("type".into(), Json::str("submit")),
        ("sweep".into(), s.to_json()),
    ]))
    .expect("submit");
    let accepted = c.recv().expect("accepted");
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    let job = accepted
        .get("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    c.send(&Json::Obj(vec![
        ("type".into(), Json::str("cancel")),
        ("job".into(), Json::str(&job)),
    ]))
    .expect("cancel");
    // Drain interleaved cell traffic until the cancel's answer arrives.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "cancel answer never arrived");
        let resp = c.recv().expect("response");
        match resp.get("type").and_then(Json::as_str) {
            Some("cell" | "done") => continue,
            Some("cancelled") => {
                assert_eq!(resp.get("job").and_then(Json::as_str), Some(job.as_str()));
                break;
            }
            Some("error") => {
                assert_eq!(resp.get("code").and_then(Json::as_str), Some("unknown-job"));
                break;
            }
            other => panic!("unexpected response type {other:?}"),
        }
    }
    // The connection is still in sync after the cancel.
    let status = c
        .request(&Json::Obj(vec![("type".into(), Json::str("status"))]))
        .expect("status");
    assert_eq!(status.get("type").and_then(Json::as_str), Some("status"));

    shut_down(&socket, handle);
}

/// Seeded protocol fuzz: random garbage, truncated lines, binary junk
/// and oversized requests must each produce a typed `error` (or a clean
/// drop), never a hang or a daemon panic — and a valid request
/// afterwards must still be answered (the framing resynchronizes).
#[test]
fn protocol_fuzz_yields_typed_errors_and_never_hangs() {
    let (socket, handle) = start_server("fuzz", |_| {});
    let mut rng = TraceRng::seed_from_u64(0xCC51);

    for round in 0..40 {
        let stream = UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let kind = rng.below(4);
        match kind {
            // Random printable garbage lines (prefixed so the line is
            // never all-whitespace, which the daemon skips silently).
            0 => {
                let n = rng.range_inclusive(1, 64) as usize;
                let line: String = std::iter::once('g')
                    .chain((0..n).map(|_| (b' ' + rng.below(94) as u8) as char))
                    .collect();
                writeln!(writer, "{line}").unwrap();
            }
            // Well-formed JSON of the wrong shape.
            1 => {
                writeln!(writer, "{}", Json::Arr(vec![Json::uint(rng.next_u64())])).unwrap();
            }
            // Binary junk (0xFF prefix: never blank, never valid UTF-8
            // JSON), newline-terminated.
            2 => {
                let n = rng.range_inclusive(1, 256) as usize;
                let mut bytes = vec![0xFFu8];
                bytes.extend((0..n).map(|_| rng.below(256) as u8));
                bytes.retain(|b| *b != b'\n');
                bytes.push(b'\n');
                writer.write_all(&bytes).unwrap();
            }
            // An oversized line, then a valid request behind it.
            _ => {
                let big = vec![b'z'; simd::MAX_REQUEST_BYTES + 17];
                writer.write_all(&big).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        }
        let mut line = String::new();
        reader.read_line(&mut line).expect("typed error response");
        let resp =
            parse(&line).unwrap_or_else(|e| panic!("round {round}: bad response {line:?}: {e}"));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("error"),
            "round {round}: garbage must be answered with a typed error"
        );
        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
        assert!(
            ["parse", "bad-request", "bad-spec", "oversized"].contains(&code),
            "round {round}: unexpected error code {code:?}"
        );
        // The stream is resynchronized: a valid request still works.
        writeln!(
            writer,
            "{}",
            Json::Obj(vec![("type".into(), Json::str("status"))])
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("status after garbage");
        let resp = parse(&line).expect("status response parses");
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("status"));
    }

    // Truncated request (no newline) followed by EOF: the daemon must
    // answer nothing fatal and drop the connection cleanly.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"{\"type\":\"stat").unwrap();
        drop(writer);
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read after truncation");
        if !line.is_empty() {
            let resp = parse(&line).expect("response parses");
            assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
        }
    }

    shut_down(&socket, handle);
}

/// One raw protocol connection whose reads time out, so a frame the
/// daemon never sends fails the test instead of hanging it.
struct Raw {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Raw {
    fn connect(socket: &PathBuf) -> Raw {
        let stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set read timeout");
        Raw {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, request: Vec<(&str, Json)>) {
        let request = Json::Obj(request.into_iter().map(|(k, v)| (k.into(), v)).collect());
        writeln!(self.writer, "{request}").expect("send request");
    }

    /// The next frame and its `type`.
    fn recv(&mut self) -> (Json, String) {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("a frame before the read timeout");
        assert!(n > 0, "daemon closed the connection");
        let frame = parse(&line).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"));
        let ty = member(&frame, "type");
        (frame, ty)
    }
}

fn member(frame: &Json, key: &str) -> String {
    frame
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("frame {frame} has no string {key:?}"))
        .to_string()
}

fn count(frame: &Json, key: &str) -> usize {
    frame
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("frame {frame} has no number {key:?}")) as usize
}

/// One connection's jobs, checked frame by frame against the per-job
/// grammar `accepted cell* (done|aborted|cancelled)` with exactly one
/// `cell` per index.
#[derive(Default)]
struct JobGrammar {
    /// Job id → (indices streamed so far, terminal frame type).
    jobs: HashMap<String, (Vec<bool>, Option<String>)>,
}

impl JobGrammar {
    fn feed(&mut self, frame: &Json, ty: &str) {
        let job = member(frame, "job");
        if ty == "accepted" {
            let fresh = vec![false; count(frame, "cells")];
            assert!(
                self.jobs.insert(job.clone(), (fresh, None)).is_none(),
                "job {job} accepted twice"
            );
            return;
        }
        let (seen, end) = self
            .jobs
            .get_mut(&job)
            .unwrap_or_else(|| panic!("{ty} for job {job} before its accepted"));
        assert!(end.is_none(), "{ty} for job {job} after its {end:?}");
        match ty {
            "cell" => {
                let i = count(frame, "index");
                assert!(i < seen.len(), "job {job} streamed out-of-range cell {i}");
                assert!(!seen[i], "job {job} streamed cell {i} twice");
                seen[i] = true;
            }
            "done" => {
                assert!(
                    seen.iter().all(|s| *s),
                    "job {job} reported done before streaming every cell"
                );
                *end = Some(ty.into());
            }
            "cancelled" | "aborted" => *end = Some(ty.into()),
            other => panic!("unexpected frame type {other:?} for job {job}"),
        }
    }

    fn open_jobs(&self) -> usize {
        self.jobs.values().filter(|(_, end)| end.is_none()).count()
    }
}

/// Several clients submit overlapping grids to a 4-worker daemon, two
/// jobs in flight per connection, and cancel some jobs mid-stream. Every
/// job's frames must follow the per-job grammar — in particular no
/// `cell` may arrive after its job's `done` or `cancelled`.
#[test]
fn concurrent_jobs_each_stream_the_per_job_grammar() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 40;
    let _guard = CACHE_LOCK.lock().unwrap();
    let (socket, handle) = start_server("grammar", |cfg| cfg.threads = 4);
    let subjects = ["mcf", "tpch2", "bzip2", "soplex"];
    let start = Barrier::new(CLIENTS);
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (socket, start) = (&socket, &start);
            scope.spawn(move || {
                let mut raw = Raw::connect(socket);
                let mut grammar = JobGrammar::default();
                start.wait();
                for round in 0..ROUNDS {
                    // Every client submits the same two overlapping
                    // grids per round (one seed per round, so each
                    // round has cold cells to single-flight).
                    let params = ExpParams {
                        insts_per_core: 500,
                        warmup_insts: 100,
                        seed: 9000 + round as u64,
                        ..ExpParams::tiny()
                    };
                    for grid in [&subjects[..3], &subjects[1..]] {
                        let s = spec(grid, MechanismSpec::paper_all().to_vec(), params);
                        raw.send(vec![("type", Json::str("submit")), ("sweep", s.to_json())]);
                    }
                    let cancel = (client + round) % 3 == 0;
                    let (mut accepted, mut cancel_answered) = (0, !cancel);
                    while accepted < 2 || grammar.open_jobs() > 0 || !cancel_answered {
                        let (frame, ty) = raw.recv();
                        if ty == "error" {
                            // Only a cancel racing its job's `done` errs.
                            assert_eq!(member(&frame, "code"), "unknown-job", "{frame}");
                            cancel_answered = true;
                            continue;
                        }
                        grammar.feed(&frame, &ty);
                        if ty == "cancelled" {
                            cancel_answered = true;
                        }
                        if ty == "accepted" {
                            accepted += 1;
                            if cancel && accepted == 1 {
                                let job = member(&frame, "job");
                                raw.send(vec![
                                    ("type", Json::str("cancel")),
                                    ("job", Json::str(job)),
                                ]);
                            }
                        }
                    }
                }
            });
        }
    });
    shut_down(&socket, handle);
}

/// Open/closed flag that every `gated` mechanism build waits on.
static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

fn set_gate(open: bool) {
    *GATE.0.lock().unwrap() = open;
    GATE.1.notify_all();
}

/// `gated`: Baseline timings, but `build` waits until the test opens
/// [`GATE`], so the test decides when a running cell may proceed.
struct GatedFactory;

impl MechanismFactory for GatedFactory {
    fn name(&self) -> &str {
        "gated"
    }
    fn describe(&self) -> &str {
        "test double: Baseline whose build waits for the test's gate"
    }
    fn validate(&self, spec: &MechanismSpec) -> Result<(), String> {
        spec.ensure_known_keys(&[])
    }
    fn build(
        &self,
        spec: &MechanismSpec,
        ctx: &MechanismContext,
    ) -> Result<Box<dyn LatencyMechanism>, String> {
        self.validate(spec)?;
        let mut open = GATE.0.lock().unwrap();
        while !*open {
            open = GATE.1.wait(open).unwrap();
        }
        Ok(Box::new(Baseline::new(ctx.timing)))
    }
}

/// Opens [`GATE`] however the test ends, so a failed assertion cannot
/// leave the daemon's worker blocked.
struct OpenGateOnDrop;

impl Drop for OpenGateOnDrop {
    fn drop(&mut self) {
        set_gate(true);
    }
}

/// `shutdown` reports each dropped job on the connection that submitted
/// it: the submitter reads `aborted` for its own job, and the client
/// that asked for the shutdown reads only `bye`.
#[test]
fn shutdown_reports_aborted_jobs_to_their_own_clients() {
    let _guard = CACHE_LOCK.lock().unwrap();
    registry::register_mechanism(Arc::new(GatedFactory));
    set_gate(false);
    let _open = OpenGateOnDrop;
    let (socket, handle) = start_server("abort", |cfg| cfg.threads = 1);
    // The one worker takes the grid's first cell and blocks in its
    // `gated` build, so the other four cells are queued when the
    // shutdown arrives (or all five are, if it has not started yet).
    let mut mechanisms = vec![MechanismSpec::new("gated")];
    mechanisms.extend(MechanismSpec::paper_all().into_iter().take(4));
    let s = spec(&["mcf"], mechanisms, tiny());
    let mut a = Raw::connect(&socket);
    a.send(vec![("type", Json::str("submit")), ("sweep", s.to_json())]);
    let (accepted, ty) = a.recv();
    assert_eq!(ty, "accepted", "{accepted}");
    let job = member(&accepted, "job");

    let mut b = Raw::connect(&socket);
    b.send(vec![("type", Json::str("shutdown"))]);
    let (aborted, ty) = a.recv();
    assert_eq!(ty, "aborted", "the submitter read {aborted}");
    assert_eq!(member(&aborted, "job"), job);

    // The drain waits for the running cell: let it finish.
    set_gate(true);
    let (first, ty) = b.recv();
    assert_eq!(ty, "bye", "the shutdown requester read {first}");
    handle.join().expect("daemon thread");
}

// ---------------------------------------------------------------------------
// Subprocess: kill the daemon mid-sweep, restart, resume from cache
// ---------------------------------------------------------------------------

fn bin(name: &str) -> &'static str {
    match name {
        "cc-sim" => env!("CARGO_BIN_EXE_cc-sim"),
        "cc-simd" => env!("CARGO_BIN_EXE_cc-simd"),
        other => panic!("unknown binary {other}"),
    }
}

/// Waits until the daemon actually accepts connections — a stale socket
/// file left by a SIGKILLed predecessor exists but refuses connects, so
/// file existence alone is not readiness.
fn wait_for_socket(path: &PathBuf) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became reachable");
        thread::sleep(Duration::from_millis(20));
    }
}

fn spawn_daemon(socket: &PathBuf, cache: &PathBuf) -> Child {
    let child = Command::new(bin("cc-simd"))
        .args(["serve", "--socket"])
        .arg(socket)
        .arg("--cache-dir")
        .arg(cache)
        .args(["--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cc-simd");
    wait_for_socket(socket);
    child
}

const RUN_FLAGS: &[&str] = &[
    "run",
    "--workload",
    "tpch2",
    "--json",
    "--insts",
    "3000",
    "--warmup",
    "500",
    "--seed",
    "11",
];

#[test]
fn killed_daemon_restarts_and_serves_finished_cells_from_cache() {
    let socket = tmp_path("kill-sock");
    let cache = tmp_path("kill-cache");

    // Phase 1: serve one baseline-only sweep to completion, so at least
    // one cell is guaranteed persisted before the crash.
    let mut daemon = spawn_daemon(&socket, &cache);
    let first = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "baseline", "--server"])
        .arg(&socket)
        .output()
        .expect("run cc-sim");
    assert!(
        first.status.success(),
        "baseline served sweep failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    // Phase 2: start the full five-mechanism sweep and kill the daemon
    // mid-flight (SIGKILL: no drain, no cleanup — the cache's atomic
    // stores are all that protects the directory).
    let mut client = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--server"])
        .arg(&socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cc-sim");
    thread::sleep(Duration::from_millis(150));
    daemon.kill().expect("kill daemon");
    daemon.wait().expect("reap daemon");
    let _ = client.wait(); // fails; the daemon died under it

    // Phase 3: a restarted daemon must replace the stale socket file,
    // serve the same sweep from the surviving cache entries, and match
    // the direct (non-served) output byte for byte.
    let mut daemon = spawn_daemon(&socket, &cache);
    let served = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--server"])
        .arg(&socket)
        .output()
        .expect("run cc-sim");
    assert!(
        served.status.success(),
        "served sweep after restart failed: {}",
        String::from_utf8_lossy(&served.stderr)
    );

    // The daemon's cache saw hits: the phase-1 baseline cell (at least)
    // was served from disk, not re-simulated.
    let status = Command::new(bin("cc-simd"))
        .args(["status", "--socket"])
        .arg(&socket)
        .output()
        .expect("cc-simd status");
    let status_json = parse(String::from_utf8_lossy(&status.stdout).trim()).expect("status JSON");
    let hits = status_json
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_num)
        .expect("cache hits counter");
    assert!(
        hits >= 1.0,
        "restarted daemon re-simulated every cell (hits={hits}); status: {status_json}"
    );

    // Direct run against the same cache directory: byte-identical.
    let direct = Command::new(bin("cc-sim"))
        .args(RUN_FLAGS)
        .args(["--mechanism", "all", "--cache-dir"])
        .arg(&cache)
        .output()
        .expect("run cc-sim directly");
    assert!(
        direct.status.success(),
        "direct sweep failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "served and direct documents diverged"
    );

    // Clean shutdown this time: the socket file must be removed.
    let bye = Command::new(bin("cc-simd"))
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .expect("cc-simd shutdown");
    assert!(bye.status.success());
    daemon.wait().expect("daemon exits after shutdown");
    let deadline = Instant::now() + Duration::from_secs(10);
    while socket.exists() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    assert!(!socket.exists(), "daemon left its socket file behind");

    let _ = fs::remove_dir_all(&cache);
}
