//! The `served_durable` workload: a `cc-simd` daemon with two workers, a
//! disk cache and checkpoints, driven by this process as one closed-loop
//! client (the next request is sent only after the previous job's `done`).

use std::io::{BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sim::api::assemble_sweep_json;
use sim::json::Json;
use simd::proto::{read_frame, Frame};
use simd::SweepSpec;

use crate::calib::Probes;
use crate::grid::{self, Workload};
use crate::local::{Fingerprint, CKPT_EXIT_CODE};
use crate::util::{self, num, obj, str_list};
use crate::{Ledger, Report, Samples};

/// Daemon worker threads: the host's two vCPUs.
const WORKERS: &str = "2";
/// Fewest measuring iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// Set-up-only daemon starts per iteration, on top of the cold/warm
/// cycle's two.
const SETUP_STARTS: usize = 2;
/// Submissions of one job before its duplicated cells fail the run.
const MAX_SUBMITS: usize = 3;
/// Longest wait for any one daemon response (or exit).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon and this client's connection to it.
struct Daemon {
    child: Child,
    conn: Conn,
    /// Spawn until the socket accepted a connection.
    listening: Duration,
}

/// One newline-delimited JSON connection to the daemon, with a bounded
/// wait on every response so a stalled daemon fails the run instead of
/// hanging it.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects as soon as the daemon listens, polling finely so the wait
    /// adds no backoff quantum of its own to the start-up time.
    fn connect(socket: &Path, child: &mut Child) -> Result<Conn, String> {
        let start = Instant::now();
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e)
                    if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused) =>
                {
                    if start.elapsed() > RESPONSE_TIMEOUT
                        || child.try_wait().ok().flatten().is_some()
                    {
                        return Err(format!(
                            "cc-simd never listened on {}: {e}",
                            socket.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("connect {}: {e}", socket.display())),
            }
        };
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, request: &Json) -> Result<(), String> {
        let line = format!("{request}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(Frame::Line(l))) => {
                sim::json::parse(&l).map_err(|e| format!("bad response: {e}"))
            }
            Ok(Some(Frame::Oversized { discarded })) => {
                Err(format!("oversized response of {discarded} bytes"))
            }
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends a one-word request and returns the response of type
    /// `expect`, skipping stale traffic of earlier jobs (a cell can land
    /// after its job's `done`: the ordering race this benchmark counts).
    fn request(&mut self, kind: &str, expect: &str) -> Result<Json, String> {
        self.send(&obj(vec![("type", Json::str(kind))]))?;
        self.recv_type(expect)
    }

    fn recv_type(&mut self, expect: &str) -> Result<Json, String> {
        loop {
            let resp = self.recv()?;
            match util::text(&resp, "type").as_str() {
                t if t == expect => return Ok(resp),
                "cell" | "done" => continue,
                _ => return Err(format!("expected {expect}, got {resp}")),
            }
        }
    }
}

/// Client-side timings and counts of the daemon lifetimes and jobs of a run.
#[derive(Default)]
pub struct SimdStats {
    pub spawn_ms: Vec<f64>,
    pub accept_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub cell_gap_ms: Vec<f64>,
    /// Jobs whose `done` arrived before all of their cells, or that
    /// streamed a cell twice.
    pub protocol_errors: u64,
    /// Cells that arrived after their job's `done`.
    pub cells_after_done: u64,
    /// Cells the cold phases simulated (daemon cache misses).
    pub simulated: u64,
    /// Cells the warm phases loaded from disk.
    pub disk_hits: u64,
    /// Resume jobs that restarted from a checkpoint and completed.
    pub resumed: u64,
}

/// One finished job as the client saw it.
struct Job {
    doc: String,
    failed_cells: u64,
    elapsed_s: f64,
}

impl Daemon {
    /// Spawns `cc-simd serve` and waits until it answers `status`.
    /// `cc-simd` polls `accept` every 20 ms, so the answer comes either
    /// at once or one poll later: the whole wait (`simd.spawn_ms`) is
    /// bimodal, while the time until the socket listens is not.
    fn start(
        simd: &Path,
        dir: &Path,
        fault: Option<&str>,
        times: &mut SimdStats,
    ) -> Result<Daemon, String> {
        let socket = dir.join("d.sock");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let start = Instant::now();
        let mut cmd = Command::new(simd);
        cmd.args(["serve", "--threads", WORKERS, "--checkpoint-interval"])
            .arg(grid::CHECKPOINT_INTERVAL.to_string())
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir)
            .env_remove("CC_FAULT_INJECTION")
            .env_remove("CC_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(f) = fault {
            cmd.env("CC_FAULT_INJECTION", f);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", simd.display()))?;
        let mut listening = Duration::ZERO;
        let answered = Conn::connect(&socket, &mut child).and_then(|mut conn| {
            listening = start.elapsed();
            conn.request("status", "status").map(|_| conn)
        });
        match answered {
            Ok(conn) => {
                times.spawn_ms.push(start.elapsed().as_secs_f64() * 1e3);
                Ok(Daemon {
                    child,
                    conn,
                    listening,
                })
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn status(&mut self) -> Json {
        self.conn.request("status", "status").unwrap_or(Json::Null)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drains the daemon and waits (boundedly) for it to exit.
    fn shutdown(mut self, ledger: &mut Ledger) {
        let bye = self.conn.request("shutdown", "bye");
        let exited = self.wait_exit();
        ledger.check(exited.is_some() && bye.is_ok(), || {
            format!("cc-simd shutdown failed: {bye:?}")
        });
    }

    /// Waits up to the response timeout for the daemon to exit, killing
    /// it if it does not; its exit code, if it exited by itself.
    fn wait_exit(&mut self) -> Option<i32> {
        let start = Instant::now();
        while start.elapsed() < RESPONSE_TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.code();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        None
    }

    /// Submits `spec` and waits until `done` and every cell arrived. A job
    /// whose `done` overtakes a cell is a protocol error, counted; a job
    /// that streams a cell twice is one too, and is resubmitted.
    fn run(
        &mut self,
        spec: &SweepSpec,
        times: &mut SimdStats,
        ledger: &mut Ledger,
    ) -> Result<Job, String> {
        let start = Instant::now();
        for _ in 0..MAX_SUBMITS {
            let submitted = Instant::now();
            self.conn.send(&obj(vec![
                ("type", Json::str("submit")),
                ("sweep", spec.to_json()),
            ]))?;
            let accepted = self.conn.recv_type("accepted")?;
            times
                .accept_ms
                .push(submitted.elapsed().as_secs_f64() * 1e3);
            let job = util::text(&accepted, "job");
            let total = num(&accepted, "cells") as usize;
            let mut cells: Vec<Option<Json>> = vec![None; total];
            let mut duplicates = 0;
            let mut last = Instant::now();
            let mut first = true;
            let mut done: Option<u64> = None;
            // The daemon sends a job's `cell` and `done` frames after
            // releasing its state lock, so another worker's earlier cell
            // can land after `done` (ROADMAP item 1). Such a job is a
            // protocol error; its late cells are still awaited, because
            // the job is only complete once every cell arrived.
            let failed_cells = loop {
                if let Some(failed) = done {
                    if cells.iter().all(Option::is_some) {
                        break failed;
                    }
                }
                let resp = self.conn.recv()?;
                if util::text(&resp, "job") != job {
                    continue;
                }
                match util::text(&resp, "type").as_str() {
                    "cell" => {
                        let now = Instant::now();
                        if done.is_some() {
                            times.cells_after_done += 1;
                        } else if first {
                            times
                                .queue_wait_ms
                                .push((now - submitted).as_secs_f64() * 1e3);
                            first = false;
                        } else {
                            times.cell_gap_ms.push((now - last).as_secs_f64() * 1e3);
                        }
                        last = now;
                        let index = num(&resp, "index") as usize;
                        match cells.get_mut(index) {
                            Some(slot @ None) => *slot = resp.get("cell").cloned(),
                            _ => duplicates += 1,
                        }
                    }
                    "done" if done.is_none() => {
                        if cells.iter().any(Option::is_none) {
                            times.protocol_errors += 1;
                        }
                        done = Some(num(&resp, "failed") as u64);
                    }
                    other => return Err(format!("job {job} ended with {other}")),
                }
            };
            ledger.check(duplicates == 0, || {
                format!("job {job} streamed {duplicates} duplicate cells")
            });
            if duplicates > 0 {
                times.protocol_errors += 1;
                ledger.retried += 1;
                continue;
            }
            let doc = assemble_sweep_json(
                &spec.params,
                &str_list(&accepted, "families"),
                &str_list(&accepted, "timings"),
                &str_list(&accepted, "mechanisms"),
                &str_list(&accepted, "variants"),
                Json::Null,
                cells
                    .into_iter()
                    .map(|c| c.expect("every cell present"))
                    .collect(),
            );
            return Ok(Job {
                doc,
                failed_cells,
                elapsed_s: start.elapsed().as_secs_f64(),
            });
        }
        Err(format!(
            "{MAX_SUBMITS} submissions never streamed every cell"
        ))
    }
}

fn cache_stat(status: &Json, key: &str) -> u64 {
    status.get("cache").map_or(0.0, |c| num(c, key)) as u64
}

/// What the served documents must equal, computed in-process outside
/// every timed phase.
struct Reference {
    doc: String,
    resume_doc: String,
    insts: u64,
    cells: u64,
}

/// Parent: the whole served workload for one run. Every iteration of the
/// measuring window takes set-up-only daemon starts, one cold/warm cycle
/// and one kill-and-resume; `iterations` caps them (a traced run needs
/// one).
pub fn run(
    simd: &Path,
    seed: u64,
    seconds: u64,
    iterations: usize,
    scratch: &Path,
    times: &mut SimdStats,
    ledger: &mut Ledger,
) -> Report {
    let w = Workload::ServedDurable;
    let sweep = grid::experiment(w, seed).run().expect("valid served grid");
    let fp = Fingerprint::of(&sweep, &[]);
    let p = grid::params(seed);
    let reference = Reference {
        doc: sweep.to_json(),
        resume_doc: grid::resume_experiment(w, seed)
            .run()
            .expect("valid resume job")
            .to_json(),
        insts: sweep
            .cells
            .iter()
            .filter(|c| c.is_ok())
            .map(|c| grid::simulated_insts(c.result(), &p))
            .sum(),
        cells: sweep.cells.len() as u64,
    };
    let mut r = Report {
        cc_speedup_pct: grid::cc_speedup_pct(&sweep).unwrap_or(f64::NAN),
        fingerprint: fp.digest(),
        cells: fp.labels.len(),
        ..Report::default()
    };
    let mut probes = Probes::start();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut done = 0;
    while done < iterations && (done < MIN_ITERATIONS || Instant::now() < deadline) {
        done += 1;
        let mut phase = Samples::default();
        for rep in 0..SETUP_STARTS {
            let dir = scratch.join(format!("setup{done}-{rep}"));
            if let Some((_, d, setup)) = set_up(simd, seed, &dir, times, ledger) {
                phase.setup_s.push(setup);
                d.shutdown(ledger);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = scratch.join(format!("cold{done}"));
        cold_warm(simd, seed, &dir, &reference, &mut phase, times, ledger);
        let _ = std::fs::remove_dir_all(&dir);
        r.add(phase, probes.next());

        let mut phase = Samples::default();
        let dir = scratch.join(format!("resume{done}"));
        resume(simd, seed, &dir, &reference, &mut phase, times, ledger);
        let _ = std::fs::remove_dir_all(&dir);
        r.add(phase, probes.next());
    }
    r.probe_s = probes.times;
    r
}

/// A cold sweep on a fresh daemon over an empty cache directory, then a
/// warm one on a restarted daemon (empty memoizer) over the same
/// directory.
fn cold_warm(
    simd: &Path,
    seed: u64,
    dir: &Path,
    reference: &Reference,
    r: &mut Samples,
    times: &mut SimdStats,
    ledger: &mut Ledger,
) {
    let cells = reference.cells;
    let Some((spec, mut d, setup)) = set_up(simd, seed, dir, times, ledger) else {
        return;
    };
    r.setup_s.push(setup);
    match d.run(&spec, times, ledger) {
        Ok(job) => {
            ledger.count_cells(cells, job.failed_cells);
            r.sweep_s.push(job.elapsed_s);
            r.minst_per_s
                .push(reference.insts as f64 / job.elapsed_s / 1e6);
            ledger.check(job.doc == reference.doc, || {
                "served document differs from the local run".into()
            });
        }
        Err(e) => ledger.fail(format!("cold submit: {e}")),
    }
    if let Some(rss) = util::vmhwm_mib(&d.pid()) {
        r.peak_rss_mb.push(rss);
    }
    let misses = cache_stat(&d.status(), "misses");
    times.simulated += misses;
    ledger.check(misses == cells, || {
        format!("cold phase simulated {misses} cells, expected {cells}")
    });
    d.shutdown(ledger);

    let Some((spec, mut d, setup)) = set_up(simd, seed, dir, times, ledger) else {
        return;
    };
    r.setup_s.push(setup);
    match d.run(&spec, times, ledger) {
        Ok(job) => {
            ledger.count_cells(cells, job.failed_cells);
            r.warm_ms.push(job.elapsed_s * 1e3);
            ledger.check(job.doc == reference.doc, || {
                "warm document differs from the cold one".into()
            });
        }
        Err(e) => ledger.fail(format!("warm submit: {e}")),
    }
    let status = d.status();
    let (hits, misses) = (cache_stat(&status, "hits"), cache_stat(&status, "misses"));
    times.disk_hits += hits;
    ledger.check(hits == cells && misses == 0, || {
        format!("warm phase had {hits} disk hits and {misses} misses, expected {cells} and 0")
    });
    d.shutdown(ledger);
}

/// One eight-core cell: the daemon dies right after its first checkpoint
/// store, restarts on the same directory, and the job is resubmitted;
/// `resume_s` runs from the restart to `done`.
fn resume(
    simd: &Path,
    seed: u64,
    dir: &Path,
    reference: &Reference,
    r: &mut Samples,
    times: &mut SimdStats,
    ledger: &mut Ledger,
) {
    let spec = grid::resume_spec(seed);
    let fault = format!(
        "ckpt-exit={}",
        grid::resume_kill_at(Workload::ServedDurable)
    );
    let mut d = match Daemon::start(simd, dir, Some(&fault), times) {
        Ok(d) => d,
        Err(e) => return ledger.fail(e),
    };
    let killed = d.run(&spec, times, ledger);
    let code = d.wait_exit();
    ledger.check(killed.is_err() && code == Some(CKPT_EXIT_CODE), || {
        format!("killed daemon exited with {code:?}, expected {CKPT_EXIT_CODE}")
    });
    let ckpts = util::files_with_suffix(dir, ".ckpt");
    ledger.check(ckpts == 1, || {
        format!("resume started with {ckpts} checkpoint files, expected 1")
    });
    let t = Instant::now();
    let mut d = match Daemon::start(simd, dir, None, times) {
        Ok(d) => d,
        Err(e) => return ledger.fail(e),
    };
    match d.run(&spec, times, ledger) {
        Ok(job) => {
            ledger.count_cells(1, job.failed_cells);
            r.resume_s.push(t.elapsed().as_secs_f64());
            times.resumed += u64::from(ckpts == 1);
            ledger.check(job.doc == reference.resume_doc, || {
                "resumed document differs from an uninterrupted run".into()
            });
        }
        Err(e) => ledger.fail(format!("resume submit: {e}")),
    }
    d.shutdown(ledger);
}

/// Set-up of one daemon lifetime: the client builds and plans its grid,
/// then spawns `cc-simd`; set-up ends when the daemon's socket accepts a
/// connection (see [`Daemon::start`] for why not at its first answer).
/// Returns the spec, the daemon and the set-up seconds.
fn set_up(
    simd: &Path,
    seed: u64,
    dir: &Path,
    times: &mut SimdStats,
    ledger: &mut Ledger,
) -> Option<(SweepSpec, Daemon, f64)> {
    let start = Instant::now();
    let spec = grid::served_spec(seed);
    let planned = spec.experiment().and_then(|e| e.plan().map_err(|e| e.0));
    ledger.check(planned.is_ok(), || "served grid does not plan".into());
    let plan_s = start.elapsed().as_secs_f64();
    match Daemon::start(simd, dir, None, times) {
        Ok(d) => {
            let setup = plan_s + d.listening.as_secs_f64();
            Some((spec, d, setup))
        }
        Err(e) => {
            ledger.fail(e);
            None
        }
    }
}
