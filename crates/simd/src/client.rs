//! Blocking client for the `cc-simd` daemon.
//!
//! [`Client::run_sweep`] submits one [`SweepSpec`] and blocks until the
//! daemon has streamed every cell, then reassembles the grid into a
//! `chargecache-sweep/v5` document through the same
//! [`sim::assemble_sweep_json`] the local path uses — so a served sweep
//! is byte-identical to `Experiment::run(...).to_json()` of the same
//! grid (the `alone_ipc` member is `null` on both paths: specs carry no
//! alone-IPC request).

use std::fmt;
use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use sim::assemble_sweep_json;
use sim::json::Json;
use sim::ExpParams;

use crate::proto::{read_frame, Frame, MAX_REQUEST_BYTES};
use crate::spec::SweepSpec;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read or write).
    Io(io::Error),
    /// The daemon's stream violated the protocol: unexpected frame,
    /// connection closed mid-job, malformed or out-of-range response.
    Protocol(String),
    /// A typed `error` response from the daemon.
    Daemon {
        /// The wire error code (see [`crate::proto::ErrorCode`]).
        code: String,
        /// The daemon's human-readable explanation.
        message: String,
    },
    /// The daemon shut down and dropped part of the job.
    Aborted {
        /// The aborted job id.
        job: String,
        /// Cells dropped before they could run.
        dropped: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Daemon { code, message } => {
                write!(f, "daemon refused the request ({code}): {message}")
            }
            ClientError::Aborted { job, dropped } => {
                write!(f, "daemon shut down; job {job} lost {dropped} cell(s)")
            }
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A completed served sweep, reassembled client-side.
#[derive(Debug, Clone)]
pub struct ServedSweep {
    /// The daemon's job id.
    pub job: String,
    /// Cells whose simulation failed (they carry `error` objects in the
    /// document, exactly like a local sweep).
    pub failed: u64,
    /// The complete `chargecache-sweep/v5` document.
    pub doc: String,
}

/// One connection to a `cc-simd` daemon.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// Connection attempts before [`Client::connect`] gives up.
const CONNECT_ATTEMPTS: u32 = 5;

/// Backoff before the second connection attempt; doubles per retry
/// (10 ms, 20 ms, 40 ms, 80 ms — 150 ms worst case in total).
const CONNECT_BACKOFF_MS: u64 = 10;

impl Client {
    /// Connects to the daemon socket, retrying with bounded exponential
    /// backoff when the daemon is not (yet) accepting.
    ///
    /// A freshly spawned `cc-simd` takes a moment to bind its socket, so
    /// a missing socket file or a refused connection is retried up to
    /// five times, sleeping 10 ms and
    /// doubling between attempts. Any other error — permissions, a path
    /// that is not a socket — fails immediately, and so does the final
    /// attempt: the worst case adds ~150 ms before the caller sees the
    /// same `io::Error` a single attempt would have produced.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        let socket = socket.as_ref();
        let mut backoff = std::time::Duration::from_millis(CONNECT_BACKOFF_MS);
        let mut attempt = 1;
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e)
                    if attempt < CONNECT_ATTEMPTS
                        && matches!(
                            e.kind(),
                            io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound
                        ) =>
                {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request object (one line on the wire).
    pub fn send(&mut self, request: &Json) -> Result<(), ClientError> {
        writeln!(self.writer, "{request}").map_err(ClientError::Io)
    }

    /// Receives one response object. EOF and malformed frames are
    /// [`ClientError::Protocol`]; `error` responses are *not* converted
    /// here (streams interleave them with job traffic — callers decide).
    pub fn recv(&mut self) -> Result<Json, ClientError> {
        match read_frame(&mut self.reader)? {
            None => Err(ClientError::Protocol(
                "daemon closed the connection".into(),
            )),
            Some(Frame::Oversized { discarded }) => Err(ClientError::Protocol(format!(
                "daemon response of {discarded} bytes exceeds the {MAX_REQUEST_BYTES} byte frame bound"
            ))),
            Some(Frame::Line(l)) => sim::json::parse(&l)
                .map_err(|e| ClientError::Protocol(format!("unparseable daemon response: {e}"))),
        }
    }

    /// Sends one request and returns its single response, converting a
    /// typed `error` answer into [`ClientError::Daemon`]. For
    /// `status`/`gc`/`cancel`/`shutdown`-style requests with exactly one
    /// response; not for `submit` (use [`Client::run_sweep`]).
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        self.send(request)?;
        let resp = self.recv()?;
        match daemon_error(&resp) {
            Some(e) => Err(e),
            None => Ok(resp),
        }
    }

    /// Submits a sweep and blocks until the daemon has streamed every
    /// cell, reassembling them (in grid order, regardless of arrival
    /// order) into a v5 document.
    pub fn run_sweep(&mut self, spec: &SweepSpec) -> Result<ServedSweep, ClientError> {
        let submit = Json::Obj(vec![
            ("type".into(), Json::str("submit")),
            ("sweep".into(), spec.to_json()),
        ]);
        self.send(&submit)?;
        let accepted = self.recv()?;
        if let Some(e) = daemon_error(&accepted) {
            return Err(e);
        }
        if type_of(&accepted) != Some("accepted") {
            return Err(unexpected(&accepted, "accepted"));
        }
        let job = str_member(&accepted, "job")?.to_string();
        let total = uint_member(&accepted, "cells")? as usize;
        let p = accepted
            .get("params")
            .ok_or_else(|| ClientError::Protocol("accepted response lacks params".into()))?;
        let params = ExpParams {
            insts_per_core: uint_member(p, "insts_per_core")?,
            warmup_insts: uint_member(p, "warmup_insts")?,
            max_cycle_factor: uint_member(p, "max_cycle_factor")?,
            seed: uint_member(p, "seed")?,
            // Not part of the wire protocol: checkpointing is a
            // durability concern of whoever executes the cell, so the
            // daemon applies its own configured interval server-side.
            checkpoint_interval: 0,
        };
        let families = str_array(&accepted, "families")?;
        let timings = str_array(&accepted, "timings")?;
        let mechanisms = str_array(&accepted, "mechanisms")?;
        let variants = str_array(&accepted, "variants")?;

        let mut cells: Vec<Option<Json>> = vec![None; total];
        let failed: u64;
        loop {
            let resp = self.recv()?;
            match type_of(&resp) {
                Some("cell") if str_member(&resp, "job")? == job => {
                    let index = uint_member(&resp, "index")? as usize;
                    let slot = cells.get_mut(index).ok_or_else(|| {
                        ClientError::Protocol(format!(
                            "cell index {index} out of range for a {total}-cell job"
                        ))
                    })?;
                    if slot.is_some() {
                        return Err(ClientError::Protocol(format!(
                            "daemon streamed cell {index} twice"
                        )));
                    }
                    let cell = resp.get("cell").cloned().ok_or_else(|| {
                        ClientError::Protocol("cell response lacks a cell object".into())
                    })?;
                    *slot = Some(cell);
                }
                Some("done") if str_member(&resp, "job")? == job => {
                    failed = uint_member(&resp, "failed")?;
                    break;
                }
                Some("aborted") if str_member(&resp, "job")? == job => {
                    return Err(ClientError::Aborted {
                        job,
                        dropped: uint_member(&resp, "dropped")?,
                    });
                }
                // Traffic for other jobs on a shared connection.
                Some("cell" | "done" | "aborted" | "cancelled") => {}
                Some("error") => return Err(daemon_error(&resp).expect("typed error")),
                _ => return Err(unexpected(&resp, "cell/done")),
            }
        }
        let cells: Vec<Json> = cells
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                c.ok_or_else(|| {
                    ClientError::Protocol(format!(
                        "daemon reported done but never streamed cell {i}"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let doc = assemble_sweep_json(
            &params,
            &families,
            &timings,
            &mechanisms,
            &variants,
            Json::Null,
            cells,
        );
        Ok(ServedSweep { job, failed, doc })
    }
}

fn type_of(j: &Json) -> Option<&str> {
    j.get("type").and_then(Json::as_str)
}

fn daemon_error(j: &Json) -> Option<ClientError> {
    if type_of(j) != Some("error") {
        return None;
    }
    Some(ClientError::Daemon {
        code: j
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        message: j
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}

fn unexpected(j: &Json, wanted: &str) -> ClientError {
    ClientError::Protocol(format!(
        "expected a {wanted} response, got {}",
        type_of(j).unwrap_or("<untyped>")
    ))
}

fn str_member<'j>(j: &'j Json, key: &str) -> Result<&'j str, ClientError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ClientError::Protocol(format!("response lacks string member {key:?}")))
}

fn str_array(j: &Json, key: &str) -> Result<Vec<String>, ClientError> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol(format!("response lacks array member {key:?}")))?
        .iter()
        .map(|s| {
            s.as_str().map(str::to_string).ok_or_else(|| {
                ClientError::Protocol(format!("member {key:?} must hold strings, got {s}"))
            })
        })
        .collect()
}

fn uint_member(j: &Json, key: &str) -> Result<u64, ClientError> {
    let x = j
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| ClientError::Protocol(format!("response lacks numeric member {key:?}")))?;
    if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0) {
        return Err(ClientError::Protocol(format!(
            "member {key:?} must be a non-negative integer, got {x}"
        )));
    }
    Ok(x as u64)
}
