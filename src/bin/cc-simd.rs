//! `cc-simd` — the persistent sweep daemon, plus one-shot control verbs.
//!
//! ```text
//! cc-simd serve    --socket /tmp/cc.sock --cache-dir .cc-cache   # daemon
//! cc-simd status   --socket /tmp/cc.sock                         # one request
//! cc-simd gc       --socket /tmp/cc.sock --budget 512M
//! cc-simd shutdown --socket /tmp/cc.sock                         # drain + exit
//! ```
//!
//! `serve` runs the daemon in the foreground until a `shutdown` request
//! drains it (background it with your shell). The control verbs connect,
//! send one request, print the daemon's JSON response on stdout, and
//! exit — enough for scripts and CI to drive a daemon without a JSON
//! client. Sweep submission is the job of `cc-sim ... --json --server
//! SOCKET`, which reassembles the streamed cells into a full v5
//! document; see `docs/PROTOCOL.md` for the raw wire protocol.
//!
//! # Exit codes
//!
//! `0` success · `1` runtime failure (socket, daemon refusal) · `2`
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use chargecache_repro::mechs::register_extended_mechanisms;
use sim::json::Json;
use simd::{parse_size, Client, Server, ServerConfig};

const USAGE: &str = "\
cc-simd — persistent sweep daemon for the ChargeCache reproduction

USAGE:
  cc-simd serve    --socket PATH [options]     run the daemon (foreground)
  cc-simd status   --socket PATH               print a status snapshot
  cc-simd gc       --socket PATH --budget SIZE run the cache GC remotely
  cc-simd shutdown --socket PATH               drain in-flight cells and exit

SERVE OPTIONS:
  --threads N       worker-pool size                  [default: all cores]
  --cache-dir DIR   shared disk run cache             [default: $CC_CACHE_DIR]
  --queue-depth N   max queued cells, daemon-wide     [default 4096]
  --client-quota N  max outstanding cells per client  [default 1024]
  --checkpoint-interval N
                    checkpoint in-flight cells to the cache directory
                    every N retired instructions per core, so a killed
                    daemon resumes long cells mid-run on restart
                    (needs --cache-dir)        [default: off]

SIZES:
  --budget takes plain bytes or a binary suffix: 64k, 512M, 2G

Submit sweeps with `cc-sim run|mix ... --json --server PATH`; the wire
protocol reference is docs/PROTOCOL.md.

EXIT CODES:
  0 success  ·  1 runtime failure  ·  2 usage error";

enum Failure {
    Usage(String),
    Runtime(String),
}

fn main() -> ExitCode {
    // The daemon parses mechanism specs out of submitted sweeps, so the
    // plugin mechanisms must be registered exactly like in cc-sim.
    register_extended_mechanisms();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(Failure::Usage("missing command".into()));
    };
    match cmd.as_str() {
        "serve" => serve(rest),
        "status" => {
            let f = Flags::parse(rest, &["socket"])?;
            control(&f.socket()?, &request("status", None))
        }
        "gc" => {
            let f = Flags::parse(rest, &["socket", "budget"])?;
            let budget = parse_size(
                f.get("budget")
                    .ok_or_else(|| Failure::Usage("gc needs --budget SIZE".into()))?,
            )
            .map_err(Failure::Usage)?;
            control(
                &f.socket()?,
                &request("gc", Some(("budget_bytes".into(), Json::uint(budget)))),
            )
        }
        "shutdown" => {
            let f = Flags::parse(rest, &["socket"])?;
            control(&f.socket()?, &request("shutdown", None))
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Failure::Usage(format!("unknown command {other:?}"))),
    }
}

fn serve(args: &[String]) -> Result<(), Failure> {
    let f = Flags::parse(
        args,
        &[
            "socket",
            "threads",
            "cache-dir",
            "queue-depth",
            "client-quota",
            "checkpoint-interval",
        ],
    )?;
    let mut cfg = ServerConfig::new(f.socket()?);
    if let Some(v) = f.get("threads") {
        cfg.threads = parse_pos(v, "threads")?;
    }
    cfg.cache_dir = match f.get("cache-dir") {
        Some(d) => Some(PathBuf::from(d)),
        None => std::env::var_os("CC_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from),
    };
    if let Some(v) = f.get("queue-depth") {
        cfg.queue_depth = parse_pos(v, "queue-depth")?;
    }
    if let Some(v) = f.get("client-quota") {
        cfg.client_quota = parse_pos(v, "client-quota")?;
    }
    if let Some(v) = f.get("checkpoint-interval") {
        if cfg.cache_dir.is_none() {
            return Err(Failure::Usage(
                "--checkpoint-interval needs --cache-dir (or $CC_CACHE_DIR): checkpoints \
                 live next to the run-cache entries"
                    .into(),
            ));
        }
        cfg.checkpoint_interval = parse_pos(v, "checkpoint-interval")? as u64;
    }
    let threads = cfg.threads;
    let cache = cfg
        .cache_dir
        .as_ref()
        .map_or_else(|| "none".to_string(), |d| d.display().to_string());
    let server = Server::bind(cfg)
        .map_err(|e| Failure::Runtime(format!("binding the daemon socket: {e}")))?;
    eprintln!(
        "cc-simd: listening on {} (threads={threads}, cache={cache})",
        server.socket().display()
    );
    server
        .run()
        .map_err(|e| Failure::Runtime(format!("daemon accept loop failed: {e}")))
}

/// Connects, sends one request, prints the one JSON response.
fn control(socket: &PathBuf, req: &Json) -> Result<(), Failure> {
    let mut client = Client::connect(socket).map_err(|e| {
        Failure::Runtime(format!("connecting to daemon at {}: {e}", socket.display()))
    })?;
    let resp = client
        .request(req)
        .map_err(|e| Failure::Runtime(e.to_string()))?;
    println!("{resp}");
    Ok(())
}

fn request(ty: &str, extra: Option<(String, Json)>) -> Json {
    let mut members = vec![("type".to_string(), Json::str(ty))];
    members.extend(extra);
    Json::Obj(members)
}

fn parse_pos(v: &str, flag: &str) -> Result<usize, Failure> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(Failure::Usage(format!(
            "--{flag} must be a positive integer, got {v:?}"
        ))),
    }
}

/// Minimal `--flag value` parser over a fixed flag vocabulary.
struct Flags {
    values: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, Failure> {
        let mut values = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                return Err(Failure::Usage(format!("unexpected argument {a:?}")));
            };
            if !known.contains(&flag) {
                return Err(Failure::Usage(format!("unknown flag --{flag}")));
            }
            let value = it
                .next()
                .ok_or_else(|| Failure::Usage(format!("flag --{flag} needs a value")))?;
            values.push((flag.to_string(), value.clone()));
        }
        Ok(Flags { values })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn socket(&self) -> Result<PathBuf, Failure> {
        self.get("socket")
            .map(PathBuf::from)
            .ok_or_else(|| Failure::Usage("missing --socket PATH".into()))
    }
}
