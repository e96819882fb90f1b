//! Small shared helpers: statistics, clocks, process facts, JSON access.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use sim::json::Json;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile of `xs` with at least ten samples beyond it,
/// with that percentile; `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let pct = 100.0 * (xs.len() - 10) as f64 / xs.len() as f64;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((pct.floor(), v[xs.len() - 11]))
}

/// Wall-clock nanoseconds since the epoch: the one clock a parent and
/// the child process it spawns share.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos()
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn vmhwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `nproc`, CPU model and load average: the host a run was taken on.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    format!("nproc={nproc} cpu=\"{model}\" loadavg=\"{load}\"")
}

/// 128-bit content hash as hex.
pub fn hash_hex(bytes: &[u8]) -> String {
    format!("{:032x}", fasthash::content_hash_128(bytes))
}

/// Files in `dir` whose name ends with `suffix`.
pub fn files_with_suffix(dir: &Path, suffix: &str) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
            .count()
    })
}

pub fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

pub fn text(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON array of strings.
pub fn strs(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|s| Json::str(s.clone())).collect())
}

pub fn str_list(j: &Json, key: &str) -> Vec<String> {
    j.get(key)
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}
