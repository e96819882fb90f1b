//! Disk-backed, content-addressed run cache.
//!
//! The process-wide memoizer in [`crate::api`] dies with the process, so
//! every CLI invocation re-simulates shared baselines from scratch and an
//! interrupted sweep loses all completed cells. This module persists each
//! [`RunResult`](crate::RunResult) under a stable 128-bit content hash of
//! its full job identity (workload specs, mechanism spec, timing spec,
//! variant-configured system, seed, engine — everything in the in-memory
//! memoizer key — plus the entry-format version), making sweeps *resumable*:
//! a re-run against the same cache directory loads completed cells and
//! simulates only the remainder, with byte-identical final JSON.
//!
//! # Entry format
//!
//! One file per result, named `{key:032x}.run`, in the envelope this
//! module shares with the checkpoints of [`crate::ckpt`]
//! (`{key:032x}.ckpt`, magic `CCCKP\0v1`):
//!
//! ```text
//! magic    [u8; 8]   b"CCRUN\0v2" (last byte: the version digit)
//! version  u32 LE    ENTRY_VERSION
//! key      u128 LE   must match the filename-derived key
//! len      u64 LE    payload length in bytes
//! payload  [u8]      RunResult::encode bytes
//! len      u64 LE    footer: repeated payload length
//! checksum u64 LE    footer: FNV-1a-64 of the payload
//! ```
//!
//! The footer exists to catch torn writes: a file that was truncated mid
//! write fails the repeated-length check even when the header happens to
//! be intact, and a bit flip anywhere in the payload fails the checksum.
//!
//! # Degradation ladder
//!
//! Failures never abort a sweep; they step down one rung at a time:
//!
//! 1. Healthy: entries verify, loads hit, stores land atomically
//!    (temp file + rename, so concurrent writers and crashes can never
//!    leave a partially-written entry under a final name).
//! 2. Entry from another format version (a well-formed `CCRUN` header
//!    whose version differs from [`ENTRY_VERSION`]): a clean,
//!    quarantine-free miss — the entry is simply not this format, not
//!    corrupt — and the cell is re-simulated. (In practice an old entry
//!    is rarely even opened: the version is folded into
//!    [`content_key`], so a format bump changes every filename and old
//!    entries linger as unreferenced files until `gc` evicts them.)
//! 3. Corrupt entry (bad magic/key/length/checksum, or a payload
//!    that fails [`RunResult::decode`](crate::RunResult::decode)): the
//!    file is quarantined by renaming to `<name>.corrupt` — never
//!    trusted, kept for inspection until `gc` evicts it — and the cell
//!    is re-simulated exactly as a cache miss.
//! 4. Unwritable or uncreatable cache directory: the cache opens in
//!    *degraded* mode — every load is a miss, every store a no-op — and
//!    the sweep runs on the in-memory memoizer alone.
//!
//! All counters are in [`CacheStats`], surfaced by `cc-sim` on stderr.

use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use fasthash::{checksum_64, content_hash_128};

/// Deterministic I/O fault injection for the persistence layer (run
/// entries and checkpoints alike).
///
/// Reuses the `CC_FAULT_INJECTION` master switch that already gates the
/// test-only `faulty` mechanism plugin. Beyond acting as that boolean
/// gate, the variable now accepts comma-separated tokens:
///
/// * `io-write=N` — the N-th persisted-entry *write* attempt since
///   process start fails with an injected I/O error,
/// * `io-rename=N` — the N-th atomic *rename* into place fails,
/// * `io-read=N` — the N-th entry *read* fails,
/// * `ckpt-exit=N` — the process exits (code 86) right after the N-th
///   checkpoint lands on disk, simulating a crash at a checkpoint
///   boundary for the kill-anywhere resume tests.
///
/// Counts are 1-based and process-wide; operations are only counted
/// while their token is present, so an unrelated `CC_FAULT_INJECTION=1`
/// leaves the shim inert. All failures exercise the same degrade paths
/// real I/O errors would: store failures bump counters and the sweep
/// continues, read failures are clean misses.
pub(crate) mod fault {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static WRITES: AtomicU64 = AtomicU64::new(0);
    static RENAMES: AtomicU64 = AtomicU64::new(0);
    static READS: AtomicU64 = AtomicU64::new(0);
    static CKPT_EXITS: AtomicU64 = AtomicU64::new(0);

    /// The 1-based trip point for `kind`, if armed.
    fn target(kind: &str) -> Option<u64> {
        let spec = std::env::var("CC_FAULT_INJECTION").ok()?;
        for token in spec.split(',') {
            if let Some((k, v)) = token.trim().split_once('=') {
                if k == kind {
                    return v.parse().ok();
                }
            }
        }
        None
    }

    /// Counts one `kind` operation; true when this one must fail.
    fn trips(counter: &AtomicU64, kind: &str) -> bool {
        match target(kind) {
            Some(n) => counter.fetch_add(1, Relaxed) + 1 == n,
            None => false,
        }
    }

    fn check(counter: &AtomicU64, kind: &str) -> std::io::Result<()> {
        if trips(counter, kind) {
            Err(std::io::Error::other(format!("injected {kind} fault")))
        } else {
            Ok(())
        }
    }

    /// Gate before writing an entry's bytes.
    pub(crate) fn before_write() -> std::io::Result<()> {
        check(&WRITES, "io-write")
    }

    /// Gate before renaming a temp file into place.
    pub(crate) fn before_rename() -> std::io::Result<()> {
        check(&RENAMES, "io-rename")
    }

    /// Gate before reading an entry back.
    pub(crate) fn before_read() -> std::io::Result<()> {
        check(&READS, "io-read")
    }

    /// Called after each checkpoint store lands; exits the process when
    /// the `ckpt-exit` trip point is reached (kill-anywhere testing).
    pub(crate) fn after_checkpoint_stored() {
        if trips(&CKPT_EXITS, "ckpt-exit") {
            eprintln!("cc-sim: injected crash after checkpoint (CC_FAULT_INJECTION ckpt-exit)");
            std::process::exit(86);
        }
    }
}

/// Version of the on-disk entry layout (header field). Bump whenever the
/// header, footer, or [`RunResult::encode`](crate::RunResult::encode)
/// payload layout changes, or when the job identity gains a member that
/// old entries could silently alias (the device-family axis forced the
/// 1 → 2 bump); old entries then miss cleanly — version-miss, never
/// quarantined — and are re-simulated instead of misdecoded.
pub const ENTRY_VERSION: u32 = 2;

/// One envelope format: file extension, magic and header version.
#[derive(Debug)]
pub(crate) struct Format {
    ext: &'static str,
    magic: [u8; 8],
    version: u32,
}

/// Whole-cell run-cache entries.
pub(crate) const RUN: Format = Format {
    ext: "run",
    magic: *b"CCRUN\0v2",
    version: ENTRY_VERSION,
};

/// Mid-cell checkpoints.
pub(crate) const CKPT: Format = Format {
    ext: "ckpt",
    magic: *b"CCCKP\0v1",
    version: crate::ckpt::CKPT_VERSION,
};

/// Length of the version-independent magic prefix (`CCRUN\0v`): a file
/// carrying it is *some* version of the format, so a version mismatch
/// is a clean miss rather than quarantine-worthy corruption.
const MAGIC_PREFIX: usize = 7;

/// Header length: magic + version + key + payload length.
const HEADER_LEN: usize = 8 + 4 + 16 + 8;

/// Footer length: repeated payload length + checksum.
const FOOTER_LEN: usize = 8 + 8;

/// Suffix appended to quarantined files.
const QUARANTINE_SUFFIX: &str = ".corrupt";

/// Distinguishes concurrent writers' temp files within the process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Outcome of verifying a file read from disk.
enum Verified<'a> {
    /// A well-formed current-version file; the payload slice.
    Ok(&'a [u8]),
    /// A well-formed header from a *different* version of the format
    /// (recognizable magic prefix, other version byte or field): not
    /// corruption, just not this version. Treated as a clean miss.
    VersionMiss,
    /// Anything else — short file, foreign magic, key mismatch (a file
    /// renamed or copied to the wrong name), length disagreement between
    /// header and footer, checksum failure. Quarantine-worthy.
    Corrupt,
}

impl Format {
    /// File path for `key` in `dir`.
    pub(crate) fn path(&self, dir: &Path, key: u128) -> PathBuf {
        dir.join(format!("{key:032x}.{}", self.ext))
    }

    /// Serializes a full file (header + payload + footer).
    fn encode(&self, key: u128, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum_64(payload).to_le_bytes());
        out
    }

    /// Verifies a file read from disk against `key`; see [`Verified`]
    /// for the outcomes.
    fn verify<'a>(&self, bytes: &'a [u8], key: u128) -> Verified<'a> {
        // A short file that still starts with the magic prefix is a torn
        // or truncated write, not another version — but if even the
        // prefix is absent we cannot tell, and Corrupt covers both.
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Verified::Corrupt;
        }
        let (header, rest) = bytes.split_at(HEADER_LEN);
        if header[..MAGIC_PREFIX] != self.magic[..MAGIC_PREFIX] {
            return Verified::Corrupt;
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if header[MAGIC_PREFIX] != self.magic[MAGIC_PREFIX] || version != self.version {
            return Verified::VersionMiss;
        }
        let stored_key = u128::from_le_bytes(header[12..28].try_into().unwrap());
        if stored_key != key {
            return Verified::Corrupt;
        }
        let len = u64::from_le_bytes(header[28..36].try_into().unwrap()) as usize;
        if rest.len() != len + FOOTER_LEN {
            return Verified::Corrupt;
        }
        let (payload, footer) = rest.split_at(len);
        let footer_len = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
        if footer_len != len {
            return Verified::Corrupt;
        }
        let footer_sum = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        if footer_sum != checksum_64(payload) {
            return Verified::Corrupt;
        }
        Verified::Ok(payload)
    }

    /// Reads and verifies the payload for `key` in `dir`. A missing or
    /// unreadable file and one from another version (left in place) are
    /// misses; a corrupt one is quarantined, counted in `quarantined`,
    /// and is a miss too.
    pub(crate) fn load(&self, dir: &Path, key: u128, quarantined: &AtomicU64) -> Option<Vec<u8>> {
        let path = self.path(dir, key);
        let bytes = fault::before_read().and_then(|()| fs::read(&path)).ok()?;
        match self.verify(&bytes, key) {
            Verified::Ok(payload) => Some(payload.to_vec()),
            Verified::VersionMiss => None,
            Verified::Corrupt => {
                quarantine(&path, quarantined);
                None
            }
        }
    }

    /// Persists `payload` under `key` in `dir` atomically (temp file,
    /// flush, rename; the temp file is removed on error). Counts the
    /// outcome in `stored` or `failed`; true when the file landed.
    pub(crate) fn store(
        &self,
        dir: &Path,
        key: u128,
        payload: &[u8],
        stored: &AtomicU64,
        failed: &AtomicU64,
    ) -> bool {
        let tmp = temp_path(dir, key);
        let entry = self.encode(key, payload);
        let landed = (|| {
            let mut f = fs::File::create(&tmp)?;
            fault::before_write()?;
            f.write_all(&entry)?;
            f.sync_data()?;
            drop(f);
            fault::before_rename()?;
            fs::rename(&tmp, self.path(dir, key))
        })()
        .is_ok();
        if !landed {
            let _ = fs::remove_file(&tmp);
        }
        (if landed { stored } else { failed }).fetch_add(1, Relaxed);
        landed
    }
}

/// A fresh temp-file path in `dir` for a write under `key`, unique per
/// process and write.
fn temp_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!(
        ".{key:032x}.{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Relaxed)
    ))
}

/// Moves an unverifiable file aside (`<name>.corrupt`) so it is never
/// trusted again but remains inspectable. If even the rename fails,
/// fall back to removing it; a file we can neither move nor delete
/// simply keeps failing verification on future loads. Counted in
/// `quarantined` either way.
pub(crate) fn quarantine(path: &Path, quarantined: &AtomicU64) {
    let mut q = path.as_os_str().to_os_string();
    q.push(QUARANTINE_SUFFIX);
    if fs::rename(path, &q).is_err() {
        let _ = fs::remove_file(path);
    }
    quarantined.fetch_add(1, Relaxed);
}

/// True for every name this module writes into a store directory: a
/// `{key:032x}.run` or `.ckpt` file, either one's `.corrupt`
/// quarantine, and `.{key:032x}.*.tmp` temp and probe files.
fn is_store_file(name: &str) -> bool {
    let temp = name.strip_prefix('.');
    let Some((key, tail)) = temp.unwrap_or(name).split_once('.') else {
        return false;
    };
    let tail_ok = if temp.is_some() {
        tail.ends_with(".tmp")
    } else {
        let ext = tail.strip_suffix(QUARANTINE_SUFFIX).unwrap_or(tail);
        ext == RUN.ext || ext == CKPT.ext
    };
    tail_ok && key.len() == 32 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Derives the stable content key for a job identity string (the same
/// exhaustive `Debug`-format key the in-memory memoizer uses; see
/// `Job::key` in `crate::api`). The entry version is folded in so a
/// format bump changes every filename at once.
pub fn content_key(job_key: &str) -> u128 {
    let mut bytes = Vec::with_capacity(job_key.len() + 16);
    bytes.extend_from_slice(b"cc-run-entry/");
    bytes.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    bytes.push(b'/');
    bytes.extend_from_slice(job_key.as_bytes());
    content_hash_128(&bytes)
}

/// Counter snapshot of one cache instance (see [`DiskCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries loaded and verified successfully.
    pub hits: u64,
    /// Lookups that found no entry file.
    pub misses: u64,
    /// Entries persisted successfully.
    pub stores: u64,
    /// Store attempts that failed (I/O error on write or rename).
    pub store_failures: u64,
    /// Entries that failed verification and were quarantined.
    pub quarantined: u64,
    /// True when the cache directory could not be created or written at
    /// open time: loads and stores are no-ops.
    pub degraded: bool,
}

/// Handle to one cache directory. Cheap to share ([`DiskCache::shared`]
/// returns one instance per canonical directory, so counters aggregate
/// across every `Experiment` in the process).
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    degraded_reason: Option<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_failures: AtomicU64,
    quarantined: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir`. Never fails: if the
    /// directory cannot be created or a probe write fails, the cache is
    /// *degraded* — every operation a no-op — and the sweep proceeds on
    /// the in-memory memoizer alone.
    pub fn open(dir: &Path) -> DiskCache {
        let degraded_reason = probe_writable(dir).err();
        DiskCache {
            dir: dir.to_path_buf(),
            degraded_reason,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Process-wide shared instance for `dir`: repeated sweeps against
    /// the same directory reuse one handle (and one set of counters).
    pub fn shared(dir: &Path) -> Arc<DiskCache> {
        type Registry = Mutex<Vec<(PathBuf, Arc<DiskCache>)>>;
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        let reg = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut reg = reg.lock().expect("cache registry poisoned");
        if let Some((_, c)) = reg.iter().find(|(p, _)| p == dir) {
            return Arc::clone(c);
        }
        let cache = Arc::new(DiskCache::open(dir));
        reg.push((dir.to_path_buf(), Arc::clone(&cache)));
        cache
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when the cache opened degraded (no persistence).
    pub fn is_degraded(&self) -> bool {
        self.degraded_reason.is_some()
    }

    /// Why the cache opened degraded, when it did: the create/probe
    /// failure in human-readable form. `None` for a healthy cache.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded_reason.as_deref()
    }

    /// Entry file path for `key`.
    pub fn path_for(&self, key: u128) -> PathBuf {
        RUN.path(&self.dir, key)
    }

    /// Loads and verifies the payload stored under `key`. A missing file
    /// is a plain miss, and so is an entry from another format version
    /// (left in place, quarantine-free — `store` will overwrite it, or
    /// [`DiskCache::gc`] will evict it); a corrupt file is quarantined
    /// and reported as a miss (the caller re-simulates, the same as the
    /// miss path).
    pub fn load(&self, key: u128) -> Option<Vec<u8>> {
        if self.is_degraded() {
            return None;
        }
        let Some(payload) = RUN.load(&self.dir, key, &self.quarantined) else {
            self.misses.fetch_add(1, Relaxed);
            return None;
        };
        self.hits.fetch_add(1, Relaxed);
        // Touch the entry so [`DiskCache::gc`]'s LRU order sees it as
        // recently used, not just recently stored. Best-effort: a failed
        // touch only skews eviction order.
        let _ = fs::File::options()
            .append(true)
            .open(self.path_for(key))
            .and_then(|f| f.set_modified(SystemTime::now()));
        Some(payload)
    }

    /// Persists `payload` under `key` atomically: readers (including
    /// concurrent processes) see either no entry or a complete one, never
    /// a torn write. Failures only bump [`CacheStats::store_failures`].
    pub fn store(&self, key: u128, payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        RUN.store(&self.dir, key, payload, &self.stores, &self.store_failures);
    }

    /// Quarantines the entry stored under `key`. For callers whose own
    /// verification fails *after* the footer checks pass — e.g. a
    /// payload that decodes to nothing — so layout mismatches are
    /// handled exactly like checksum corruption.
    pub fn quarantine_entry(&self, key: u128) {
        if self.is_degraded() {
            return;
        }
        quarantine(&self.path_for(key), &self.quarantined);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            stores: self.stores.load(Relaxed),
            store_failures: self.store_failures.load(Relaxed),
            quarantined: self.quarantined.load(Relaxed),
            degraded: self.is_degraded(),
        }
    }

    /// Evicts least-recently-used files until every file the store
    /// writes in the directory totals at most `budget_bytes`: `.run`
    /// entries, `.ckpt` checkpoints, either one's `.corrupt` quarantine,
    /// and temp files. Files of any other name are never touched.
    ///
    /// Recency is the file's modification time ([`DiskCache::load`]
    /// touches an entry on every hit, so a hot entry stays resident even
    /// if it was stored long ago), with the filename as a deterministic
    /// tie-break. A live writer's temp file is the newest file, so it
    /// goes last; if it does go, that writer's rename fails and counts
    /// one store failure.
    ///
    /// Eviction is a plain atomic unlink, safe against concurrent
    /// readers and writers: a reader that already opened the file reads
    /// it to completion (POSIX keeps the inode alive), a reader that
    /// arrives after the unlink sees a clean miss and re-simulates, and a
    /// concurrent `store` of the same key simply re-creates the name.
    /// No path can surface a torn or corrupt entry. A file that is
    /// already gone (a concurrent GC took it) counts as neither evicted
    /// nor an error.
    pub fn gc(&self, budget_bytes: u64) -> GcStats {
        let mut stats = GcStats {
            degraded: self.is_degraded(),
            ..GcStats::default()
        };
        if stats.degraded {
            return stats;
        }
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return stats;
        };
        let mut files = Vec::new();
        for e in rd.flatten() {
            let name = e.file_name();
            if !name.to_str().is_some_and(is_store_file) {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            if md.is_file() {
                files.push((
                    md.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    name,
                    md.len(),
                ));
            }
        }
        stats.scanned = files.len() as u64;
        files.sort();
        let mut total: u64 = files.iter().map(|f| f.2).sum();
        for (_, name, len) in files {
            if total <= budget_bytes {
                stats.retained += 1;
                stats.retained_bytes += len;
                continue;
            }
            match fs::remove_file(self.dir.join(name)) {
                Ok(()) => {
                    stats.evicted += 1;
                    stats.evicted_bytes += len;
                    total -= len;
                }
                Err(e) if e.kind() == ErrorKind::NotFound => total -= len,
                // Unremovable: keep `total` conservative and move on.
                Err(_) => stats.errors += 1,
            }
        }
        stats
    }
}

/// Counter snapshot of one [`DiskCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Store files examined: `.run` and `.ckpt` files, their `.corrupt`
    /// quarantines, and temp files.
    pub scanned: u64,
    /// Files removed.
    pub evicted: u64,
    /// Bytes reclaimed by the removals.
    pub evicted_bytes: u64,
    /// Files kept.
    pub retained: u64,
    /// Bytes still resident after the pass.
    pub retained_bytes: u64,
    /// Removal attempts that failed on a file that still exists.
    pub errors: u64,
    /// True when the cache is degraded: nothing was scanned or evicted.
    pub degraded: bool,
}

/// Creates `dir` and proves it writable with a create/remove round trip.
/// A plain metadata/permission check is not enough: this process may run
/// as root (permission bits don't bind it) or the path may be a regular
/// file, and only an actual write distinguishes those.
/// Returns the failure in human-readable form, kept by the cache as its
/// [`DiskCache::degraded_reason`].
fn probe_writable(dir: &Path) -> Result<(), String> {
    if let Err(e) = fs::create_dir_all(dir) {
        return Err(format!("cannot create cache dir {}: {e}", dir.display()));
    }
    let probe = temp_path(dir, 0);
    match fs::File::create(&probe) {
        Ok(f) => {
            drop(f);
            let _ = fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(format!("cache dir {} not writable: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{checkpoint_stats, CheckpointStore};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Serializes the tests that store checkpoints or assert on the
    /// process-wide checkpoint counters.
    static CKPT_COUNTERS: Mutex<()> = Mutex::new(());

    /// The public handle of one envelope format, so the envelope tests
    /// run through both wrappers and the counters each one keeps.
    enum Handle {
        Run(DiskCache),
        /// The store and the checkpoint counters when it was opened.
        Ckpt(CheckpointStore, crate::CheckpointStats),
    }

    impl Handle {
        /// One handle per format, each on its own fresh directory.
        fn both(tag: &str) -> [Handle; 2] {
            let ckpt_dir = tmp_dir(&format!("{tag}-ckpt"));
            fs::create_dir_all(&ckpt_dir).unwrap();
            [
                Handle::Run(DiskCache::open(&tmp_dir(&format!("{tag}-run")))),
                Handle::Ckpt(CheckpointStore::new(&ckpt_dir), checkpoint_stats()),
            ]
        }

        fn format(&self) -> &'static Format {
            match self {
                Handle::Run(_) => &RUN,
                Handle::Ckpt(..) => &CKPT,
            }
        }

        fn store(&self, key: u128, payload: &[u8]) {
            match self {
                Handle::Run(c) => c.store(key, payload),
                Handle::Ckpt(c, _) => c.store(key, payload),
            }
        }

        fn load(&self, key: u128) -> Option<Vec<u8>> {
            match self {
                Handle::Run(c) => c.load(key),
                Handle::Ckpt(c, _) => c.load(key),
            }
        }

        fn path_for(&self, key: u128) -> PathBuf {
            match self {
                Handle::Run(c) => c.path_for(key),
                Handle::Ckpt(c, _) => c.path_for(key),
            }
        }

        fn corrupt_path(&self, key: u128) -> PathBuf {
            let mut p = self.path_for(key).into_os_string();
            p.push(".corrupt");
            p.into()
        }

        /// (stores, quarantined) since the handle was opened.
        fn counts(&self) -> (u64, u64) {
            match self {
                Handle::Run(c) => (c.stats().stores, c.stats().quarantined),
                Handle::Ckpt(_, base) => {
                    let now = checkpoint_stats();
                    (now.stores - base.stores, now.quarantined - base.quarantined)
                }
            }
        }

        fn remove_dir(&self) {
            let dir = self.path_for(0);
            let _ = fs::remove_dir_all(dir.parent().unwrap());
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let c = DiskCache::open(&dir);
        assert!(!c.is_degraded());
        let key = content_key("some job");
        assert_eq!(c.load(key), None);
        c.store(key, b"payload bytes");
        assert_eq!(c.load(key).as_deref(), Some(&b"payload bytes"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        assert_eq!(s.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_bytes_are_frozen() {
        // Hand-written goldens: the on-disk layout of both formats must
        // never drift, or every existing cache directory misreads.
        let key = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        #[rustfmt::skip]
        let after_version: [u8; 43] = [
            // key echo, little-endian
            0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
            0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
            // payload length, payload, footer length
            3, 0, 0, 0, 0, 0, 0, 0,
            b'a', b'b', b'c',
            3, 0, 0, 0, 0, 0, 0, 0,
            // FNV-1a-64("abc") = 0xe71f_a219_0541_574b
            0x4b, 0x57, 0x41, 0x05, 0x19, 0xa2, 0x1f, 0xe7,
        ];
        #[rustfmt::skip]
        let goldens: [(&Format, [u8; 12]); 2] = [
            (&RUN, [b'C', b'C', b'R', b'U', b'N', 0, b'v', b'2', 2, 0, 0, 0]),
            (&CKPT, [b'C', b'C', b'C', b'K', b'P', 0, b'v', b'1', 1, 0, 0, 0]),
        ];
        for (fmt, magic_and_version) in goldens {
            let want = [&magic_and_version[..], &after_version[..]].concat();
            assert_eq!(fmt.encode(key, b"abc"), want, "{fmt:?}");
        }
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_trusted() {
        let _serial = CKPT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        for c in Handle::both("corrupt") {
            let key = content_key("job");
            c.store(key, b"good payload");
            let path = c.path_for(key);

            // Bit flip in the payload (which starts at byte 36).
            let mut bytes = fs::read(&path).unwrap();
            bytes[36 + 2] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(c.load(key), None);
            assert!(!path.exists(), "corrupt entry left in place");
            assert!(c.corrupt_path(key).exists());

            // Truncation.
            let good = c.format().encode(key, b"good payload");
            fs::write(&path, &good[..good.len() - 3]).unwrap();
            assert_eq!(c.load(key), None);

            // Key mismatch (entry copied to the wrong filename).
            let other = c.format().encode(content_key("other job"), b"good payload");
            fs::write(&path, &other).unwrap();
            assert_eq!(c.load(key), None);

            assert_eq!(c.counts().1, 3, "{:?}", c.format());
            c.remove_dir();
        }
    }

    #[test]
    fn old_version_entry_misses_cleanly_without_quarantine() {
        let _serial = CKPT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        for c in Handle::both("version-miss") {
            let key = content_key("job");
            let path = c.path_for(key);

            // A well-formed entry from a previous format: version field
            // (and magic version byte) differ, everything else intact.
            let mut old = c.format().encode(key, b"stale layout");
            old[7] = b'0';
            old[8..12].copy_from_slice(&0u32.to_le_bytes());
            fs::write(&path, &old).unwrap();

            // Clean miss: no quarantine, the file stays under its own name.
            assert_eq!(c.load(key), None);
            assert_eq!(c.counts().1, 0);
            assert!(path.exists(), "version-miss entry was removed or renamed");
            assert!(!c.corrupt_path(key).exists());

            // Re-simulating and re-storing overwrites it in place, and the
            // fresh entry hits.
            c.store(key, b"fresh payload");
            assert_eq!(c.load(key).as_deref(), Some(&b"fresh payload"[..]));
            assert_eq!(c.counts(), (1, 0));
            if let Handle::Run(r) = &c {
                let s = r.stats();
                assert_eq!((s.hits, s.misses), (1, 1));
            }
            c.remove_dir();
        }
    }

    #[test]
    fn unwritable_dir_degrades_to_noop() {
        // A regular file used as the cache-dir path: create_dir_all
        // fails. (chmod-based denial is unreliable here — the test may
        // run as root, which permission bits do not bind.)
        let file = std::env::temp_dir().join(format!("cc-cache-file-{}", std::process::id()));
        fs::write(&file, b"in the way").unwrap();
        let c = DiskCache::open(&file);
        assert!(c.is_degraded());
        let reason = c.degraded_reason().expect("degraded cache has a reason");
        assert!(
            reason.contains("cannot create cache dir"),
            "unexpected reason: {reason}"
        );
        let key = content_key("job");
        c.store(key, b"payload");
        assert_eq!(c.load(key), None);
        let s = c.stats();
        assert!(s.degraded);
        assert_eq!((s.hits, s.misses, s.stores, s.store_failures), (0, 0, 0, 0));
        // GC on a degraded cache is a no-op too.
        let g = c.gc(0);
        assert!(g.degraded);
        assert_eq!((g.scanned, g.evicted), (0, 0));
        assert_eq!(fs::read(&file).unwrap(), b"in the way");
        let _ = fs::remove_file(&file);
    }

    /// Backdates an entry's mtime by `secs` seconds.
    fn backdate(path: &Path, secs: u64) {
        let t = SystemTime::now() - std::time::Duration::from_secs(secs);
        fs::File::options()
            .append(true)
            .open(path)
            .and_then(|f| f.set_modified(t))
            .expect("backdate entry");
    }

    #[test]
    fn gc_evicts_lru_under_budget() {
        let dir = tmp_dir("gc-lru");
        let c = DiskCache::open(&dir);
        let (ka, kb, kc) = (content_key("a"), content_key("b"), content_key("c"));
        c.store(ka, b"payload a");
        c.store(kb, b"payload b");
        c.store(kc, b"payload c");
        // Ages: a oldest, then b, then c (newest).
        backdate(&c.path_for(ka), 300);
        backdate(&c.path_for(kb), 200);
        backdate(&c.path_for(kc), 100);
        let entry_len = fs::metadata(c.path_for(ka)).unwrap().len();

        // Unlimited budget evicts nothing.
        let g = c.gc(3 * entry_len);
        assert_eq!((g.scanned, g.evicted, g.retained), (3, 0, 3));

        // Room for one entry: the two oldest go, the newest stays.
        let g = c.gc(entry_len);
        assert_eq!((g.evicted, g.retained, g.errors), (2, 1, 0));
        assert_eq!(g.evicted_bytes, 2 * entry_len);
        assert_eq!(g.retained_bytes, entry_len);
        assert_eq!(c.load(ka), None);
        assert_eq!(c.load(kb), None);
        assert_eq!(c.load(kc).as_deref(), Some(&b"payload c"[..]));

        // Zero budget clears the cache.
        let g = c.gc(0);
        assert_eq!((g.evicted, g.retained), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_load_touch_protects_hot_entries() {
        let dir = tmp_dir("gc-touch");
        let c = DiskCache::open(&dir);
        let (ka, kb) = (content_key("hot"), content_key("cold"));
        c.store(ka, b"hot entry!");
        c.store(kb, b"cold entry");
        // Both old, the hot one older — then a load refreshes it.
        backdate(&c.path_for(ka), 400);
        backdate(&c.path_for(kb), 200);
        assert!(c.load(ka).is_some());
        let entry_len = fs::metadata(c.path_for(kb)).unwrap().len();
        let g = c.gc(entry_len);
        assert_eq!((g.evicted, g.retained), (1, 1));
        assert!(c.load(ka).is_some(), "hot entry evicted despite touch");
        assert_eq!(c.load(kb), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_budgets_every_store_file() {
        let _serial = CKPT_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("gc-scope");
        let c = DiskCache::open(&dir);
        let ckpt = CheckpointStore::new(&dir);
        let (run_key, ckpt_key) = (content_key("run"), content_key("ckpt"));
        c.store(run_key, b"real entry");
        ckpt.store(ckpt_key, b"in-flight cell");
        let store_files = [
            c.path_for(run_key),
            ckpt.path_for(ckpt_key),
            dir.join(format!("{:032x}.run.corrupt", content_key("bad run"))),
            dir.join(format!("{:032x}.ckpt.corrupt", content_key("bad ckpt"))),
            // Orphaned by a writer that died between create and rename.
            dir.join(format!(".{:032x}.123.0.tmp", content_key("died"))),
        ];
        for f in &store_files[2..] {
            fs::write(f, b"left behind").unwrap();
        }
        fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
        fs::write(dir.join(".notes.tmp"), b"unrelated").unwrap();
        let g = c.gc(0);
        assert_eq!((g.scanned, g.evicted, g.retained, g.errors), (5, 5, 0, 0));
        for f in &store_files {
            assert!(!f.exists(), "{} survived gc(0)", f.display());
        }
        assert_eq!(fs::read(dir.join("notes.txt")).unwrap(), b"unrelated");
        assert!(dir.join(".notes.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_gc_counts_raced_removals_as_no_error() {
        let dir = tmp_dir("gc-concurrent");
        let c = DiskCache::open(&dir);
        for i in 0..300 {
            c.store(content_key(&format!("cell {i}")), b"payload");
        }
        let start = std::sync::Barrier::new(2);
        let passes: Vec<GcStats> = std::thread::scope(|s| {
            let gcs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        c.gc(0)
                    })
                })
                .collect();
            gcs.into_iter()
                .map(|h| h.join().expect("gc thread"))
                .collect()
        });
        for g in &passes {
            assert_eq!(g.errors, 0, "{g:?}");
        }
        assert!(passes.iter().map(|g| g.evicted).sum::<u64>() <= 300);
        let left = fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, 0, "store files left after two gc(0) passes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_returns_one_instance_per_dir() {
        let dir = tmp_dir("shared");
        let a = DiskCache::shared(&dir);
        let b = DiskCache::shared(&dir);
        assert!(Arc::ptr_eq(&a, &b));
        let other = tmp_dir("shared-other");
        let c = DiskCache::shared(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other);
    }

    #[test]
    fn content_key_is_stable_and_sensitive() {
        let k = content_key("workload=mcf seed=42");
        // Frozen golden: the disk format depends on this value never
        // changing across builds.
        assert_eq!(k, content_key("workload=mcf seed=42"));
        assert_ne!(k, content_key("workload=mcf seed=43"));
        assert_ne!(content_key(""), 0);
    }
}
