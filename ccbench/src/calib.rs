//! A fixed probe of the host's speed, run beside every measured phase.
//!
//! The shared host this benchmark runs on drifts: the same simulation can
//! take 1.7× as long a few minutes later, with CPU time tracking wall time
//! (no steal). A run's host-time metrics are therefore divided by the
//! host's speed during that run, measured with this probe: a fixed piece
//! of code that lives in the benchmark, not in the program, so no change
//! to the program moves it. See NOTES.md, "Steadiness".

use std::hint::black_box;
use std::time::Instant;

/// The probe's time, in seconds, on the host at the speed every
/// normalized metric is stated in (the 2-vCPU Xeon of NOTES.md, quiet).
pub const NOMINAL_S: f64 = 0.25;

/// The probes of one run, one between every two measured phases.
pub struct Probes {
    pub times: Vec<f64>,
}

impl Probes {
    /// Probes once, before the first phase.
    pub fn start() -> Probes {
        Probes {
            times: vec![probe()],
        }
    }

    /// Ends the phase since the last probe: probes again and returns the
    /// phase's slowdown, the mean of the probes on either side of it over
    /// [`NOMINAL_S`]. Pairing each phase with the probes around it tracks
    /// the host's drift from one phase to the next.
    pub fn next(&mut self) -> f64 {
        let before = *self.times.last().expect("a first probe");
        let after = probe();
        self.times.push(after);
        (before + after) / 2.0 / NOMINAL_S
    }
}

/// Runs the probe once and returns its wall time in seconds: an ALU loop,
/// then a set-associative cache model over a mixed stream/random address
/// stream, once with a cache-resident and once with a memory-sized tag
/// array, so the probe is slowed by the same kinds of interference
/// (frequency, a busy sibling thread, shared caches, memory bandwidth) as
/// the simulator.
pub fn probe() -> f64 {
    let start = Instant::now();
    black_box(alu(20_000_000));
    black_box(cache_model(2_000_000, 1 << 12));
    black_box(cache_model(1_000_000, 1 << 17));
    start.elapsed().as_secs_f64()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn alu(n: u64) -> u64 {
    let mut s = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..n {
        let v = xorshift(&mut s);
        acc = acc.wrapping_add(if v & 1 == 0 {
            v >> 3
        } else {
            v.rotate_left((i & 31) as u32)
        });
    }
    acc
}

/// A 16-way LRU cache of `sets` sets: three of four accesses continue one
/// sequential stream, the fourth is random over 256 MiB. Returns the hits.
fn cache_model(n: u64, sets: usize) -> u64 {
    const WAYS: usize = 16;
    let mut tags = vec![u64::MAX; sets * WAYS];
    let mut used = vec![0u32; sets * WAYS];
    let mut s = 0x9E37_79B9_7F4A_7C15;
    let (mut stream, mut clock, mut hits) = (0u64, 0u32, 0u64);
    for _ in 0..n {
        let r = xorshift(&mut s);
        let line = if r & 3 == 0 {
            (r >> 8) % (1 << 28)
        } else {
            stream += 64;
            stream % (1 << 26)
        } >> 6;
        let base = (line as usize & (sets - 1)) * WAYS;
        clock += 1;
        match (0..WAYS).find(|&w| tags[base + w] == line) {
            Some(w) => {
                used[base + w] = clock;
                hits += 1;
            }
            None => {
                let victim = (0..WAYS).min_by_key(|&w| used[base + w]).expect("ways");
                tags[base + victim] = line;
                used[base + victim] = clock;
            }
        }
    }
    hits
}
