//! The untraced phase: set-up timing, the jobs-1 reference iteration and
//! the timed jobs-2 iterations that give the end-to-end metrics.
//!
//! The recording host's speed drifts by tens of percent over seconds to
//! minutes (other tenants share its cores), and CPU time drifts with it.
//! So every timing is paired with a host-speed probe — a fixed kernel
//! that shares no code with the program — taken around it, and times are
//! reported in recording-host seconds: measured seconds × `PROBE_REF_S` /
//! probe seconds. A change to the program moves them exactly as it moves
//! the raw times; the probe cannot move. On the recording host this cut
//! the run-to-run spread of `wall_s` by about half.

use crate::procfs;
use crate::stats::median;
use crate::workloads::{build_world, run_iteration, Artifact, Config};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workers for the timed iterations: one per core of the 2-core
/// recording host, and the most the benchmark ever runs at once.
pub const JOBS: usize = 2;

/// Fewest timed iterations, however long each one takes.
const MIN_ITERATIONS: usize = 3;

/// The probe's median time on the recording host, seconds.
pub const PROBE_REF_S: f64 = 0.011;

/// Re-probe once the last probe is this old, seconds.
const PROBE_EVERY_S: f64 = 0.25;

/// Converts raw host seconds into recording-host seconds, re-probing the
/// host's speed every `PROBE_EVERY_S` at most.
pub struct HostClock {
    probe: f64,
    probed: Instant,
}

impl HostClock {
    /// A clock probed now.
    pub fn new() -> HostClock {
        HostClock {
            probe: probe_s(),
            probed: Instant::now(),
        }
    }

    /// The factor for work about to start: `PROBE_REF_S` over the latest
    /// probe, re-probing first when it is stale.
    pub fn scale(&mut self) -> f64 {
        if self.probed.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            *self = HostClock::new();
        }
        PROBE_REF_S / self.probe
    }
}

/// Runs `f` once; returns its result and the factor that turns raw
/// host seconds measured inside it into recording-host seconds: from the
/// mean of probes taken just before and just after it.
pub fn with_scale<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_s();
    let out = f();
    (out, PROBE_REF_S * 2.0 / (before + probe_s()))
}

/// Runs `f` once; returns its result and its recording-host seconds.
pub fn timed_call<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let ((out, raw), scale) = with_scale(|| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    });
    (out, raw * scale)
}

/// The host-speed probe: sort 2^18 xorshift words, then 2^20 dependent
/// random reads over them — branchy, cache-missing work like the
/// simulator's. Returns its wall seconds.
pub fn probe_s() -> f64 {
    const N: usize = 1 << 18;
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut words: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..1 << 20 {
        i = (words[i] as usize ^ i) & (N - 1);
        acc = acc.wrapping_add(words[i]);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Everything the untraced phase measured. `_s` fields without `raw` in
/// their name are in recording-host seconds.
pub struct Timed {
    /// Median seconds of one world-building call, over at least
    /// `setup_reps` calls and a quarter second of them.
    pub setup_s: f64,
    /// The jobs-1 reference iteration's artifact.
    pub reference: Artifact,
    /// The reference iteration's digest.
    pub reference_digest: u64,
    /// Wall seconds of a jobs-1 iteration: the reference itself, or with
    /// `warm_reference` the median of `jobs1_runs` after the timed ones
    /// (the first runs cold).
    pub reference_s: f64,
    /// Raw wall seconds of each timed jobs-2 iteration.
    pub walls: Vec<f64>,
    /// Median raw wall seconds of a timed iteration.
    pub wall_raw_s: f64,
    /// Median of each timed iteration's wall over its probe.
    pub wall_s: f64,
    /// Ops of one iteration.
    pub ops: u64,
    /// User+sys CPU seconds per timed iteration: `wall_s` times the
    /// timed iterations' total CPU over their total wall.
    pub cpu_s: f64,
    /// Median probe seconds during the timed iterations.
    pub probe_s: f64,
    /// Ops attempted over the timed iterations.
    pub attempted: u64,
    /// Ops of timed iterations that panicked or whose digest differed
    /// from the reference.
    pub failed: u64,
    /// Peak RSS after the timed iterations, MB.
    pub peak_rss_mb: f64,
}

/// Runs the untraced phase: the world-building calls, the
/// reference iteration, then closed-loop jobs-2 iterations (one in
/// flight) until `seconds` have passed and at least three have run, and
/// with `warm_reference` `jobs1_runs`.
pub fn run_timed(cfg: &Config, setup_reps: usize, seconds: f64, warm_reference: bool) -> Timed {
    let (setups, setup_scale) = with_scale(|| {
        let mut setups = Vec::new();
        let phase = Instant::now();
        while setups.len() < setup_reps || phase.elapsed().as_secs_f64() < cfg.size(0.25, 0.0) {
            let start = Instant::now();
            build_world(cfg);
            setups.push(start.elapsed().as_secs_f64());
        }
        setups
    });
    let setup_s = median(&setups) * setup_scale;

    let (reference, mut reference_s) = timed_call(|| run_iteration(cfg, 1));
    let reference_digest = reference.digest();

    // Each iteration is scaled by the mean of the two probes around it:
    // the last one before it and the first one after it.
    let (mut walls, mut before) = (Vec::new(), Vec::new());
    let mut probes = vec![probe_s()];
    let mut probed = Instant::now();
    let mut cpu = 0.0;
    let mut failed_iterations = 0;
    let phase = Instant::now();
    while walls.len() < MIN_ITERATIONS || phase.elapsed().as_secs_f64() < seconds {
        if probed.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            probes.push(probe_s());
            probed = Instant::now();
        }
        let cpu0 = procfs::cpu_seconds();
        let start = Instant::now();
        let ok = checked(cfg, JOBS, reference_digest);
        let wall = start.elapsed().as_secs_f64();
        cpu += procfs::cpu_seconds() - cpu0;
        walls.push(wall);
        before.push(probes.len() - 1);
        failed_iterations += u64::from(!ok);
    }
    probes.push(probe_s());
    let scaled: Vec<f64> = walls
        .iter()
        .zip(&before)
        .map(|(wall, &k)| wall * PROBE_REF_S * 2.0 / (probes[k] + probes[k + 1]))
        .collect();
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut iterations = walls.len() as u64;
    if warm_reference {
        let runs = jobs1_runs(cfg, reference_digest);
        reference_s = median(&runs.iter().map(|r| r.0).collect::<Vec<f64>>());
        iterations += runs.len() as u64;
        failed_iterations += runs.iter().filter(|r| !r.1).count() as u64;
    }
    let wall_s = median(&scaled);
    Timed {
        setup_s,
        reference_s,
        reference_digest,
        wall_raw_s: median(&walls),
        wall_s,
        ops: reference.ops,
        cpu_s: wall_s * cpu / walls.iter().sum::<f64>(),
        probe_s: median(&probes),
        attempted: reference.ops * iterations,
        failed: reference.ops * failed_iterations,
        peak_rss_mb,
        reference,
        walls,
    }
}

/// Runs one iteration at `jobs`: did it complete with digest `digest`?
fn checked(cfg: &Config, jobs: usize, digest: u64) -> bool {
    catch_unwind(AssertUnwindSafe(|| run_iteration(cfg, jobs))).is_ok_and(|a| a.digest() == digest)
}

/// Warm jobs-1 iterations for at least half a second (at least one):
/// each one's recording-host seconds and whether it matched `digest`.
pub fn jobs1_runs(cfg: &Config, digest: u64) -> Vec<(f64, bool)> {
    let mut runs = Vec::new();
    let phase = Instant::now();
    while runs.is_empty() || phase.elapsed().as_secs_f64() < cfg.size(0.5, 0.0) {
        let (ok, wall) = timed_call(|| checked(cfg, 1, digest));
        runs.push((wall, ok));
    }
    runs
}
