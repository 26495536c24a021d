//! A corpus of named bandwidth profiles.
//!
//! The ABR literature evaluates against a handful of recurring network
//! shapes; this module provides deterministic synthetic stand-ins for the
//! common ones, plus the two profiles calibrated for the paper's Fig 3 and
//! Fig 4(b) experiments (re-exported from [`crate::trace`]). Every profile
//! is deterministic and documented with its mean and range so experiments
//! can cite exactly what they ran on. The first [`SEEDED`] profiles draw
//! from a seed; the rest are fixed schedules, which [`Corpus`] builds once
//! and shares by handle.

use crate::trace::Trace;
use abr_event::time::Duration;
use abr_media::units::BitsPerSec;

fn kbps(k: u64) -> BitsPerSec {
    BitsPerSec::from_kbps(k)
}

/// A stable wired line (DSL/cable-like): 5 Mbps with ±5% jitter every 10 s.
/// Mean ≈ 5 Mbps. The "easy" profile — every policy should be clean here.
pub fn dsl_stable(total: Duration, seed: u64) -> Trace {
    Trace::random_walk(
        kbps(5_000),
        kbps(4_500),
        kbps(5_500),
        0.05,
        Duration::from_secs(10),
        total,
        seed,
    )
}

/// A walking-pace cellular link (LTE-like): mean ~3 Mbps, swinging between
/// 600 Kbps and 8 Mbps with large steps every 2 s.
pub fn lte_walk(total: Duration, seed: u64) -> Trace {
    Trace::random_walk(
        kbps(3_000),
        kbps(600),
        kbps(8_000),
        0.35,
        Duration::from_secs(2),
        total,
        seed,
    )
}

/// A congested 3G link (HSPA-like): mean ~700 Kbps between 150 Kbps and
/// 1.8 Mbps, choppy (steps every 1.5 s).
pub fn hspa_congested(total: Duration, seed: u64) -> Trace {
    Trace::random_walk(
        kbps(700),
        kbps(150),
        kbps(1_800),
        0.45,
        Duration::from_millis(1_500),
        total,
        seed,
    )
}

/// A commuter-bus profile: comfortable 4 Mbps runs interrupted every ~45 s
/// by deep fades to 100 Kbps lasting ~8 s (tunnels, handovers).
pub fn bus_commute(total: Duration) -> Trace {
    let mut steps = Vec::new();
    let mut elapsed = Duration::ZERO;
    while elapsed < total {
        steps.push((Duration::from_secs(45), kbps(4_000)));
        steps.push((Duration::from_secs(8), kbps(100)));
        elapsed += Duration::from_secs(53);
    }
    Trace::steps(&steps)
}

/// An elevator profile: normal 2.5 Mbps service with a complete outage
/// (0 Kbps) from 60 s to 75 s — the hard test for buffer management.
pub fn elevator(total: Duration) -> Trace {
    let mut steps = vec![
        (Duration::from_secs(60), kbps(2_500)),
        (Duration::from_secs(15), BitsPerSec::ZERO),
    ];
    let mut elapsed = Duration::from_secs(75);
    while elapsed < total {
        steps.push((Duration::from_secs(60), kbps(2_500)));
        elapsed += Duration::from_secs(60);
    }
    Trace::steps(&steps)
}

/// Number of named profiles in [`all`].
pub const LEN: usize = 7;

/// Number of profiles that draw from the seed: the first `SEEDED` of
/// [`all`]. The rest are fixed schedules, equal at every seed.
pub const SEEDED: usize = 3;

/// Whether profile `index` of [`all`] reads the seed. A profile that
/// does not is the same trace in every realization, so a sweep builds it
/// once ([`Corpus`]) and shares it by handle.
pub const fn reads_seed(index: usize) -> bool {
    index < SEEDED
}

/// The seeded profiles, `0..SEEDED`.
fn seeded(total: Duration, seed: u64, index: usize) -> (&'static str, Trace) {
    match index {
        0 => ("dsl-stable", dsl_stable(total, seed)),
        1 => ("lte-walk", lte_walk(total, seed)),
        2 => ("hspa-congested", hspa_congested(total, seed)),
        _ => unreachable!("profile {index} does not read the seed"),
    }
}

/// The fixed profiles, `SEEDED..LEN`. They take no seed, so none can
/// depend on one.
fn fixed(total: Duration, index: usize) -> (&'static str, Trace) {
    match index {
        3 => ("bus-commute", bus_commute(total)),
        4 => ("elevator", elevator(total)),
        5 => ("paper-fig3-600k", Trace::fig3_varying_600k(total)),
        6 => ("paper-fig4b-600k", Trace::fig4b_varying_600k(total)),
        _ => panic!("corpus has {LEN} profiles, index {index} out of range"),
    }
}

/// Builds only the `index`-th profile of [`all`] — byte-identical to
/// `all(total, seed)[index]`, without synthesizing the other six. Safe
/// because every profile draws from `seed` independently (none consumes
/// another's stream), which is what lets fleet drivers realize one
/// session's trace without paying for the whole corpus. Panics when
/// `index >= LEN`.
pub fn nth(total: Duration, seed: u64, index: usize) -> (&'static str, Trace) {
    if reads_seed(index) {
        seeded(total, seed, index)
    } else {
        fixed(total, index)
    }
}

/// Every named profile, for sweep experiments: `(name, trace)`.
pub fn all(total: Duration, seed: u64) -> Vec<(&'static str, Trace)> {
    (0..LEN).map(|i| nth(total, seed, i)).collect()
}

/// The corpus at one trace length, with its fixed profiles built once.
/// [`Corpus::nth`] and [`Corpus::all`] return what the free [`nth`] and
/// [`all`] return at that length, but a fixed profile comes back as a
/// handle to the one shared copy instead of a fresh draw.
#[derive(Debug)]
pub struct Corpus {
    total: Duration,
    /// Profiles `SEEDED..LEN`, in corpus order.
    fixed: Vec<(&'static str, Trace)>,
}

impl Corpus {
    /// Builds the fixed profiles for traces of length `total`.
    pub fn new(total: Duration) -> Corpus {
        Corpus {
            total,
            fixed: (SEEDED..LEN).map(|i| fixed(total, i)).collect(),
        }
    }

    /// Profile `index` for `seed`: a fresh draw when it reads the seed,
    /// a shared handle otherwise. Panics when `index >= LEN`.
    pub fn nth(&self, seed: u64, index: usize) -> (&'static str, Trace) {
        if reads_seed(index) {
            return seeded(self.total, seed, index);
        }
        match self.fixed.get(index - SEEDED) {
            Some((name, trace)) => (name, trace.clone()),
            None => panic!("corpus has {LEN} profiles, index {index} out of range"),
        }
    }

    /// Every profile for `seed`, in [`all`] order.
    pub fn all(&self, seed: u64) -> Vec<(&'static str, Trace)> {
        (0..LEN).map(|i| self.nth(seed, i)).collect()
    }

    /// Approximate heap bytes of the shared fixed profiles, each counted
    /// once however many handles to it are live.
    pub fn shared_bytes(&self) -> u64 {
        self.fixed.iter().map(|(_, t)| t.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;

    const TOTAL: Duration = Duration::from_secs(600);

    #[test]
    fn corpus_is_deterministic() {
        for ((n1, a), (n2, b)) in all(TOTAL, 9).into_iter().zip(all(TOTAL, 9)) {
            assert_eq!(n1, n2);
            assert_eq!(a, b, "{n1} must be seed-deterministic");
        }
    }

    #[test]
    fn means_are_in_documented_ballparks() {
        let horizon = Instant::from_secs(600);
        let cases: Vec<(&str, Trace, u64, u64)> = vec![
            ("dsl", dsl_stable(TOTAL, 1), 4_500, 5_500),
            ("lte", lte_walk(TOTAL, 1), 1_500, 6_000),
            ("hspa", hspa_congested(TOTAL, 1), 300, 1_500),
            ("bus", bus_commute(TOTAL), 3_000, 3_800),
            ("elevator", elevator(TOTAL), 1_800, 2_500),
        ];
        for (name, trace, lo, hi) in cases {
            let mean = trace.mean_over(Instant::ZERO, horizon).kbps();
            assert!(
                (lo..=hi).contains(&mean),
                "{name}: mean {mean} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn bus_commute_has_fades() {
        let t = bus_commute(TOTAL);
        assert_eq!(t.rate_at(Instant::from_secs(10)), kbps(4_000));
        assert_eq!(t.rate_at(Instant::from_secs(48)), kbps(100));
        assert_eq!(t.rate_at(Instant::from_secs(60)), kbps(4_000));
    }

    #[test]
    fn elevator_has_a_true_outage() {
        let t = elevator(TOTAL);
        assert_eq!(t.rate_at(Instant::from_secs(65)), BitsPerSec::ZERO);
        assert_eq!(t.rate_at(Instant::from_secs(80)), kbps(2_500));
    }

    #[test]
    fn nth_matches_all() {
        let full = all(TOTAL, 5);
        assert_eq!(full.len(), LEN);
        for (i, (name, trace)) in full.into_iter().enumerate() {
            let (n, t) = nth(TOTAL, 5, i);
            assert_eq!(n, name);
            assert_eq!(t, trace, "{name} must build identically in isolation");
        }
    }

    #[test]
    fn only_the_seeded_profiles_read_the_seed() {
        let (a, b) = (all(TOTAL, 1), all(TOTAL, 2));
        for (i, ((name, x), (_, y))) in a.iter().zip(&b).enumerate() {
            if reads_seed(i) {
                assert_ne!(x, y, "{name} must differ across seeds");
            } else {
                assert_eq!(x, y, "{name} must not read the seed");
            }
        }
        assert_eq!((0..LEN).filter(|&i| reads_seed(i)).count(), SEEDED);
    }

    #[test]
    fn shared_corpus_matches_fresh_draws() {
        let corpus = Corpus::new(TOTAL);
        for seed in [0, 5, u64::MAX] {
            assert_eq!(corpus.all(seed), all(TOTAL, seed));
        }
        let fixed_bytes: u64 = (SEEDED..LEN)
            .map(|i| nth(TOTAL, 0, i).1.approx_bytes())
            .sum();
        assert_eq!(corpus.shared_bytes(), fixed_bytes);
    }

    #[test]
    #[should_panic(expected = "index 7 out of range")]
    fn shared_corpus_rejects_an_unknown_profile() {
        Corpus::new(TOTAL).nth(1, LEN);
    }

    #[test]
    fn all_profiles_listed_once() {
        let names: Vec<&str> = all(TOTAL, 1).iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), 7);
    }
}
