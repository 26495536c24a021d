//! Property and emergent-behavior tests for the fleet engine's arrival
//! model: the Zipf catalog skew must translate into cache-hit rates the
//! way the paper's CDN argument assumes (DESIGN.md §14). The per-domain
//! live-session and per-run window counters the report carries are
//! pinned here too.

use abr_bench::fleet::{run_fleet, FleetSpec, PlanSource};
use proptest::prelude::*;
use serde::Value;

/// Each domain's `(sessions, peak_active)` from a fleet's JSON report.
fn domain_occupancy(json: &Value) -> Vec<(u64, u64)> {
    json["domains"]
        .as_array()
        .expect("report lists its domains")
        .iter()
        .map(|d| {
            let field = |k: &str| d[k].as_u64().expect("domain counter");
            (field("sessions"), field("peak_active"))
        })
        .collect()
}

/// The run's `(windows, throttled_windows)` totals.
fn window_counters(json: &Value) -> (u64, u64) {
    let field = |k: &str| json["totals"][k].as_u64().expect("window counter");
    (field("windows"), field("throttled_windows"))
}

/// Share of sessions landing on the head title under `alpha` skew, over
/// a fixed 12-title catalog.
fn head_share(sessions: usize, alpha: f64, seed: u64) -> f64 {
    let spec = FleetSpec {
        zipf_alpha: alpha,
        seed,
        ..FleetSpec::small(sessions)
    };
    let source = PlanSource::new(&spec);
    source.iter().filter(|p| p.title == 0).count() as f64 / source.len() as f64
}

proptest! {
    /// Raising the Zipf skew concentrates arrivals on the head title, for
    /// any seed and any base skew: the realized popularity is monotone in
    /// `alpha`. (1000 samples and a ≥0.6 skew gap keep the expected share
    /// difference ≥ 4 sampling standard deviations, so this is a property
    /// of the model, not of one lucky seed.)
    #[test]
    fn zipf_head_share_is_monotone_in_skew(
        seed in any::<u64>(),
        lo in 0.0f64..1.2,
        gap in 0.6f64..1.5,
    ) {
        let flat = head_share(1_000, lo, seed);
        let skewed = head_share(1_000, lo + gap, seed);
        prop_assert!(
            skewed >= flat,
            "alpha {} -> head share {}, alpha {} -> {}",
            lo, flat, lo + gap, skewed
        );
    }
}

/// The emergent end-to-end version of the property above: running the
/// *fleet* (not just the plan) with a skewed catalog produces a higher
/// cache-hit ratio than a uniform catalog, because popular-title sessions
/// share video bytes through the domain caches. Hit rate is an output of
/// the simulation here, never an input.
#[test]
fn zipf_skew_raises_the_emergent_cache_hit_rate() {
    let base = FleetSpec {
        arrival_secs: 30,
        ..FleetSpec::small(32)
    };
    let hit_ratio = |alpha: f64| {
        let spec = FleetSpec {
            zipf_alpha: alpha,
            ..base.clone()
        };
        run_fleet(&spec, 2).json["totals"]["hit_ratio"]
            .as_f64()
            .expect("totals carry the fleet hit ratio")
    };
    let flat = hit_ratio(0.0);
    let skewed = hit_ratio(1.5);
    assert!(
        skewed > flat,
        "skewed catalog must cache better: alpha 0.0 -> {flat:.3}, alpha 1.5 -> {skewed:.3}"
    );
}

/// A domain's peak of concurrently live sessions is at least one when any
/// session ran there and never more than the sessions it ran; every
/// session runs in exactly one domain.
#[test]
fn peak_active_is_bounded_by_domain_sessions() {
    let spec = FleetSpec {
        arrival_secs: 30,
        ..FleetSpec::small(16)
    };
    let occupancy = domain_occupancy(&run_fleet(&spec, 2).json);
    assert_eq!(occupancy.len(), spec.domains);
    let total: u64 = occupancy.iter().map(|&(sessions, _)| sessions).sum();
    assert_eq!(total, 16, "every session runs in one domain");
    for (d, &(sessions, peak)) in occupancy.iter().enumerate() {
        assert!(
            peak <= sessions,
            "domain {d}: peak {peak} > {sessions} sessions"
        );
        assert_eq!(
            peak > 0,
            sessions > 0,
            "domain {d}: peak {peak}, {sessions} sessions"
        );
    }
}

/// Sessions that all arrive within the first second overlap for their
/// whole startup, so every domain peaks with all of its sessions live.
#[test]
fn sessions_arriving_together_are_all_live_at_once() {
    let spec = FleetSpec {
        arrival_secs: 0,
        ..FleetSpec::small(8)
    };
    for (d, (sessions, peak)) in domain_occupancy(&run_fleet(&spec, 2).json)
        .into_iter()
        .enumerate()
    {
        assert_eq!(peak, sessions, "domain {d}");
    }
}

/// The throttle counter counts windows whose fleet-wide miss demand
/// exceeded the origin: never with an origin no demand can reach, in some
/// but not all windows with a starved one. Every worker folds the same
/// windows, so the counters are the same at every worker count.
#[test]
fn throttle_counter_tracks_origin_capacity() {
    let base = FleetSpec {
        arrival_secs: 0,
        ..FleetSpec::small(8)
    };
    let ample = FleetSpec {
        origin_kbps: 1 << 40,
        ..base.clone()
    };
    let (windows, throttled) = window_counters(&run_fleet(&ample, 1).json);
    assert!(windows > 0);
    assert_eq!(throttled, 0, "an unreachable origin cap never engages");
    let starved = FleetSpec {
        origin_kbps: 1_000,
        ..base
    };
    let serial = window_counters(&run_fleet(&starved, 1).json);
    let (windows, throttled) = serial;
    assert!(
        0 < throttled && throttled < windows,
        "{throttled} of {windows} windows throttled"
    );
    for jobs in [2, 4] {
        let parallel = window_counters(&run_fleet(&starved, jobs).json);
        assert_eq!(parallel, serial, "--jobs {jobs}");
    }
}
