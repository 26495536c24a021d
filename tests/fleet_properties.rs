//! Property and emergent-behavior tests for the fleet engine's arrival
//! model: the Zipf catalog skew must translate into cache-hit rates the
//! way the paper's CDN argument assumes (DESIGN.md §14).

use abr_bench::fleet::{run_fleet, FleetSpec, PlanSource};
use proptest::prelude::*;

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
