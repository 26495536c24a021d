//! Fleet-level reporting: per-session QoE distributions, per-domain
//! shared-infrastructure counters, and the demuxed-vs-muxed comparison.
//!
//! Everything rendered here is a pure function of the driver output (and
//! the spec/plans), so the `exp fleet` stdout and `--json` artifacts are
//! byte-identical at every `--jobs` value — the property
//! `tests/fleet_determinism.rs` asserts against these exact strings.

use super::driver::DriverOutput;
use super::{FleetResult, FleetSpec};
use crate::report::Form::{Dec, Mb, Pct, Plain};
use crate::report::{table, Row};
use serde_json::{json, Map, Value};

/// Five-number summary over one per-session metric.
struct Dist {
    p50: f64,
    p90: f64,
    p99: f64,
    mean: f64,
    max: f64,
}

/// Nearest-rank percentiles over finite samples. Deterministic: total
/// order on finite floats, index arithmetic only.
fn dist(mut values: Vec<f64>) -> Dist {
    assert!(!values.is_empty(), "distribution over zero sessions");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    let n = values.len();
    let pick = |p: f64| values[((p * (n - 1) as f64).round() as usize).min(n - 1)];
    Dist {
        p50: pick(0.50),
        p90: pick(0.90),
        p99: pick(0.99),
        mean: values.iter().sum::<f64>() / n as f64,
        max: values[n - 1],
    }
}

impl Dist {
    /// The metric's table row: `label`, then each statistic, which is
    /// also the row's JSON.
    fn row(&self, label: &str) -> Row {
        Row::default()
            .cell("Metric", None, label, Plain)
            .cell("p50", "p50", self.p50, Dec(2))
            .cell("p90", "p90", self.p90, Dec(2))
            .cell("p99", "p99", self.p99, Dec(2))
            .cell("mean", "mean", self.mean, Dec(2))
            .cell("max", "max", self.max, Dec(2))
    }
}

/// Renders the full fleet report: header, QoE distributions, per-domain
/// table, fleet totals. `title_counts` is the only whole-plan aggregate
/// needed (computed in one streamed pass — the plan vector itself is
/// never materialized). Returns `(text, json)`.
pub(super) fn render(
    spec: &FleetSpec,
    title_counts: &[usize],
    out: &DriverOutput,
) -> (String, Value) {
    let summaries: Vec<_> = out.outputs.iter().map(|o| &o.summary).collect();
    let n = summaries.len();

    // Sessions that never reached playback report their deadline as the
    // startup delay — the pessimistic cap keeps the distribution total.
    let startup = dist(
        summaries
            .iter()
            .map(|q| {
                q.startup_delay.map_or(
                    spec.deadline_secs as f64,
                    abr_event::time::Duration::as_secs_f64,
                )
            })
            .collect(),
    );
    let stalls = dist(summaries.iter().map(|q| q.stall_count as f64).collect());
    let stall_s = dist(
        summaries
            .iter()
            .map(|q| q.total_stall.as_secs_f64())
            .collect(),
    );
    let video_kbps = dist(summaries.iter().map(|q| q.mean_video_kbps as f64).collect());
    let switches = dist(
        summaries
            .iter()
            .map(|q| (q.video_switches + q.audio_switches) as f64)
            .collect(),
    );
    let score = dist(summaries.iter().map(|q| q.score).collect());
    let completed = summaries.iter().filter(|q| q.completed).count();

    let metrics = [
        ("Startup s", "startup_s", &startup),
        ("Stalls", "stalls", &stalls),
        ("Stall s", "stall_s", &stall_s),
        ("Video Kbps", "video_kbps", &video_kbps),
        ("Switches", "switches", &switches),
        ("QoE score", "score", &score),
    ];
    let (dist_table, jdists) = table(metrics.iter().map(|(label, _, d)| d.row(label)));
    let jdists: Map = metrics
        .iter()
        .zip(jdists)
        .map(|((_, key, _), dist)| (key.to_string(), dist))
        .collect();

    // Per-domain shared-infrastructure counters. Uplink utilization is
    // busy time over the whole fleet horizon (windows × window width).
    let horizon_us = out.windows * spec.window_ms * 1_000;
    let (domain_table, jdomains) = table(out.domains.iter().map(|d| {
        let util = if horizon_us == 0 {
            0.0
        } else {
            d.uplink.busy_us as f64 / horizon_us as f64
        };
        let origin = d.cache.bytes_from_origin.get();
        let max_delay_ms = d.uplink.max_delay.as_secs_f64() * 1_000.0;
        Row::default()
            .cell("Domain", "domain", d.domain, Plain)
            .cell("Sessions", "sessions", d.sessions, Plain)
            .cell("Peak", "peak_active", d.peak_active, Plain)
            .json("hits", d.cache.hits)
            .json("misses", d.cache.misses)
            .cell("Hit %", "hit_ratio", d.cache.hit_ratio(), Pct(1))
            .cell("Origin MB", "origin_bytes", origin, Mb(1))
            .cell("Evict", "evictions", d.cache.evictions, Plain)
            .json("uplink_bytes", d.uplink.bytes)
            .json("uplink_busy_us", d.uplink.busy_us)
            .cell("Uplink %", "uplink_utilization", util, Pct(1))
            .cell("MaxDelay ms", "uplink_max_delay_ms", max_delay_ms, Dec(1))
    }));
    let fleet_hits: u64 = out.domains.iter().map(|d| d.cache.hits).sum();
    let fleet_misses: u64 = out.domains.iter().map(|d| d.cache.misses).sum();
    let fleet_origin_bytes: u64 = out
        .domains
        .iter()
        .map(|d| d.cache.bytes_from_origin.get())
        .sum();
    let fleet_evictions: u64 = out.domains.iter().map(|d| d.cache.evictions).sum();

    let fleet_requests = fleet_hits + fleet_misses;
    let fleet_hit_ratio = if fleet_requests == 0 {
        0.0
    } else {
        fleet_hits as f64 / fleet_requests as f64
    };
    let head_share = title_counts[0] as f64 / n as f64;

    let delivery = format!("{:?}", spec.delivery);
    let header = format!(
        "fleet: {} sessions | {} domains | {} shards | {} titles (zipf a={}) | {} delivery\n\
         window {} ms | uplink {} Kbps/domain | origin {} Kbps | cache {} MB/domain\n",
        spec.sessions,
        spec.domains,
        spec.shards,
        spec.titles,
        spec.zipf_alpha,
        delivery,
        spec.window_ms,
        spec.uplink_kbps,
        spec.origin_kbps,
        spec.cache_mb,
    );
    let totals = format!(
        "completed {completed}/{n} | cache hit {:.1}% | origin {:.1} MB | \
         throttled {}/{} windows | head title {:.1}%\n",
        fleet_hit_ratio * 100.0,
        fleet_origin_bytes as f64 / 1e6,
        out.throttled_windows,
        out.windows,
        head_share * 100.0,
    );
    let text = format!("{header}{dist_table}{domain_table}{totals}");

    let jtotals = json!({
        "completed": completed,
        "sessions": n,
        "hits": fleet_hits,
        "misses": fleet_misses,
        "hit_ratio": fleet_hit_ratio,
        "origin_bytes": fleet_origin_bytes,
        "evictions": fleet_evictions,
        "windows": out.windows,
        "throttled_windows": out.throttled_windows,
        "head_title_share": head_share,
        "stall_s_mean": stall_s.mean,
        "stalls_mean": stalls.mean,
        "video_kbps_mean": video_kbps.mean,
        "startup_s_mean": startup.mean,
        "score_mean": score.mean,
    });
    let jspec = json!({
        "sessions": spec.sessions,
        "domains": spec.domains,
        "shards": spec.shards,
        "titles": spec.titles,
        "zipf_alpha": spec.zipf_alpha,
        "arrival_secs": spec.arrival_secs,
        "delivery": delivery,
        "uplink_kbps": spec.uplink_kbps,
        "origin_kbps": spec.origin_kbps,
        "cache_mb": spec.cache_mb,
        "miss_rtt_ms": spec.miss_rtt_ms,
        "window_ms": spec.window_ms,
        "deadline_secs": spec.deadline_secs,
        "seed": spec.seed,
    });
    let jvalue = json!({
        "spec": jspec,
        "distributions": jdists,
        "domains": jdomains,
        "title_counts": title_counts,
        "totals": jtotals,
    });
    (text, jvalue)
}

/// Renders the demuxed-vs-muxed head-to-head (the headline artifact):
/// under identical arrivals and topology, demuxed packaging shares video
/// bytes across sessions with different audio choices, so its cache-hit
/// ratio is higher and its origin load lower.
pub(super) fn render_comparison(
    spec: &FleetSpec,
    demuxed: &FleetResult,
    muxed: &FleetResult,
) -> (String, Value) {
    let pick = |r: &FleetResult, key: &str| -> f64 {
        let total = r.json["totals"][key].as_f64();
        total.unwrap_or_else(|| panic!("fleet totals have no `{key}`"))
    };
    let row = |label: &str, key: &str, scale: f64, precision: usize| {
        let d = pick(demuxed, key) * scale;
        let m = pick(muxed, key) * scale;
        Row::default()
            .cell("Metric", None, label, Plain)
            .cell("Demuxed", None, d, Dec(precision))
            .cell("Muxed", None, m, Dec(precision))
            .cell("Delta", None, format!("{:+.precision$}", d - m), Plain)
    };
    let (comparison, _) = table([
        row("Cache hit %", "hit_ratio", 100.0, 1),
        row("Origin MB", "origin_bytes", 1e-6, 1),
        row("Throttled windows", "throttled_windows", 1.0, 0),
        row("Stalls/session", "stalls_mean", 1.0, 2),
        row("Stall s/session", "stall_s_mean", 1.0, 2),
        row("Video Kbps", "video_kbps_mean", 1.0, 0),
        row("Startup s", "startup_s_mean", 1.0, 2),
        row("QoE score", "score_mean", 1.0, 2),
    ]);
    let text = format!(
        "fleet comparison: {} sessions x 2 deliveries | {} domains | seed {}\n\
         {comparison}\n\
         === demuxed fleet ===\n{}\n=== muxed fleet ===\n{}",
        spec.sessions, spec.domains, spec.seed, demuxed.text, muxed.text,
    );
    let jdeltas = json!({
        "hit_ratio": pick(demuxed, "hit_ratio") - pick(muxed, "hit_ratio"),
        "origin_bytes": pick(demuxed, "origin_bytes") - pick(muxed, "origin_bytes"),
        "stall_s_mean": pick(demuxed, "stall_s_mean") - pick(muxed, "stall_s_mean"),
        "video_kbps_mean": pick(demuxed, "video_kbps_mean") - pick(muxed, "video_kbps_mean"),
    });
    let jvalue = json!({
        "sessions": spec.sessions,
        "demuxed": demuxed.json,
        "muxed": muxed.json,
        "deltas": jdeltas,
    });
    (text, jvalue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_session_is_every_percentile() {
        let d = dist(vec![2.5]);
        assert_eq!(
            (d.p50, d.p90, d.p99, d.mean, d.max),
            (2.5, 2.5, 2.5, 2.5, 2.5)
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // 0, 1, ..., 100: rank p * 100 is the value itself.
        let d = dist((0..=100).map(f64::from).collect());
        assert_eq!((d.p50, d.p90, d.p99, d.max), (50.0, 90.0, 99.0, 100.0));
        assert_eq!(d.mean, 50.0);
        // Four samples: rank 0.5 * 3 = 1.5 rounds up to index 2.
        let d = dist(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((d.p50, d.p90, d.p99), (3.0, 4.0, 4.0));
    }

    #[test]
    fn sample_order_does_not_matter() {
        let sorted = dist(vec![1.0, 2.0, 3.0, 10.0, 20.0]);
        let shuffled = dist(vec![20.0, 3.0, 1.0, 10.0, 2.0]);
        assert_eq!(sorted.row("x"), shuffled.row("x"));
    }

    #[test]
    fn rows_render_two_decimals() {
        let (text, json) = table([dist(vec![1.0, 2.0]).row("Stalls")]);
        assert!(
            text.contains("| Stalls | 2.00 | 2.00 | 2.00 | 1.50 | 2.00 |"),
            "{text}"
        );
        let json = serde_json::to_string(&json[0]).expect("serialize");
        assert_eq!(
            json,
            r#"{"max":2.0,"mean":1.5,"p50":2.0,"p90":2.0,"p99":2.0}"#
        );
    }

    #[test]
    #[should_panic(expected = "fleet totals have no `hit_ratio`")]
    fn comparison_rejects_a_missing_total() {
        let result = || FleetResult {
            text: String::new(),
            json: json!({ "totals": json!({}) }),
            sessions: 0,
            logs: None,
        };
        let _ = render_comparison(&FleetSpec::small(1), &result(), &result());
    }

    #[test]
    #[should_panic(expected = "distribution over zero sessions")]
    fn rejects_an_empty_fleet() {
        let _ = dist(Vec::new());
    }

    #[test]
    #[should_panic(expected = "finite metric")]
    fn rejects_a_nan_metric() {
        let _ = dist(vec![1.0, f64::NAN]);
    }
}
