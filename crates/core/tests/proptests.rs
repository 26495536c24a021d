//! Property-based tests for estimators and policy decision rules.

use abr_core::bba::{BbaConfig, BbaPolicy};
use abr_core::estimators::{Ewma, HarmonicMean, JointEwma, ShakaEstimator, SlidingPercentile};
use abr_core::mpc::{MpcConfig, MpcPolicy};
use abr_core::{BestPracticePolicy, CappedPolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_event::time::{Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::profile::{DeliveryProfile, Segment};
use abr_net::trace::Trace;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};
use abr_player::session::Session;
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

fn record(rate_kbps: u64, secs: u64, start_secs: u64) -> TransferRecord {
    let start = Instant::from_secs(start_secs);
    let end = start + Duration::from_secs(secs);
    let mut profile = DeliveryProfile::new();
    profile.push(Segment {
        start,
        end,
        rate: BitsPerSec::from_kbps(rate_kbps),
    });
    let size = BitsPerSec::from_kbps(rate_kbps).bytes_in_micros(secs * 1_000_000);
    TransferRecord {
        media: MediaType::Video,
        track: TrackId::video(0),
        chunk: 0,
        size,
        opened_at: start,
        completed_at: end,
        profile,
        window_bytes: size,
        window_busy: Duration::from_secs(secs),
    }
}

/// A plausible combination ladder from arbitrary bandwidths.
fn arb_pairs() -> impl Strategy<Value = Vec<(Combo, BitsPerSec)>> {
    proptest::collection::vec(10u64..5000, 1..12).prop_map(|mut kbps| {
        kbps.sort_unstable();
        kbps.dedup();
        kbps.iter()
            .enumerate()
            .map(|(i, &k)| (Combo::new(i, 0), BitsPerSec::from_kbps(k)))
            .collect()
    })
}

/// Distinct combinations over a 4-video × 3-audio grid with arbitrary
/// bandwidths: unlike `arb_pairs`, a video rung may pair with several
/// audio rungs, so a mismatched audio pick can leave the set.
fn arb_joint_pairs() -> impl Strategy<Value = Vec<(Combo, BitsPerSec)>> {
    proptest::collection::vec((0usize..4, 0usize..3, 10u64..5000), 1..12).prop_map(|raw| {
        let mut pairs: Vec<(Combo, BitsPerSec)> = Vec::new();
        for (v, a, kbps) in raw {
            let combo = Combo::new(v, a);
            if pairs.iter().all(|&(c, _)| c != combo) {
                pairs.push((combo, BitsPerSec::from_kbps(kbps)));
            }
        }
        pairs
    })
}

/// Reference sliding percentile: the copy-and-sort median computed on
/// every query, as `SlidingPercentile` did before it cached the result.
struct ScanPercentile {
    max_weight: f64,
    samples: std::collections::VecDeque<(f64, f64)>,
    total_weight: f64,
}

impl ScanPercentile {
    fn add(&mut self, weight: f64, value: f64) {
        self.samples.push_back((weight, value));
        self.total_weight += weight;
        while self.total_weight > self.max_weight && self.samples.len() > 1 {
            let (w, _) = self.samples.pop_front().unwrap();
            self.total_weight -= w;
        }
    }

    fn median(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<(f64, f64)> = self.samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let half = self.total_weight / 2.0;
        let mut acc = 0.0;
        for (w, v) in &sorted {
            acc += w;
            if acc >= half {
                return Some(*v);
            }
        }
        sorted.last().map(|(_, v)| *v)
    }
}

proptest! {
    /// Differential: after every `add`, the cached median is bit-identical
    /// to the reference copy-and-sort median. Values come from a small
    /// set so ties (where sort stability matters) are common.
    #[test]
    fn cached_median_matches_scan_reference(
        max_weight in 20.0f64..600.0,
        samples in proptest::collection::vec((0.5f64..150.0, 0u64..6), 1..80),
    ) {
        let mut p = SlidingPercentile::new(max_weight);
        let mut reference = ScanPercentile {
            max_weight,
            samples: std::collections::VecDeque::new(),
            total_weight: 0.0,
        };
        prop_assert_eq!(p.median(), None);
        for &(w, k) in &samples {
            let value = 250_000.0 * k as f64 + 0.5;
            p.add(w, value);
            reference.add(w, value);
            prop_assert_eq!(
                p.median().map(f64::to_bits),
                reference.median().map(f64::to_bits)
            );
        }
    }

    /// An EWMA estimate always lies within [min, max] of its samples.
    #[test]
    fn ewma_bounded_by_samples(
        half_life in 1u32..20,
        samples in proptest::collection::vec(1.0f64..1e7, 1..100),
    ) {
        let mut e = Ewma::with_half_life(half_life as f64);
        for &s in &samples {
            e.sample(0.125, s);
        }
        let est = e.estimate().unwrap();
        let lo = samples.iter().copied().fold(f64::MAX, f64::min);
        let hi = samples.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6, "{est} outside [{lo}, {hi}]");
    }

    /// The sliding-percentile median is always one of the sample values,
    /// and total weight never exceeds the cap by more than one sample.
    #[test]
    fn sliding_percentile_median_is_a_sample(
        samples in proptest::collection::vec((1.0f64..100.0, 1.0f64..1e7), 1..60),
    ) {
        let mut p = SlidingPercentile::new(500.0);
        for &(w, v) in &samples {
            p.add(w, v);
        }
        let m = p.median().unwrap();
        prop_assert!(samples.iter().any(|&(_, v)| (v - m).abs() < 1e-9));
    }

    /// The harmonic mean is never above the arithmetic mean and always
    /// within the sample range.
    #[test]
    fn harmonic_mean_bounds(samples in proptest::collection::vec(1_000.0f64..1e7, 1..30)) {
        let mut h = HarmonicMean::new(samples.len());
        for &s in &samples {
            h.add(s);
        }
        let est = h.estimate().unwrap().bps() as f64;
        let lo = samples.iter().copied().fold(f64::MAX, f64::min);
        let arith = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!(est >= lo - 1.0, "{est} < min {lo}");
        prop_assert!(est <= arith + 1.0, "harmonic {est} > arithmetic {arith}");
    }

    /// Shaka's filter is a threshold in disguise: rates strictly below
    /// ~1.049 Mbps (16 KiB per 0.125 s) never produce samples, rates above
    /// always do.
    #[test]
    fn shaka_filter_threshold(kbps in 100u64..4_000) {
        let mut s = ShakaEstimator::new();
        s.on_transfer(&record(kbps, 4, 0));
        let threshold_bps = (Bytes::from_kib(16).bits() as f64 / 0.125) as u64; // 1_048_576 bps
        if kbps * 1000 < threshold_bps {
            prop_assert_eq!(s.sampled_bytes(), Bytes::ZERO);
            prop_assert_eq!(s.estimate().kbps(), 500);
        } else {
            prop_assert!(s.sampled_bytes() > Bytes::ZERO);
        }
    }

    /// Shaka's selection is monotone in the estimate and always within the
    /// candidate set.
    #[test]
    fn shaka_choice_monotone(estimates in proptest::collection::vec(50u64..6_000, 2..40)) {
        let content = abr_media::content::Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(
            &abr_manifest::build::build_mpd(&content),
        ).unwrap();
        let p = ShakaPolicy::dash(&view);
        let mut sorted = estimates.clone();
        sorted.sort_unstable();
        let picks: Vec<Combo> = sorted
            .iter()
            .map(|&k| p.choice_for_estimate(BitsPerSec::from_kbps(k)))
            .collect();
        // Higher estimate never selects a *cheaper* combination.
        let bw = |c: Combo| {
            view.video_declared[c.video].bps() + view.audio_declared[c.audio].bps()
        };
        for w in picks.windows(2) {
            prop_assert!(bw(w[1]) >= bw(w[0]));
        }
    }

    /// The ExoPlayer staircase never selects outside the ladder and its
    /// chosen index is monotone in the budget.
    #[test]
    fn exoplayer_ideal_monotone(budgets in proptest::collection::vec(50u64..8_000, 2..30)) {
        let content = abr_media::content::Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(
            &abr_manifest::build::build_mpd(&content),
        ).unwrap();
        let mut sorted = budgets.clone();
        sorted.sort_unstable();
        let mut last_idx = 0usize;
        for &k in &sorted {
            // Fresh policy per budget: feed one dominating estimate, then
            // select with a deep buffer (no hysteresis interference).
            let mut p = ExoPlayerPolicy::dash(&view);
            let size = BitsPerSec::from_kbps(k * 4 / 3).bytes_in_micros(8_000_000);
            for _ in 0..8 {
                p.on_transfer(&TransferRecord {
                    media: MediaType::Video,
                    track: TrackId::video(0),
                    chunk: 0,
                    size,
                    opened_at: Instant::ZERO,
                    completed_at: Instant::from_secs(8),
                    profile: DeliveryProfile::new(),
                    window_bytes: size,
                    window_busy: Duration::from_secs(8),
                });
            }
            let ctx = SelectionContext {
                now: Instant::from_secs(1),
                media: MediaType::Video,
                chunk: 0,
                audio_level: Duration::from_secs(20),
                video_level: Duration::from_secs(20),
                chunk_duration: Duration::from_secs(4),
                current_audio: None,
                current_video: None,
                playing: true,
            };
            let v = p.select(&ctx);
            prop_assert!(v.index < 6);
            let idx = p
                .combinations()
                .iter()
                .position(|c| c.video == v.index)
                .expect("selected combo exists");
            prop_assert!(idx >= last_idx || idx == 0);
            last_idx = idx.max(last_idx);
        }
    }

    /// BBA's map is monotone in the buffer level for arbitrary regions and
    /// ladder sizes, pinned to the ends outside [reservoir, cushion].
    #[test]
    fn bba_map_monotone(
        pairs in arb_pairs(),
        reservoir_s in 1u64..20,
        cushion_s in 1u64..60,
        levels in proptest::collection::vec(0u64..120, 2..40),
    ) {
        let n = pairs.len();
        let p = BbaPolicy::from_combos(pairs).with_config(BbaConfig {
            reservoir: Duration::from_secs(reservoir_s),
            cushion: Duration::from_secs(cushion_s),
        });
        let mut sorted = levels.clone();
        sorted.sort_unstable();
        let mut last = 0usize;
        for &l in &sorted {
            let level = Duration::from_secs(l);
            // map_index is private; drive through select on a fresh clone
            // so stickiness doesn't interfere.
            let mut fresh = p.clone();
            let ctx = SelectionContext {
                now: Instant::ZERO,
                media: MediaType::Video,
                chunk: l as usize, // distinct position per probe
                audio_level: level,
                video_level: level,
                chunk_duration: Duration::from_secs(4),
                current_audio: None,
                current_video: None,
                playing: true,
            };
            let v = fresh.select(&ctx).index;
            prop_assert!(v < n.max(1) * 100, "sane index");
            // For fresh policies the first decision equals the raw map.
            prop_assert!(v >= last || l <= reservoir_s, "monotone-ish from zero state");
            last = v.max(last);
            if l <= reservoir_s {
                prop_assert_eq!(fresh.select(&SelectionContext { chunk: 9999, ..ctx }).index,
                    fresh_lowest(&p));
            }
        }
    }

    /// Every joint policy's audio and video picks for one chunk position
    /// form one combination of its set — also when the estimate and the
    /// buffer move between the two requests, whichever media asks first,
    /// and whatever order positions arrive in. The data-saver wrapper's
    /// set is the combinations under its cap.
    #[test]
    fn joint_lock_holds_for_every_joint_policy(
        pairs in arb_joint_pairs(),
        cap_rank in 0usize..12,
        steps in proptest::collection::vec(
            (50u64..6_000, 0u64..40, 50u64..6_000, 0u64..40, any::<bool>(), 0usize..40),
            1..30,
        ),
    ) {
        let mut rates: Vec<BitsPerSec> = pairs.iter().map(|&(_, bw)| bw).collect();
        rates.sort_unstable();
        let cap = rates[cap_rank % rates.len()];
        let under_cap: Vec<Combo> =
            pairs.iter().filter(|&&(_, bw)| bw <= cap).map(|&(c, _)| c).collect();
        let all: Vec<Combo> = pairs.iter().map(|&(c, _)| c).collect();
        let policies: Vec<(Box<dyn AbrPolicy>, &[Combo])> = vec![
            (Box::new(BestPracticePolicy::from_combos(pairs.clone())), &all),
            (Box::new(BbaPolicy::from_combos(pairs.clone())), &all),
            (Box::new(MpcPolicy::from_combos(pairs.clone())), &all),
            (
                Box::new(CappedPolicy::new(
                    Box::new(BestPracticePolicy::from_combos(pairs.clone())),
                    pairs.clone(),
                    cap,
                )),
                &under_cap,
            ),
        ];
        for (mut p, set) in policies {
            // Positions arrive in any order.
            for (i, &(kbps1, buf1, kbps2, buf2, video_first, chunk)) in steps.iter().enumerate() {
                let ctx = |media, buf| SelectionContext {
                    now: Instant::from_secs(i as u64 * 4),
                    media,
                    chunk,
                    audio_level: Duration::from_secs(buf),
                    video_level: Duration::from_secs(buf),
                    chunk_duration: Duration::from_secs(4),
                    current_audio: None,
                    current_video: None,
                    playing: true,
                };
                let (first, second) = if video_first {
                    (MediaType::Video, MediaType::Audio)
                } else {
                    (MediaType::Audio, MediaType::Video)
                };
                p.on_transfer(&record(kbps1, 2, i as u64 * 4));
                let x = p.select(&ctx(first, buf1));
                p.on_transfer(&record(kbps2, 2, i as u64 * 4 + 2));
                let y = p.select(&ctx(second, buf2));
                let (v, a) = if video_first { (x, y) } else { (y, x) };
                let combo = Combo::new(v.index, a.index);
                prop_assert!(set.contains(&combo), "{}: {} outside its set", p.name(), combo);
            }
        }
    }
}

/// The lowest rung's video index for a BBA policy built from `arb_pairs`
/// (always combo index 0, which `arb_pairs` builds with ascending video).
fn fresh_lowest(_p: &BbaPolicy) -> usize {
    0
}

/// The MPC search's definition (see `MpcPolicy::plan`): score every leaf
/// in lexicographic order, one step term at a time, and return the first
/// action of the first leaf with the strictly greatest score.
fn flat_plan(
    bw: &[f64],
    cfg: MpcConfig,
    buffer_s: f64,
    chunk_s: f64,
    predicted_bps: f64,
    prev: usize,
) -> usize {
    let n = bw.len();
    let prev = prev.min(n - 1);
    let q: Vec<f64> = bw.iter().map(|&b| b / 1e6).collect();
    let download_s: Vec<f64> = bw.iter().map(|&b| b * chunk_s / predicted_bps).collect();
    let mut leaf = vec![0usize; cfg.horizon.max(1)];
    let (mut best_score, mut best_first) = (f64::NEG_INFINITY, prev);
    loop {
        let (mut score, mut buf, mut last) = (0.0, buffer_s, prev);
        for &c in &leaf {
            let stall = (download_s[c] - buf).max(0.0);
            buf = (buf - download_s[c]).max(0.0) + chunk_s;
            let term =
                q[c] - cfg.switch_penalty * (q[c] - q[last]).abs() - cfg.stall_penalty * stall;
            score += term;
            last = c;
        }
        if score > best_score {
            (best_score, best_first) = (score, leaf[0]);
        }
        // Next leaf in lexicographic order (the last step counts fastest).
        let mut i = leaf.len();
        loop {
            if i == 0 {
                return best_first;
            }
            i -= 1;
            leaf[i] += 1;
            if leaf[i] < n {
                break;
            }
            leaf[i] = 0;
        }
    }
}

/// An [`MpcPolicy`] that publishes its search-node count after every
/// decision, so a test can read it once the session owns the policy.
struct CountingMpc {
    inner: MpcPolicy,
    nodes: Rc<Cell<u64>>,
}

impl AbrPolicy for CountingMpc {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        self.inner.on_transfer(record);
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let chosen = self.inner.select(ctx);
        self.nodes.set(self.inner.search_nodes());
        chosen
    }
}

/// Pins the search work of one session: the exact number of nodes MPC's
/// `plan` evaluates over the Fig 4(b) trace, with MPC's player settings
/// and the curated DASH combinations the `exp mc` arm uses. A looser
/// bound (or anything else that visits more nodes) shows up as a diff:
/// the `q_max`-per-step bound with no floor visited 97,398.
#[test]
fn mpc_search_nodes_on_the_f4b_session() {
    let content = Content::drama_show(2019);
    let chunk = content.chunk_duration();
    let view =
        abr_manifest::view::BoundDash::from_mpd(&abr_manifest::build::build_mpd(&content)).unwrap();
    let allowed = abr_media::combo::curated_subset(content.video(), content.audio());
    let nodes = Rc::new(Cell::new(0));
    let policy = CountingMpc {
        inner: MpcPolicy::from_dash(&view, &allowed),
        nodes: Rc::clone(&nodes),
    };
    let config = PlayerConfig {
        startup_threshold: chunk,
        resume_threshold: chunk * 2,
        max_buffer: Duration::from_secs(30),
        sync: SyncMode::ChunkLevel { tolerance: chunk },
    };
    let link = Link::with_latency(
        Trace::fig4b_varying_600k(Duration::from_secs(3600)),
        Duration::from_millis(20),
    );
    let log = Session::new(
        Origin::with_overhead(content, Bytes::ZERO),
        link,
        Box::new(policy),
        config,
    )
    .run();
    assert_eq!((log.selections.len(), nodes.get()), (150, 31_566));
}

/// Reference EWMA: `alpha^weight` computed on every sample and the
/// estimate on every query, as `Ewma` did before it cached the power.
struct ScanEwma {
    alpha: f64,
    estimate: f64,
    total_weight: f64,
}

impl ScanEwma {
    fn new(half_life_secs: f64) -> ScanEwma {
        ScanEwma {
            alpha: 0.5f64.powf(1.0 / half_life_secs),
            estimate: 0.0,
            total_weight: 0.0,
        }
    }

    fn sample(&mut self, weight_secs: f64, value: f64) {
        let adj = self.alpha.powf(weight_secs);
        self.estimate = adj * self.estimate + (1.0 - adj) * value;
        self.total_weight += weight_secs;
    }

    fn estimate(&self) -> Option<f64> {
        (self.total_weight != 0.0)
            .then(|| self.estimate / (1.0 - self.alpha.powf(self.total_weight)))
    }
}

/// Reference Shaka estimator: every δ window scanned with
/// `bytes_between`, and the estimate recomputed on every query.
struct ScanShaka {
    fast: ScanEwma,
    slow: ScanEwma,
    total_sampled: Bytes,
}

impl ScanShaka {
    fn on_transfer(&mut self, rec: &TransferRecord) {
        let delta = Duration::from_millis(125);
        let (Some(start), Some(end)) = (rec.profile.start(), rec.profile.end()) else {
            return;
        };
        let mut t = start;
        while t + delta <= end {
            let bytes = rec.profile.bytes_between(t, t + delta);
            if bytes >= Bytes::from_kib(16) {
                let rate = bytes.rate_over_micros(delta.as_micros()).bps() as f64;
                self.fast.sample(0.125, rate);
                self.slow.sample(0.125, rate);
                self.total_sampled += bytes;
            }
            t += delta;
        }
    }

    fn estimate(&self) -> BitsPerSec {
        let default = BitsPerSec::from_kbps(500);
        if self.total_sampled < Bytes(128_000) {
            return default;
        }
        match (self.fast.estimate(), self.slow.estimate()) {
            (Some(f), Some(s)) => BitsPerSec(f.min(s).round() as u64),
            _ => default,
        }
    }
}

/// A transfer whose delivery profile is `spans` of (gap before, length,
/// rate) in milliseconds and Kbps, with aggregate window fields
/// `window_kb` over `busy_ms`.
fn profiled_record(spans: &[(u64, u64, u64)], window_kb: u64, busy_ms: u64) -> TransferRecord {
    let mut profile = DeliveryProfile::new();
    let mut t = Instant::ZERO;
    for &(gap_ms, len_ms, kbps) in spans {
        t += Duration::from_millis(gap_ms);
        let end = t + Duration::from_millis(len_ms);
        profile.push(Segment {
            start: t,
            end,
            rate: BitsPerSec::from_kbps(kbps),
        });
        t = end;
    }
    TransferRecord {
        media: MediaType::Video,
        track: TrackId::video(0),
        chunk: 0,
        size: profile.total_bytes(),
        opened_at: Instant::ZERO,
        completed_at: t,
        profile,
        window_bytes: Bytes(window_kb * 1000),
        window_busy: Duration::from_millis(busy_ms),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential: `plan`'s first action equals the flat enumeration's
    /// on random ladders with tied bandwidths, buffers exactly on a
    /// download-time boundary, horizons 1–6, and switch penalties both
    /// below and at or above the remaining step count.
    #[test]
    fn mpc_plan_matches_flat_enumeration(
        horizon in 1usize..7,
        rungs in proptest::collection::vec(1u64..9, 1..13),
        lambda_pick in 0usize..8,
        lambda_free in 0.0f64..8.0,
        stall_penalty in 0.0f64..10.0,
        pred_rung in 0usize..12,
        pred_quarters in 1u64..9,
        buffer_pick in 0usize..16,
        buffer_free in 0.0f64..30.0,
        chunk_pick in 0usize..3,
        prev in 0usize..14,
    ) {
        // At most 4096 leaves, so the flat enumeration stays cheap.
        let max_rungs = [12, 12, 10, 8, 5, 4][horizon - 1];
        // Rungs come from 8 values in 250 Kbps steps: ties are common.
        let mut kbps: Vec<u64> = rungs.iter().take(max_rungs).map(|&k| 250 * k).collect();
        kbps.sort_unstable();
        let n = kbps.len();
        let bw: Vec<f64> = kbps.iter().map(|&k| BitsPerSec::from_kbps(k).bps() as f64).collect();
        let cfg = MpcConfig {
            horizon,
            switch_penalty: [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 6.0, lambda_free][lambda_pick],
            stall_penalty,
        };
        let chunk_s = [2.0, 4.0, 6.0][chunk_pick];
        let predicted_bps = bw[pred_rung % n] * pred_quarters as f64 / 4.0;
        let buffer_s = match buffer_pick {
            // Exactly one rung's download time: the stall term's kink.
            i if i < n => bw[i] * chunk_s / predicted_bps,
            14 => 0.0,
            _ => buffer_free,
        };
        let mut p = MpcPolicy::from_combos(
            kbps.iter()
                .enumerate()
                .map(|(i, &k)| (Combo::new(i, 0), BitsPerSec::from_kbps(k)))
                .collect(),
        )
        .with_config(cfg);
        prop_assert_eq!(
            p.plan(buffer_s, chunk_s, predicted_bps, prev),
            flat_plan(&bw, cfg, buffer_s, chunk_s, predicted_bps, prev)
        );
    }

    /// Differential: after every transfer, each estimator's stored
    /// estimate equals a recomputation from scratch, bit for bit, on
    /// profiles with gaps and rate changes.
    #[test]
    fn stored_estimates_match_recomputation(
        transfers in proptest::collection::vec(
            (proptest::collection::vec((0u64..300, 1u64..900, 0u64..4_000), 1..6), 0u64..900, 0u64..3_000),
            1..25,
        ),
    ) {
        let mut shaka = ShakaEstimator::new();
        let mut shaka_ref = ScanShaka {
            fast: ScanEwma::new(2.0),
            slow: ScanEwma::new(5.0),
            total_sampled: Bytes::ZERO,
        };
        let mut joint = JointEwma::new(3.0);
        let mut joint_ref = ScanEwma::new(3.0);
        let mut harmonic = HarmonicMean::new(4);
        let mut harmonic_ref: Vec<f64> = Vec::new();
        for (spans, window_kb, busy_ms) in &transfers {
            let rec = profiled_record(spans, *window_kb, *busy_ms);
            shaka.on_transfer(&rec);
            shaka_ref.on_transfer(&rec);
            prop_assert_eq!(shaka.estimate(), shaka_ref.estimate());

            joint.on_transfer(&rec);
            if *window_kb > 0 && *busy_ms > 0 {
                let value = rec
                    .window_bytes
                    .rate_over_micros(rec.window_busy.as_micros())
                    .bps() as f64;
                joint_ref.sample(rec.window_busy.as_secs_f64(), value);
            }
            prop_assert_eq!(
                joint.estimate(),
                joint_ref.estimate().map(|v| BitsPerSec(v.round() as u64))
            );

            if let Some(tput) = rec.profile.mean_throughput().filter(|t| t.bps() > 0) {
                harmonic.add(tput.bps() as f64);
                harmonic_ref.push(tput.bps() as f64);
                let last = &harmonic_ref[harmonic_ref.len().saturating_sub(4)..];
                let recip: f64 = last.iter().map(|v| 1.0 / v).sum();
                prop_assert_eq!(
                    harmonic.estimate(),
                    Some(BitsPerSec((last.len() as f64 / recip).round() as u64))
                );
            }
        }
    }

    /// Differential: `Ewma` with its cached power equals the per-sample
    /// `powf` reference bit for bit, over runs of repeated and changing
    /// weights.
    #[test]
    fn cached_ewma_power_matches_recomputation(
        half_life in 1u32..20,
        samples in proptest::collection::vec((0u64..4, 1.0f64..1e7), 1..100),
    ) {
        let mut e = Ewma::with_half_life(half_life as f64);
        let mut reference = ScanEwma::new(half_life as f64);
        for &(w, v) in &samples {
            let weight = [0.125, 0.125, 0.5, 1.75][w as usize];
            e.sample(weight, v);
            reference.sample(weight, v);
            prop_assert_eq!(
                e.estimate().map(f64::to_bits),
                reference.estimate().map(f64::to_bits)
            );
        }
    }
}
