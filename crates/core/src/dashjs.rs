//! dash.js v2.9.3 emulation (§3.4).
//!
//! dash.js runs its DYNAMIC strategy (Spiteri et al., the paper's \[22\])
//! **independently for audio and for video**, and each media type's
//! throughput estimate sees only that media type's downloads. Both
//! properties are root causes the paper identifies: independent decisions
//! produce undesirable pairings (V2+A3 where V3+A2 would fit better), and
//! no download synchronization lets the buffers diverge (Fig 5b — the
//! divergence itself comes from the session's `SyncMode::Independent`).
//!
//! DYNAMIC per media type (§3.4): start on THROUGHPUT; switch to BOLA when
//! the buffer exceeds 12 s and BOLA's pick is at least THROUGHPUT's; switch
//! back when the buffer falls below 6 s and BOLA's pick is lower.

use crate::combos::{highest_within, record_track_decision};
use crate::estimators::{record_update, HarmonicMean};
use abr_event::time::Duration;
use abr_manifest::view::BoundDash;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// BOLA parameters, derived as in dash.js `BolaRule` from the bitrate
/// ladder and the stable buffer time.
#[derive(Debug, Clone)]
pub struct Bola {
    /// Shifted log utilities: `ln(r_m / r_0) + 1` (so `u_0 = 1`).
    utilities: Vec<f64>,
    /// The control parameter `V_p` (seconds).
    vp: f64,
    /// The utility offset `g_p`.
    gp: f64,
    bitrates: Vec<f64>,
}

impl Bola {
    /// dash.js constants.
    const MINIMUM_BUFFER_S: f64 = 10.0;
    const BUFFER_PER_LEVEL_S: f64 = 2.0;

    /// Derives BOLA parameters for a ladder and stable buffer time.
    pub fn new(bitrates: &[BitsPerSec], stable_buffer: Duration) -> Bola {
        assert!(!bitrates.is_empty());
        let rates: Vec<f64> = bitrates.iter().map(|b| b.bps() as f64).collect();
        let utilities: Vec<f64> = rates.iter().map(|r| (r / rates[0]).ln() + 1.0).collect();
        let buffer_time = stable_buffer
            .as_secs_f64()
            .max(Self::MINIMUM_BUFFER_S + Self::BUFFER_PER_LEVEL_S * rates.len() as f64);
        let top = *utilities.last().expect("non-empty");
        // Single-rung ladders degenerate (top utility = 1); any positive gp
        // works since the argmax is unique.
        let gp = if top > 1.0 {
            (top - 1.0) / (buffer_time / Self::MINIMUM_BUFFER_S - 1.0)
        } else {
            1.0
        };
        let vp = Self::MINIMUM_BUFFER_S / gp;
        Bola {
            utilities,
            vp,
            gp,
            bitrates: rates,
        }
    }

    /// The BOLA objective for rung `m` at buffer level `q` seconds.
    fn score(&self, m: usize, q: f64) -> f64 {
        (self.vp * (self.utilities[m] + self.gp) - q) / self.bitrates[m]
    }

    /// The rung BOLA chooses at buffer level `q`.
    pub fn choose(&self, q: Duration) -> usize {
        let q = q.as_secs_f64();
        (0..self.bitrates.len())
            .max_by(|&a, &b| {
                self.score(a, q)
                    .partial_cmp(&self.score(b, q))
                    .expect("finite scores")
            })
            .expect("non-empty ladder")
    }
}

/// One media type's DYNAMIC adapter.
#[derive(Debug, Clone)]
struct DynamicAdapter {
    bitrates: Vec<BitsPerSec>,
    throughput: HarmonicMean,
    bola: Bola,
    using_bola: bool,
}

impl DynamicAdapter {
    /// dash.js bandwidth safety factor for the THROUGHPUT rule.
    const SAFETY: (u64, u64) = (9, 10); // 0.9
    /// DYNAMIC switch-to-BOLA buffer threshold (§3.4: 12 s).
    const BUFFER_HIGH: Duration = Duration::from_secs(12);
    /// DYNAMIC switch-to-THROUGHPUT buffer threshold (§3.4: 6 s).
    const BUFFER_LOW: Duration = Duration::from_secs(6);

    fn new(bitrates: Vec<BitsPerSec>) -> DynamicAdapter {
        let bola = Bola::new(&bitrates, Duration::from_secs(12));
        DynamicAdapter {
            bitrates,
            throughput: HarmonicMean::new(4),
            bola,
            using_bola: false,
        }
    }

    fn throughput_choice(&self) -> usize {
        match self.throughput.estimate() {
            None => 0, // no history: start at the lowest rung
            Some(est) => {
                let (n, d) = Self::SAFETY;
                highest_within(&self.bitrates, est.mul_ratio(n, d))
            }
        }
    }

    fn choose(&mut self, level: Duration) -> usize {
        let t = self.throughput_choice();
        let b = self.bola.choose(level);
        if !self.using_bola && level >= Self::BUFFER_HIGH && b >= t {
            self.using_bola = true;
        } else if self.using_bola && level < Self::BUFFER_LOW && b < t {
            self.using_bola = false;
        }
        if self.using_bola {
            b
        } else {
            t
        }
    }
}

/// The dash.js policy: two fully independent DYNAMIC adapters.
#[derive(Debug, Clone)]
pub struct DashJsPolicy {
    audio: DynamicAdapter,
    video: DynamicAdapter,
    obs: ObsHandle,
}

impl DashJsPolicy {
    /// Builds from a DASH manifest view (dash.js is DASH-only, §2.4).
    pub fn new(view: &BoundDash) -> DashJsPolicy {
        DashJsPolicy {
            audio: DynamicAdapter::new(view.audio_declared.clone()),
            video: DynamicAdapter::new(view.video_declared.clone()),
            obs: ObsHandle::disabled(),
        }
    }
}

impl AbrPolicy for DashJsPolicy {
    fn name(&self) -> &str {
        "dashjs"
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        // Per-media estimation: audio samples only feed the audio adapter.
        if let Some(tput) = record.throughput() {
            let adapter = match record.media {
                MediaType::Audio => &mut self.audio,
                MediaType::Video => &mut self.video,
            };
            let old = adapter.throughput.estimate();
            adapter.throughput.add(tput.bps() as f64);
            record_update(&self.obs, record, old, adapter.throughput.estimate());
        }
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let (adapter, level) = match ctx.media {
            MediaType::Audio => (&mut self.audio, ctx.audio_level),
            MediaType::Video => (&mut self.video, ctx.video_level),
        };
        let rung = adapter.choose(level);
        let using_bola = adapter.using_bola;
        let ladder_len = adapter.bitrates.len();
        record_track_decision(&self.obs, ctx, ladder_len, rung, || {
            if using_bola {
                format!("BOLA rule at buffer {level}")
            } else {
                "THROUGHPUT rule (0.9 x per-media harmonic mean)".to_string()
            }
        })
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        // Report the video-side estimate (the larger and more interesting
        // of the two independent estimators).
        self.video.throughput.estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }

    /// dash.js estimates from whole-transfer throughput.
    fn reads_meter(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;
    use abr_manifest::build::build_mpd;
    use abr_media::content::Content;
    use abr_media::units::Bytes;
    use abr_net::profile::DeliveryProfile;

    fn policy() -> DashJsPolicy {
        let content = Content::drama_show(1);
        let view = BoundDash::from_mpd(&build_mpd(&content)).unwrap();
        DashJsPolicy::new(&view)
    }

    fn feed(p: &mut DashJsPolicy, media: MediaType, kbps: u64) {
        let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(2_000_000);
        let track = match media {
            MediaType::Audio => TrackId::audio(0),
            MediaType::Video => TrackId::video(0),
        };
        for _ in 0..4 {
            p.on_transfer(&TransferRecord {
                media,
                track,
                chunk: 0,
                size,
                opened_at: Instant::ZERO,
                completed_at: Instant::from_secs(2),
                profile: DeliveryProfile::new(),
                window_bytes: Bytes::ZERO,
                window_busy: Duration::ZERO,
            });
        }
    }

    fn ctx(media: MediaType, audio_secs: u64, video_secs: u64) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(30),
            media,
            chunk: 3,
            audio_level: Duration::from_secs(audio_secs),
            video_level: Duration::from_secs(video_secs),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    #[test]
    fn estimators_are_independent_per_media() {
        let mut p = policy();
        feed(&mut p, MediaType::Audio, 700);
        // Video has no samples: starts at the lowest rung regardless of the
        // audio estimate.
        let v = p.select(&ctx(MediaType::Video, 4, 4));
        assert_eq!(v, TrackId::video(0));
        // Audio saw 700 Kbps → 0.9 × 700 = 630 ≥ A3 (384): picks A3.
        let a = p.select(&ctx(MediaType::Audio, 4, 4));
        assert_eq!(a, TrackId::audio(2), "audio maxes out independently");
    }

    #[test]
    fn independent_decisions_make_undesirable_combos() {
        // Fig 5 root cause: each adapter spends the WHOLE link estimate on
        // its own media. With both seeing 700 Kbps, audio takes A3 (384 ≤
        // 630) and video V3 (473 ≤ 630): jointly V3+A3 at 857 Kbps declared
        // — well past the 700 Kbps link. (In a full session the sharing
        // feedback produces the V2+A3/V2+A2 mix of Fig 5a.)
        let mut p = policy();
        feed(&mut p, MediaType::Audio, 700);
        feed(&mut p, MediaType::Video, 700);
        let a = p.select(&ctx(MediaType::Audio, 4, 4));
        let v = p.select(&ctx(MediaType::Video, 4, 4));
        assert_eq!((v.index, a.index), (2, 2), "V3+A3: jointly unaffordable");
    }

    #[test]
    fn throughput_rule_applies_safety_factor() {
        let mut p = policy();
        // 500 Kbps × 0.9 = 450: video picks V2 (246), not V3 (473).
        feed(&mut p, MediaType::Video, 500);
        let v = p.select(&ctx(MediaType::Video, 4, 4));
        assert_eq!(v, TrackId::video(1));
    }

    #[test]
    fn bola_grows_with_buffer() {
        let content = Content::drama_show(1);
        let view = BoundDash::from_mpd(&build_mpd(&content)).unwrap();
        let bola = Bola::new(&view.video_declared, Duration::from_secs(12));
        let low = bola.choose(Duration::from_secs(3));
        let mid = bola.choose(Duration::from_secs(14));
        let high = bola.choose(Duration::from_secs(25));
        assert!(
            low <= mid && mid <= high,
            "monotone in buffer: {low} {mid} {high}"
        );
        assert_eq!(low, 0, "thin buffer picks the lowest rung");
        assert!(high >= 3, "deep buffer climbs, got {high}");
    }

    #[test]
    fn dynamic_switches_to_bola_on_deep_buffer() {
        let mut p = policy();
        feed(&mut p, MediaType::Video, 400); // THROUGHPUT pick: V1/V2
                                             // Deep buffer: BOLA picks at least as high → switch to BOLA.
        let v_deep = p.select(&ctx(MediaType::Video, 25, 25));
        assert!(p.video.using_bola);
        // BOLA at 25 s picks higher than the 400 Kbps THROUGHPUT rule.
        let tput_only = {
            let mut q = policy();
            feed(&mut q, MediaType::Video, 400);
            q.video.throughput_choice()
        };
        assert!(v_deep.index > tput_only);
    }

    #[test]
    fn dynamic_falls_back_to_throughput_when_buffer_drains() {
        let mut p = policy();
        feed(&mut p, MediaType::Video, 2000);
        let _ = p.select(&ctx(MediaType::Video, 25, 25)); // engage BOLA
        assert!(p.video.using_bola);
        // Buffer collapses; BOLA's thin-buffer pick (V1) is below
        // THROUGHPUT's (2000×0.9 = 1800 → V4): revert to THROUGHPUT.
        let v = p.select(&ctx(MediaType::Video, 2, 2));
        assert!(!p.video.using_bola);
        assert_eq!(v.index, 3, "THROUGHPUT pick (V4) restored, got {v}");
    }

    #[test]
    fn bola_parameter_derivation_matches_dashjs_shape() {
        let rates = vec![
            BitsPerSec::from_kbps(111),
            BitsPerSec::from_kbps(246),
            BitsPerSec::from_kbps(473),
        ];
        let bola = Bola::new(&rates, Duration::from_secs(12));
        // utilities[0] must be exactly 1 after shifting.
        assert!((bola.utilities[0] - 1.0).abs() < 1e-12);
        assert!(bola.vp > 0.0 && bola.gp > 0.0);
        // bufferTime = max(12, 10 + 2·3) = 16 → gp = (u_max−1)/0.6.
        let expected_gp = (bola.utilities[2] - 1.0) / 0.6;
        assert!((bola.gp - expected_gp).abs() < 1e-12);
    }
}
