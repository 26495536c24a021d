//! Canonical experiment setup: content, manifests, player configs, and
//! the one session recipe ([`SessionSpec`]) every session in this crate
//! is built from.
//!
//! Every manifest used by an experiment is round-tripped through its
//! textual form (build → serialize → parse → bind), so the experiments
//! exercise the same information pipeline a real player would.

use abr_core::{
    BbaPolicy, BestPracticePolicy, DashJsPolicy, ExoPlayerPolicy, MpcPolicy, ShakaPolicy,
};
use abr_event::time::Duration;
use abr_httpsim::origin::Origin;
use abr_manifest::build::{build_master_playlist, build_mpd, Packaging};
use abr_manifest::hls::MasterPlaylist;
use abr_manifest::view::{BoundDash, BoundHls};
use abr_manifest::Mpd;
use abr_media::combo::{all_combos, curated_subset, Combo};
use abr_media::content::{Content, SharedContent};
use abr_media::units::Bytes;
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_obs::{ObsHandle, Profiler, TracedEvent};
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::policy::AbrPolicy;
use abr_player::session::{DeliveryMode, PlaylistFetch};
use abr_player::{Session, SessionLog};
use std::rc::Rc;

/// The deterministic seed every experiment uses for content synthesis.
pub const SEED: u64 = 2019;

/// The Table 1 drama show, behind a shared handle (DESIGN.md §15):
/// sessions clone the `Arc`, never the size tables.
pub fn drama() -> SharedContent {
    Content::drama_show(SEED).into()
}

/// §3.2 variant with the low-bitrate "B" audio set.
pub fn drama_low_audio() -> SharedContent {
    Content::drama_show_low_audio(SEED).into()
}

/// §3.2 variant with the high-bitrate "C" audio set.
pub fn drama_high_audio() -> SharedContent {
    Content::drama_show_high_audio(SEED).into()
}

/// DASH manifest view, round-tripped through MPD text.
pub fn dash_view(content: &Content) -> BoundDash {
    let text = build_mpd(content).to_text();
    BoundDash::from_mpd(&Mpd::parse(&text).expect("self-built MPD parses")).expect("binds")
}

/// HLS `H_all` view (all 18 combinations, Table 2 order), audio listed
/// A1, A2, A3.
pub fn hls_all_view(content: &Content) -> BoundHls {
    hls_view(
        content,
        &all_combos(content.video(), content.audio()),
        &[0, 1, 2],
    )
}

/// HLS `H_sub` view (the Table 3 curation) with an explicit audio listing
/// order — Fig 3's experiments hinge on which rendition is listed first.
pub fn hls_sub_view(content: &Content, audio_order: &[usize]) -> BoundHls {
    hls_view(
        content,
        &curated_subset(content.video(), content.audio()),
        audio_order,
    )
}

/// Arbitrary-combination HLS view, round-tripped through playlist text.
pub fn hls_view(content: &Content, combos: &[Combo], audio_order: &[usize]) -> BoundHls {
    let text = build_master_playlist(content, combos, audio_order).to_text();
    BoundHls::from_master(&MasterPlaylist::parse(&text).expect("self-built playlist parses"))
        .expect("binds")
}

/// Which real player a session emulates (determines buffering targets and
/// pipeline coupling, per each player's defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerKind {
    /// ExoPlayer: deep buffer, chunk-level-synchronized pipelines.
    ExoPlayer,
    /// Shaka: shallow 10 s buffering goal, independent pipelines.
    Shaka,
    /// dash.js: deep buffer, fully independent pipelines (§3.4).
    DashJs,
    /// Best-practice: deep buffer, chunk-level synchronization (§4.2).
    BestPractice,
    /// BBA baseline (buffer-only; paper reference \[12\]).
    Bba,
    /// RobustMPC baseline (horizon search; paper reference \[25\]).
    Mpc,
}

/// The player-level configuration for a kind.
pub fn player_config(kind: PlayerKind, chunk: Duration) -> PlayerConfig {
    let chunked = SyncMode::ChunkLevel { tolerance: chunk };
    match kind {
        PlayerKind::ExoPlayer => PlayerConfig {
            startup_threshold: chunk,
            resume_threshold: chunk * 2,
            max_buffer: Duration::from_secs(30),
            sync: chunked,
        },
        PlayerKind::Shaka => PlayerConfig {
            startup_threshold: chunk,
            resume_threshold: chunk,
            max_buffer: Duration::from_secs(10),
            sync: SyncMode::Independent,
        },
        PlayerKind::DashJs => PlayerConfig {
            startup_threshold: chunk,
            resume_threshold: chunk,
            max_buffer: Duration::from_secs(30),
            sync: SyncMode::Independent,
        },
        PlayerKind::BestPractice | PlayerKind::Bba | PlayerKind::Mpc => PlayerConfig {
            startup_threshold: chunk,
            resume_threshold: chunk * 2,
            max_buffer: Duration::from_secs(30),
            sync: chunked,
        },
    }
}

/// One session as plain data: what [`Session::new`] and its builders
/// take. A variant changes fields of [`SessionSpec::new`] with
/// struct-update syntax. A live shared transfer path (an edge cache, a
/// fleet hub) and a deadline are not data: attach them to the built
/// [`Session`].
pub struct SessionSpec {
    /// The content, behind a shared handle.
    pub content: SharedContent,
    /// The player the session emulates.
    pub kind: PlayerKind,
    /// The adaptation policy, built for this one session.
    pub policy: Box<dyn AbrPolicy>,
    /// The access link's bandwidth schedule.
    pub trace: Trace,
    /// The link's base latency.
    pub latency: Duration,
    /// Response header bytes the origin adds per object.
    pub overhead: Bytes,
    /// Player thresholds and pipeline coupling.
    pub config: PlayerConfig,
    /// Server packaging.
    pub packaging: Packaging,
    /// When second-level playlists are fetched.
    pub playlist_fetch: PlaylistFetch,
    /// Demuxed or muxed delivery.
    pub delivery: DeliveryMode,
}

impl SessionSpec {
    /// The canonical session: `kind`'s [`player_config`], a 20 ms link, a
    /// zero-overhead origin (keeping the byte arithmetic aligned with the
    /// paper's bitrate tables) and `Session::new`'s defaults: untagged
    /// segment files, preloaded playlists, demuxed delivery.
    pub fn new(
        content: &SharedContent,
        kind: PlayerKind,
        policy: Box<dyn AbrPolicy>,
        trace: Trace,
    ) -> SessionSpec {
        SessionSpec {
            content: SharedContent::clone(content),
            kind,
            policy,
            trace,
            latency: Duration::from_millis(20),
            overhead: Bytes::ZERO,
            config: player_config(kind, content.chunk_duration()),
            packaging: Packaging::SegmentFiles {
                with_bitrate_tags: false,
            },
            playlist_fetch: PlaylistFetch::Preloaded,
            delivery: DeliveryMode::Demuxed,
        }
    }

    /// The session the spec describes; the only [`Session::new`] call in
    /// this crate.
    pub fn build(self) -> Session {
        let origin = Origin::with_overhead(self.content, self.overhead);
        let link = Link::with_latency(self.trace, self.latency);
        Session::new(origin, link, self.policy, self.config)
            .with_packaging(self.packaging)
            .with_playlist_fetch(self.playlist_fetch)
            .with_delivery(self.delivery)
    }
}

/// Runs the canonical session ([`SessionSpec::new`]) to its log. Stays
/// for `benchmark/`, which compiles against it, until ROADMAP item 7
/// moves the benchmark onto the spec.
pub fn run_session(
    content: &SharedContent,
    kind: PlayerKind,
    policy: Box<dyn AbrPolicy>,
    trace: Trace,
) -> SessionLog {
    SessionSpec::new(content, kind, policy, trace).build().run()
}

/// [`run_session`] with an explicit [`ObsHandle`], building the log's
/// event vectors out of a caller-owned [`abr_player::SessionScratch`]
/// pool; hand the log back to [`abr_player::SessionScratch::reclaim`]
/// once summarized. Stays for `benchmark/` until ROADMAP item 7.
pub fn run_session_pooled(
    content: &SharedContent,
    kind: PlayerKind,
    policy: Box<dyn AbrPolicy>,
    trace: Trace,
    obs: ObsHandle,
    scratch: &mut abr_player::SessionScratch,
) -> SessionLog {
    SessionSpec::new(content, kind, policy, trace)
        .build()
        .with_obs(obs)
        .run_with_scratch(scratch)
}

/// Runs a built session with a recording tracer attached, returning the
/// log and the captured event stream: the runner behind `exp --trace/
/// --chrome/--profile`. The events are a pure function of the session
/// ([`ObsHandle::recording`] reads no host clock). An optional span
/// `profiler` observes host time only: the log and events are
/// byte-identical with or without one (the `profile_determinism` suite
/// holds this).
pub fn run_traced(
    session: Session,
    profiler: Option<&Rc<Profiler>>,
) -> (SessionLog, Vec<TracedEvent>) {
    let (mut obs, tracer) = ObsHandle::recording();
    if let Some(p) = profiler {
        obs = obs.with_profiler(Rc::clone(p));
    }
    let log = session.with_obs(obs).run();
    (log, tracer.take())
}

/// The standard policy for a kind over an already-bound DASH view of
/// `content` (the best-practice player and the baselines get the §4.1
/// server-curated combination list out-of-band). The corpora round-trip
/// the MPD once per shared scenario, not once per session.
pub fn dash_policy_over(
    kind: PlayerKind,
    content: &Content,
    view: &BoundDash,
) -> Box<dyn AbrPolicy> {
    match kind {
        PlayerKind::ExoPlayer => Box::new(ExoPlayerPolicy::dash(view)),
        PlayerKind::Shaka => Box::new(ShakaPolicy::dash(view)),
        PlayerKind::DashJs => Box::new(DashJsPolicy::new(view)),
        PlayerKind::BestPractice => {
            let allowed = curated_subset(content.video(), content.audio());
            Box::new(BestPracticePolicy::from_dash(view, &allowed))
        }
        PlayerKind::Bba => {
            let allowed = curated_subset(content.video(), content.audio());
            Box::new(BbaPolicy::from_dash(view, &allowed))
        }
        PlayerKind::Mpc => {
            let allowed = curated_subset(content.video(), content.audio());
            Box::new(MpcPolicy::from_dash(view, &allowed))
        }
    }
}

/// Selection time-series for plotting: (seconds, selected declared Kbps)
/// for one media type.
pub fn selection_series(log: &SessionLog, media: abr_media::track::MediaType) -> Vec<(f64, f64)> {
    log.selections_for(media)
        .map(|s| (s.at.as_secs_f64(), s.declared.kbps() as f64))
        .collect()
}

/// Buffer-level time-series: (seconds, level-seconds) for one media type.
pub fn buffer_series(log: &SessionLog, media: abr_media::track::MediaType) -> Vec<(f64, f64)> {
    log.buffer_samples
        .iter()
        .map(|b| {
            let level = match media {
                abr_media::track::MediaType::Audio => b.audio,
                abr_media::track::MediaType::Video => b.video,
            };
            (b.at.as_secs_f64(), level.as_secs_f64())
        })
        .collect()
}

/// Bandwidth-estimate time-series from the transfer log.
pub fn estimate_series(log: &SessionLog) -> Vec<(f64, f64)> {
    log.transfers
        .iter()
        .filter_map(|t| {
            t.estimate_after
                .map(|e| (t.at.as_secs_f64(), e.kbps() as f64))
        })
        .collect()
}

/// Downsamples a series to at most `max_points` (keeps endpoints).
pub fn downsample(series: &[(f64, f64)], max_points: usize) -> Vec<(f64, f64)> {
    assert!(max_points >= 2);
    if series.len() <= max_points {
        return series.to_vec();
    }
    let step = (series.len() - 1) as f64 / (max_points - 1) as f64;
    (0..max_points)
        .map(|i| series[(i as f64 * step).round() as usize])
        .collect()
}

/// Stall windows as (start_secs, end_secs) pairs, open stalls closing at
/// the session end.
pub fn stall_windows(log: &SessionLog) -> Vec<(f64, f64)> {
    log.stalls
        .iter()
        .map(|s| {
            (
                s.start.as_secs_f64(),
                s.end.unwrap_or(log.finished_at).as_secs_f64(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::track::MediaType;
    use abr_media::units::BitsPerSec;

    #[test]
    fn views_roundtrip_and_bind() {
        let c = drama();
        let d = dash_view(&c);
        assert_eq!(d.video_declared.len(), 6);
        let h = hls_all_view(&c);
        assert_eq!(h.variants.len(), 18);
        let s = hls_sub_view(&c, &[2, 0, 1]);
        assert_eq!(s.variants.len(), 6);
        assert_eq!(s.audio_listing[0], 2);
    }

    #[test]
    fn configs_match_kind_semantics() {
        let chunk = Duration::from_secs(4);
        assert_eq!(
            player_config(PlayerKind::DashJs, chunk).sync,
            SyncMode::Independent
        );
        assert_eq!(
            player_config(PlayerKind::ExoPlayer, chunk).sync,
            SyncMode::ChunkLevel { tolerance: chunk }
        );
        assert_eq!(
            player_config(PlayerKind::Shaka, chunk).max_buffer,
            Duration::from_secs(10)
        );
    }

    #[test]
    fn full_session_smoke_bestpractice() {
        let c = drama();
        let log = run_session(
            &c,
            PlayerKind::BestPractice,
            dash_policy_over(PlayerKind::BestPractice, &c, &dash_view(&c)),
            Trace::constant(BitsPerSec::from_kbps(2000)),
        );
        assert!(log.completed(), "session must complete");
        assert_eq!(log.stall_count(), 0);
        assert!(!selection_series(&log, MediaType::Video).is_empty());
        assert!(!buffer_series(&log, MediaType::Audio).is_empty());
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let s: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, i as f64)).collect();
        let d = downsample(&s, 50);
        assert_eq!(d.len(), 50);
        assert_eq!(d[0], s[0]);
        assert_eq!(*d.last().unwrap(), *s.last().unwrap());
        // Short series pass through.
        assert_eq!(downsample(&s[..10], 50).len(), 10);
    }

    #[test]
    #[should_panic(expected = "max_points >= 2")]
    fn downsample_needs_room_for_both_endpoints() {
        let _ = downsample(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], 1);
    }

    /// A log with two transfers (one without an estimate) and two stalls
    /// (the second still open at the end).
    fn small_log() -> SessionLog {
        use abr_event::time::Instant;
        use abr_media::track::TrackId;
        use abr_player::log::{Stall, TransferEvent};
        let transfer = |secs, estimate_after| TransferEvent {
            at: Instant::from_secs(secs),
            chunk: 0,
            track: TrackId::video(0),
            size: Bytes(1),
            duration: Duration::from_secs(1),
            estimate_after,
        };
        SessionLog {
            transfers: vec![
                transfer(2, None),
                transfer(5, Some(BitsPerSec::from_kbps(750))),
            ],
            stalls: vec![
                Stall {
                    start: Instant::from_secs(10),
                    end: Some(Instant::from_secs(12)),
                },
                Stall {
                    start: Instant::from_secs(30),
                    end: None,
                },
            ],
            finished_at: Instant::from_secs(40),
            ..SessionLog::default()
        }
    }

    #[test]
    fn estimate_series_skips_transfers_without_an_estimate() {
        assert_eq!(estimate_series(&small_log()), [(5.0, 750.0)]);
    }

    #[test]
    fn stall_windows_close_an_open_stall_at_the_session_end() {
        assert_eq!(stall_windows(&small_log()), [(10.0, 12.0), (30.0, 40.0)]);
    }
}
