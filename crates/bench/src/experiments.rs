//! One function per paper artifact. See DESIGN.md §7 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured outcomes.

use crate::profiling::WorkloadProfile;
use crate::report::Form::{Dec, Join, Mb, Plain};
use crate::report::{ascii_plot, table, Row, Series};
use crate::runner::{self, SessionOutcome};
use crate::setup::*;
use abr_core::{BestPracticePolicy, DashJsPolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_event::time::Duration;
use abr_httpsim::cache::CdnCache;
use abr_httpsim::edge::EdgeCache;
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_httpsim::storage::StorageComparison;
use abr_media::combo::{all_combos, combo_bitrate, curated_subset, log_staircase, Combo};
use abr_media::content::SharedContent;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_media::vbr::measure;
use abr_net::trace::Trace;
use abr_obs::Profiler;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::policy::AbrPolicy;
use abr_player::{Session, SessionLog};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// A rendered experiment: the regenerated table/figure plus structured
/// data.
pub struct ExperimentResult {
    /// Experiment id (DESIGN.md §7).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The regenerated table/figure as text.
    pub text: String,
    /// Structured results for EXPERIMENTS.md bookkeeping.
    pub json: Value,
}

/// All experiment ids in DESIGN.md §7 order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "t1", "t2", "t3", "f2a", "f2b", "f3a", "f3b", "f3x", "f3fix", "f4a", "f4b", "f4x", "f5a",
        "f5b", "bp1", "bp2", "bp3", "bp4", "bp5", "m1", "m2", "m3",
    ]
}

/// Runs one experiment by id, with the worker count taken from the
/// `ABR_JOBS` environment variable (`auto` or a positive integer, as for
/// `--jobs`; default 1 — fully serial). CI runs
/// the whole suite a second time under `ABR_JOBS=2`; results are
/// byte-identical by the runner's determinism contract.
pub fn run(id: &str) -> Option<ExperimentResult> {
    run_jobs(id, runner::jobs_from_env())
}

/// Runs one experiment by id, sharding its internal session sweep (if it
/// has one) across `min(jobs, cores)` workers. Output is byte-identical
/// at every `jobs` value — `tests/parallel_determinism.rs` holds this.
pub fn run_jobs(id: &str, jobs: usize) -> Option<ExperimentResult> {
    Some(match id {
        "t1" => t1(),
        "t2" => t2(),
        "t3" => t3(),
        "f2a" => f2(false),
        "f2b" => f2(true),
        "f3a" => f3a(),
        "f3b" => f3b(),
        "f3x" => f3x(),
        "f3fix" => f3fix(jobs),
        "f4a" => f4a(),
        "f4b" => f4b(),
        "f4x" => f4x(),
        "f5a" => f5a(),
        "f5b" => f5b(),
        "bp1" => shootout("bp1", jobs),
        "bp2" => bp2(jobs),
        "bp3" => bp3(),
        "bp4" => bp4(jobs),
        "bp5" => shootout("bp5", jobs),
        "m1" => m1(),
        "m2" => m2(jobs),
        "m3" => m3(jobs),
        _ => return None,
    })
}

/// One session of an experiment, defined once. The figure renders it
/// over a disabled handle ([`logs`]); `exp --id <id>` with `--trace/
/// --chrome/--profile` observes the same recipe over the recording
/// handle ([`run_sessions`]). Every field is `Send + Sync`, so a sweep's
/// workers share one arm list.
struct Arm {
    /// `<id>/<arm>`: the name an observed session is filed under.
    label: String,
    /// Builds the arm's spec, with a fresh policy, for each run.
    spec: Box<dyn Fn() -> SessionSpec + Send + Sync>,
    /// `Some(k)`: the session streams through edge `k`, one fresh
    /// [`EdgeCache`] that the (consecutive) arms of edge `k` share, in
    /// arm order, on one worker.
    edge: Option<usize>,
}

/// One arm `<id>/<name>` per `(name, variant)` of `variants`, in order,
/// each building its spec as `recipe(variant)`.
fn arm_list<V: Copy + Send + Sync + 'static>(
    id: &str,
    variants: impl IntoIterator<Item = (impl std::fmt::Display, V)>,
    recipe: impl Fn(V) -> SessionSpec + Send + Sync + 'static,
) -> Vec<Arm> {
    let recipe = Arc::new(recipe);
    let arm = |(name, variant)| {
        let recipe = Arc::clone(&recipe);
        Arm {
            label: format!("{id}/{name}"),
            spec: Box::new(move || recipe(variant)),
            edge: None,
        }
    };
    variants.into_iter().map(arm).collect()
}

/// The sessions behind every experiment that runs one, in authored
/// order: one arm for a single-session figure, one per row for the
/// sweeps, one per viewer for `m3`. Content, views and traces are built
/// once per call and shared by the arms. Returns `None` for the
/// experiments that run no session (`t1`–`t3`, `f4x`, `m1`).
fn arms(id: &str) -> Option<Vec<Arm>> {
    use abr_manifest::build::{build_master_playlist_ext, build_mpd_with_combos, Packaging};
    use abr_manifest::view::{BoundDash, BoundHls};
    use abr_manifest::{MasterPlaylist, Mpd};
    use abr_player::policy::FixedPolicy;
    use abr_player::session::{DeliveryMode, PlaylistFetch};

    let fixed = |kbps| Trace::constant(BitsPerSec::from_kbps(kbps));
    let fig3 = || Trace::fig3_varying_600k(Duration::from_secs(3600));
    Some(match id {
        "f2a" | "f2b" => {
            let content = if id == "f2b" {
                drama_high_audio()
            } else {
                drama_low_audio()
            };
            let view = dash_view(&content);
            let trace = fixed(900);
            arm_list(id, [("exoplayer-dash-900k", ())], move |()| {
                let policy = Box::new(ExoPlayerPolicy::dash(&view));
                SessionSpec::new(&content, PlayerKind::ExoPlayer, policy, trace.clone())
            })
        }
        "f3a" | "f3b" | "f3x" => {
            // H_sub with A3 listed first over the varying ~600 Kbps
            // trace; f3x lists A1 first at 5 Mbps.
            let (order, trace, name) = if id == "f3x" {
                ([0, 1, 2], fixed(5000), "exoplayer-hls-5m")
            } else {
                ([2, 0, 1], fig3(), "exoplayer-hls-varying600k")
            };
            let content = drama();
            let view = hls_sub_view(&content, &order);
            arm_list(id, [(name, ())], move |()| {
                let policy = Box::new(ExoPlayerPolicy::hls(&view));
                SessionSpec::new(&content, PlayerKind::ExoPlayer, policy, trace.clone())
            })
        }
        "f3fix" => {
            // Stock manifest (A3 first) and extended manifest (same listing).
            let content = drama();
            let trace = fig3();
            let stock = hls_sub_view(&content, &[2, 0, 1]);
            let combos = curated_subset(content.video(), content.audio());
            let ext_master = build_master_playlist_ext(&content, &combos, &[2, 0, 1]);
            let ext = BoundHls::from_master(
                &MasterPlaylist::parse(&ext_master.to_text()).expect("parses"),
            )
            .expect("binds");
            let players = ["stock-exoplayer-hls", "exoplayer-hls-fixed", "bestpractice"];
            arm_list(id, players.map(|p| (p, p)), move |player| {
                let (kind, policy): (_, Box<dyn AbrPolicy>) = match player {
                    "stock-exoplayer-hls" => (
                        PlayerKind::ExoPlayer,
                        Box::new(ExoPlayerPolicy::hls(&stock)),
                    ),
                    "exoplayer-hls-fixed" => (
                        PlayerKind::ExoPlayer,
                        Box::new(ExoPlayerPolicy::hls_fixed(&ext).expect("extension present")),
                    ),
                    _ => (
                        PlayerKind::BestPractice,
                        Box::new(BestPracticePolicy::from_hls(&stock)),
                    ),
                };
                SessionSpec::new(&content, kind, policy, trace.clone())
            })
        }
        "f4a" | "f4b" => {
            let content = drama();
            let view = hls_all_view(&content);
            let (trace, name) = if id == "f4a" {
                (fixed(1000), "shaka-hls-1m")
            } else {
                (
                    Trace::fig4b_varying_600k(Duration::from_secs(3600)),
                    "shaka-hls-varying600k",
                )
            };
            arm_list(id, [(name, ())], move |()| {
                let policy = Box::new(ShakaPolicy::hls(&view));
                SessionSpec::new(&content, PlayerKind::Shaka, policy, trace.clone())
            })
        }
        "f5a" | "f5b" => {
            let content = drama();
            let view = dash_view(&content);
            let trace = fixed(700);
            arm_list(id, [("dashjs-700k", ())], move |()| {
                let policy = Box::new(DashJsPolicy::new(&view));
                SessionSpec::new(&content, PlayerKind::DashJs, policy, trace.clone())
            })
        }
        "bp1" | "bp5" => {
            // The policy shootouts: every policy over DASH on each trace,
            // one arm per (trace, policy) in row order. BP1 runs four
            // fixed or paper traces; BP5 every named corpus profile.
            let traces = if id == "bp1" {
                vec![
                    ("700k fixed", fixed(700)),
                    ("900k fixed", fixed(900)),
                    ("1M fixed", fixed(1000)),
                    ("varying-600k", fig3()),
                ]
            } else {
                abr_net::corpus::all(Duration::from_secs(3600), SEED)
            };
            let kinds = [
                PlayerKind::ExoPlayer,
                PlayerKind::Shaka,
                PlayerKind::DashJs,
                PlayerKind::Bba,
                PlayerKind::Mpc,
                PlayerKind::BestPractice,
            ];
            let rows: Vec<_> = (traces.iter().enumerate())
                .flat_map(|(t, (name, _))| {
                    kinds.map(|kind| (format!("{name}/{kind:?}"), (t, kind)))
                })
                .collect();
            let content = drama();
            let view = dash_view(&content);
            arm_list(id, rows, move |(t, kind)| {
                let policy = dash_policy_over(kind, &content, &view);
                SessionSpec::new(&content, kind, policy, traces[t].1.clone())
            })
        }
        "bp2" | "bp4" => {
            // The best-practice player over H_sub (A1 first) on the
            // varying ~600 Kbps trace. BP2 varies the pipeline coupling;
            // BP4 the playlist fetching, on a 200 ms link to an origin
            // that packs each track into one file and adds 320 B of
            // headers per response.
            let content = drama();
            let chunk_level =
                player_config(PlayerKind::BestPractice, content.chunk_duration()).sync;
            let view = hls_sub_view(&content, &[0, 1, 2]);
            let trace = fig3();
            let base = move || {
                let policy = Box::new(BestPracticePolicy::from_hls(&view));
                SessionSpec::new(&content, PlayerKind::BestPractice, policy, trace.clone())
            };
            if id == "bp2" {
                let modes = [
                    ("chunk-level-sync", chunk_level),
                    ("independent", SyncMode::Independent),
                ];
                arm_list(id, modes, move |sync| {
                    let spec = base();
                    let config = PlayerConfig {
                        sync,
                        ..spec.config
                    };
                    SessionSpec { config, ..spec }
                })
            } else {
                let modes = [
                    ("preloaded", PlaylistFetch::Preloaded),
                    ("eager", PlaylistFetch::Eager),
                    ("lazy", PlaylistFetch::Lazy),
                ];
                arm_list(id, modes, move |playlist_fetch| SessionSpec {
                    overhead: Bytes(320),
                    latency: Duration::from_millis(200),
                    packaging: Packaging::SingleFile,
                    playlist_fetch,
                    ..base()
                })
            }
        }
        "bp3" => {
            // The curation travels inside the MPD (§4.1 extension).
            let content = drama();
            let combos = curated_subset(content.video(), content.audio());
            let mpd_text = build_mpd_with_combos(&content, &combos).to_text();
            let view = BoundDash::from_mpd(&Mpd::parse(&mpd_text).expect("parses")).expect("binds");
            let trace = fig3();
            arm_list(id, [("bestpractice-dash-ext-varying600k", ())], move |()| {
                let policy =
                    BestPracticePolicy::from_dash_extension(&view).expect("extension present");
                let kind = PlayerKind::BestPractice;
                SessionSpec::new(&content, kind, Box::new(policy), trace.clone())
            })
        }
        "m2" => {
            // Shaka over H_all on a 2 Mbps link, both delivery modes.
            let content = drama();
            let view = hls_all_view(&content);
            let trace = fixed(2_000);
            let modes = [
                ("demuxed", DeliveryMode::Demuxed),
                ("muxed", DeliveryMode::Muxed),
            ];
            arm_list(id, modes, move |delivery| {
                let policy = Box::new(ShakaPolicy::hls(&view));
                let spec = SessionSpec::new(&content, PlayerKind::Shaka, policy, trace.clone());
                SessionSpec { delivery, ..spec }
            })
        }
        "m3" => {
            // Per delivery mode, one fresh edge: viewer A (V4+A2) warms
            // it, then viewer B (V4+A1) streams through it.
            let content = drama();
            let trace = fixed(1_600);
            let viewers = [
                ("demuxed/viewer-a", (DeliveryMode::Demuxed, 1)),
                ("demuxed/viewer-b", (DeliveryMode::Demuxed, 0)),
                ("muxed/viewer-a", (DeliveryMode::Muxed, 1)),
                ("muxed/viewer-b", (DeliveryMode::Muxed, 0)),
            ];
            let mut arms = arm_list(id, viewers, move |(delivery, audio)| {
                let (kind, policy) = (PlayerKind::BestPractice, FixedPolicy { video: 3, audio });
                let spec = SessionSpec::new(&content, kind, Box::new(policy), trace.clone());
                SessionSpec { delivery, ..spec }
            });
            for (i, arm) in arms.iter_mut().enumerate() {
                arm.edge = Some(i / 2);
            }
            arms
        }
        _ => return None,
    })
}

/// Runs `arms` across `min(jobs, cores)` workers: one work item per arm,
/// except that the arms of one edge form one item and run in arm order
/// over a fresh [`EdgeCache`] (room for the whole title, a 120 ms origin
/// round trip per miss). `run` gets each arm's built session with its
/// edge attached, that edge, to read back once the session has run, and
/// the item's profiler; results come back in arm order.
fn run_arms<T: Send>(
    arms: &[Arm],
    jobs: usize,
    profile: bool,
    run: impl Fn(&Arm, Session, Option<&RefCell<EdgeCache>>, Option<&Rc<Profiler>>) -> T + Sync,
) -> (Vec<T>, Option<runner::RunnerProfile>) {
    let items: Vec<&[Arm]> = arms
        .chunk_by(|a, b| a.edge.is_some() && a.edge == b.edge)
        .collect();
    let chunk = runner::adaptive_chunk(items.len(), jobs);
    let (ran, pool) = runner::run_pool(items.len(), jobs, chunk, None, profile, |k, profiler| {
        let edge = items[k][0].edge.map(|_| {
            Rc::new(RefCell::new(EdgeCache {
                cache: CdnCache::new(Bytes(1 << 32)),
                miss_penalty: Duration::from_millis(120),
            }))
        });
        let run_one = |arm: &Arm| {
            let mut session = (arm.spec)().build();
            if let Some(edge) = &edge {
                session = session.with_transfer_path(Box::new(Rc::clone(edge)));
            }
            run(arm, session, edge.as_deref(), profiler)
        };
        items[k].iter().map(run_one).collect::<Vec<_>>()
    });
    (ran.into_iter().flatten().collect(), pool)
}

/// Runs `arms` over disabled handles across `min(jobs, cores)` workers;
/// logs come back in arm order.
fn logs(arms: &[Arm], jobs: usize) -> Vec<SessionLog> {
    run_arms(arms, jobs, false, |_, session, _, _| session.run()).0
}

/// The session of a one-session experiment: its content and log.
fn single(id: &str) -> (SharedContent, SessionLog) {
    let spec = (arms(id).expect("session experiment")[0].spec)();
    (SharedContent::clone(&spec.content), spec.build().run())
}

/// Runs an experiment's sessions across `min(jobs, cores)` workers;
/// outcomes come back in arm order, so the emitted per-session artifacts
/// are identical at every `jobs` value.
pub fn traced_sessions(id: &str, jobs: usize) -> Option<Vec<SessionOutcome>> {
    run_sessions(id, jobs, false).map(|(outcomes, _)| outcomes)
}

/// The one body behind `exp --id <id>` with `--trace/--chrome` and
/// `--profile`: the experiment's arm list, observed. With `profile`
/// every work item runs with a private profiler wired into its sessions'
/// `ObsHandle`s, and the returned [`WorkloadProfile`] carries the merged
/// span tree plus the pool's phase/worker accounting. Outcomes are
/// byte-identical either way. `None` for an experiment that runs no
/// session.
pub fn run_sessions(
    id: &str,
    jobs: usize,
    profile: bool,
) -> Option<(Vec<SessionOutcome>, Option<WorkloadProfile>)> {
    let setup = runner::Lap::start(profile);
    let arms = arms(id)?;
    let setup_ns = setup.ns();
    let (outcomes, pool) = run_arms(&arms, jobs, profile, |arm, session, _, profiler| {
        let (log, events) = run_traced(session, profiler);
        SessionOutcome {
            label: arm.label.clone(),
            log,
            events,
        }
    });
    // The pool counts work items; an edge's item runs several sessions.
    let profile = pool.map(|pool| WorkloadProfile {
        sessions: arms.len() as u64,
        ..WorkloadProfile::from_pool(id, setup_ns, pool)
    });
    Some((outcomes, profile))
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 1: the drama-show ladder, with the synthetic content's measured
/// average/peak bitrates shown next to the declared targets (calibration
/// check for the content substitution).
fn t1() -> ExperimentResult {
    let c = drama();
    let rows = c.track_ids().iter().map(|&id| {
        let t = c.track(id);
        let sizes: Vec<Bytes> = (0..c.num_chunks()).map(|i| c.chunk_size(id, i)).collect();
        let m = measure(&sizes, c.chunk_duration());
        let (avg, peak) = (m.avg.kbps(), m.peak.kbps());
        Row::default()
            .cell("Track", "track", t.name(), Plain)
            .cell("Avg (paper)", "avg_kbps", t.avg.kbps(), Plain)
            .cell("Peak (paper)", "peak_kbps", t.peak.kbps(), Plain)
            .cell("Declared", "declared_kbps", t.declared.kbps(), Plain)
            .cell("Detail", None, t.detail.label(), Plain)
            .cell("Avg (measured)", "measured_avg_kbps", avg, Plain)
            .cell("Peak (measured)", "measured_peak_kbps", peak, Plain)
    });
    let (text, tracks) = table(rows);
    ExperimentResult {
        id: "t1",
        title: "Table 1: video and audio of a YouTube drama show",
        text,
        json: json!({ "tracks": tracks }),
    }
}

fn combo_table(combos: &[Combo]) -> (String, Value) {
    let c = drama();
    let (text, combos) = table(combos.iter().map(|&combo| {
        let b = combo_bitrate(c.video(), c.audio(), combo);
        Row::default()
            .cell("Video/Audio Combination", "combo", combo.to_string(), Plain)
            .cell("Average Bitrate (Kbps)", "avg_kbps", b.avg.kbps(), Plain)
            .cell("Peak Bitrate (Kbps)", "peak_kbps", b.peak.kbps(), Plain)
    }));
    (text, json!({ "combos": combos }))
}

/// Table 2: the full 18-combination set (`H_all`).
fn t2() -> ExperimentResult {
    let c = drama();
    let (text, json) = combo_table(&all_combos(c.video(), c.audio()));
    ExperimentResult {
        id: "t2",
        title: "Table 2: bitrates of the full combination set (H_all)",
        text,
        json,
    }
}

/// Table 3: the curated 6-combination subset (`H_sub`).
fn t3() -> ExperimentResult {
    let c = drama();
    let (text, json) = combo_table(&curated_subset(c.video(), c.audio()));
    ExperimentResult {
        id: "t3",
        title: "Table 3: bitrates of the curated subset (H_sub)",
        text,
        json,
    }
}

// ---------------------------------------------------------------------
// Fig 2 — ExoPlayer DASH
// ---------------------------------------------------------------------

/// The figures' selection timeline: the declared bitrate of each media's
/// selections over time, video as `v` and audio (labelled `audio_label`)
/// as `a`.
fn selection_plot(log: &SessionLog, title: &str, audio_label: &str) -> String {
    let v = downsample(&selection_series(log, MediaType::Video), 70);
    let a = downsample(&selection_series(log, MediaType::Audio), 70);
    ascii_plot(
        title,
        &[
            Series {
                glyph: 'v',
                label: "video",
                points: &v,
            },
            Series {
                glyph: 'a',
                label: audio_label,
                points: &a,
            },
        ],
        72,
        14,
    )
}

/// The figures' buffer plot: audio and video buffer levels over time.
fn buffer_plot(log: &SessionLog, title: &str) -> String {
    let a = downsample(&buffer_series(log, MediaType::Audio), 140);
    let v = downsample(&buffer_series(log, MediaType::Video), 140);
    ascii_plot(
        title,
        &[
            Series {
                glyph: 'a',
                label: "audio buffer",
                points: &a,
            },
            Series {
                glyph: 'v',
                label: "video buffer",
                points: &v,
            },
        ],
        72,
        14,
    )
}

fn log_summary_json(log: &SessionLog) -> Value {
    let q = abr_qoe::summarize(log);
    json!({
        "policy": q.policy,
        "completed": q.completed,
        "stalls": q.stall_count,
        "total_stall_s": q.total_stall.as_secs_f64(),
        "mean_video_kbps": q.mean_video_kbps,
        "mean_audio_kbps": q.mean_audio_kbps,
        "video_switches": q.video_switches,
        "audio_switches": q.audio_switches,
        "mean_imbalance_s": q.mean_imbalance.as_secs_f64(),
        "max_imbalance_s": q.max_imbalance.as_secs_f64(),
        "score": q.score,
        "combos": abr_qoe::combos_used(log)
            .iter()
            .map(|(c, n)| json!({"combo": c.to_string(), "chunks": n}))
            .collect::<Vec<_>>(),
    })
}

/// Fig 2(a)/(b): ExoPlayer DASH with the low "B" (or high "C") audio set
/// at a fixed 900 Kbps.
fn f2(high_audio: bool) -> ExperimentResult {
    let (content, log) = single(if high_audio { "f2b" } else { "f2a" });
    // ExoPlayer's DASH rule is the log staircase over the declared rates.
    let ladder = log_staircase(content.video(), content.audio());
    let staircase: Vec<String> = ladder.iter().map(ToString::to_string).collect();
    let dominant = abr_qoe::combos_used(&log)
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .expect("non-empty session");

    // The better combination the paper points out is excluded.
    let (better, better_bw) = if high_audio {
        // V3+C1: 473 + 196 declared.
        (Combo::new(2, 0), 669)
    } else {
        // V3+B3: 473 + 128 declared.
        (Combo::new(2, 2), 601)
    };
    let excluded = !ladder.contains(&better);

    let mut text = selection_plot(&log, "Selected declared bitrate over time (Kbps)", "audio");
    let _ = write!(
        text,
        "\npredetermined staircase: {}\n\
         dominant combination:    {} ({} of {} chunks)\n\
         paper's better choice:   {} ({} Kbps declared) — excluded from staircase: {}\n\
         stalls: {}  total rebuffering: {:.1}s\n",
        staircase.join(", "),
        dominant.0,
        dominant.1,
        log.num_chunks,
        better,
        better_bw,
        excluded,
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );
    ExperimentResult {
        id: if high_audio { "f2b" } else { "f2a" },
        title: if high_audio {
            "Fig 2(b): ExoPlayer DASH, high-bitrate audio set C, 900 Kbps"
        } else {
            "Fig 2(a): ExoPlayer DASH, low-bitrate audio set B, 900 Kbps"
        },
        text,
        json: json!({
            "staircase": staircase,
            "dominant_combo": dominant.0.to_string(),
            "dominant_chunks": dominant.1,
            "better_choice": better.to_string(),
            "better_excluded": excluded,
            "session": log_summary_json(&log),
        }),
    }
}

// ---------------------------------------------------------------------
// Fig 3 — ExoPlayer HLS
// ---------------------------------------------------------------------

/// Fig 3(a): selection timeline — audio pinned at A3, off-manifest combos.
fn f3a() -> ExperimentResult {
    let (content, log) = single("f3a");
    let allowed = curated_subset(content.video(), content.audio());
    let audio_tracks = log.distinct_tracks(MediaType::Audio);
    let off = abr_qoe::off_manifest_chunks(&log, &allowed);
    let combos: Vec<String> = abr_qoe::distinct_combos(&log)
        .iter()
        .map(ToString::to_string)
        .collect();

    let mut text = selection_plot(
        &log,
        "Selected declared bitrate over time (Kbps)",
        "audio (pinned)",
    );
    let _ = write!(
        text,
        "\naudio tracks used: {:?} (A3 pinned = first listed)\n\
         combinations used: {}\n\
         off-manifest chunks: {} of {}\n\
         stalls: {}  total rebuffering: {:.1}s  (paper: 5 stalls, 36.9s)\n",
        audio_tracks
            .iter()
            .map(|i| format!("A{}", i + 1))
            .collect::<Vec<_>>(),
        combos.join(", "),
        off,
        log.num_chunks,
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );
    ExperimentResult {
        id: "f3a",
        title: "Fig 3(a): ExoPlayer HLS (H_sub, A3 first), varying ~600 Kbps",
        text,
        json: json!({
            "audio_tracks_used": audio_tracks,
            "off_manifest_chunks": off,
            "session": log_summary_json(&log),
        }),
    }
}

/// Fig 3(b): audio/video buffer levels with stall windows.
fn f3b() -> ExperimentResult {
    let (_, log) = single("f3b");
    let mut text = buffer_plot(&log, "Buffer level over time (seconds)");
    let stalls = stall_windows(&log);
    text.push_str("\nstall windows (s): ");
    text.push_str(
        &stalls
            .iter()
            .map(|(s, e)| format!("[{s:.1}–{e:.1}]"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let _ = write!(
        text,
        "\nmax buffer imbalance: {:.1}s (chunk-level sync keeps buffers close)\n",
        log.max_buffer_imbalance().as_secs_f64()
    );
    ExperimentResult {
        id: "f3b",
        title: "Fig 3(b): ExoPlayer HLS buffer levels (same run as Fig 3a)",
        text,
        json: json!({
            "stall_windows": stalls,
            "max_imbalance_s": log.max_buffer_imbalance().as_secs_f64(),
            "session": log_summary_json(&log),
        }),
    }
}

/// §3.2's second HLS experiment (no figure): A1 listed first, 5 Mbps —
/// audio stays pinned at A1 despite ample headroom.
fn f3x() -> ExperimentResult {
    let (_, log) = single("f3x");
    let q = abr_qoe::summarize(&log);
    let audio_tracks = log.distinct_tracks(MediaType::Audio);
    let text = format!(
        "link: 5 Mbps fixed; H_sub with A1 listed first\n\
         audio tracks used: {:?}  (paper: A1 throughout despite headroom)\n\
         mean video: {} Kbps  mean audio: {} Kbps\n\
         stalls: {}\n",
        audio_tracks
            .iter()
            .map(|i| format!("A{}", i + 1))
            .collect::<Vec<_>>(),
        q.mean_video_kbps,
        q.mean_audio_kbps,
        log.stall_count(),
    );
    ExperimentResult {
        id: "f3x",
        title: "§3.2 ExoPlayer HLS experiment 2: A1 first at 5 Mbps",
        text,
        json: json!({
            "audio_tracks_used": audio_tracks,
            "session": log_summary_json(&log),
        }),
    }
}

/// The §4.1 repairs, evaluated on the exact Fig 3 setup: stock ExoPlayer
/// HLS (pinned audio) versus (a) the repaired HLS path fed per-track
/// bitrates via the proposed master-playlist extension and (b) the
/// best-practice player on the same manifest.
fn f3fix(jobs: usize) -> ExperimentResult {
    let arms = arms("f3fix").expect("f3fix is traceable");
    let players = [
        "stock exoplayer-hls",
        "exoplayer-hls-fixed (§4.1 ext)",
        "bestpractice (same manifest)",
    ];
    let logs = logs(&arms, jobs);
    let (mut text, rows) = table(players.iter().zip(&logs).map(|(label, log)| {
        let q = abr_qoe::summarize(log);
        let stall_s = q.total_stall.as_secs_f64();
        let audio_used: Vec<String> = log
            .distinct_tracks(MediaType::Audio)
            .iter()
            .map(|i| format!("A{}", i + 1))
            .collect();
        Row::default()
            .cell("Player", "player", label, Plain)
            .cell("Audio used", "audio_tracks", audio_used, Join("/"))
            .cell("Stalls", "stalls", q.stall_count, Plain)
            .cell("Stall s", "total_stall_s", stall_s, Dec(1))
            .cell("Video Kbps", None, q.mean_video_kbps, Plain)
            .cell("Audio Kbps", None, q.mean_audio_kbps, Plain)
            .cell("QoE", "score", q.score, Dec(2))
    }));
    text.push_str(concat!(
        "\nthe stock player pins A3 and rebuffers; giving it the §4.1 per-track\n",
        "bitrate extension restores audio adaptation and removes (nearly) all\n",
        "rebuffering on the same trace and listing order.\n",
    ));
    ExperimentResult {
        id: "f3fix",
        title: "F3-fix: §4.1 repairs evaluated on the Fig 3 setup",
        text,
        json: json!({ "rows": rows }),
    }
}

// ---------------------------------------------------------------------
// Fig 4 — Shaka
// ---------------------------------------------------------------------

/// Fig 4(a): Shaka over `H_all` at a fixed 1 Mbps — the 16 KB filter
/// rejects every sample and the estimate stays at the 500 Kbps default.
fn f4a() -> ExperimentResult {
    let (_, log) = single("f4a");
    let est = estimate_series(&log);
    let est_plot = downsample(&est, 70);
    let mut text = ascii_plot(
        "Shaka bandwidth estimate over time (Kbps); actual link = 1000",
        &[Series {
            glyph: 'e',
            label: "estimate",
            points: &est_plot,
        }],
        72,
        10,
    );
    let dominant = abr_qoe::combos_used(&log)
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .expect("non-empty");
    let flat_500 = est.iter().all(|&(_, e)| (e - 500.0).abs() < 1.0);
    let _ = write!(
        text,
        "\nestimate flat at 500 Kbps default: {}\n\
         dominant combination: {} ({} of {} chunks)  (paper: V2+A2 at 460 Kbps)\n",
        flat_500, dominant.0, dominant.1, log.num_chunks
    );
    ExperimentResult {
        id: "f4a",
        title: "Fig 4(a): Shaka HLS (H_all) at fixed 1 Mbps",
        text,
        json: json!({
            "estimate_flat_500": flat_500,
            "dominant_combo": dominant.0.to_string(),
            "session": log_summary_json(&log),
        }),
    }
}

/// Fig 4(b): Shaka over a dynamic mean-600 Kbps trace — under- then
/// over-estimation.
fn f4b() -> ExperimentResult {
    let (_, log) = single("f4b");
    let est = estimate_series(&log);
    let est_plot = downsample(&est, 70);
    let mut text = ascii_plot(
        "Shaka bandwidth estimate over time (Kbps); link mean = 600",
        &[Series {
            glyph: 'e',
            label: "estimate",
            points: &est_plot,
        }],
        72,
        12,
    );
    let early_max = est
        .iter()
        .filter(|&&(t, _)| t < 50.0)
        .map(|&(_, e)| e)
        .fold(0.0f64, f64::max);
    let late_max = est.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
    let combos: Vec<String> = abr_qoe::distinct_combos(&log)
        .iter()
        .map(ToString::to_string)
        .collect();
    let _ = write!(
        text,
        "\nestimate before t=50s: ≤{early_max:.0} Kbps (stuck at default; link is 400)\n\
         peak estimate after bursts: {late_max:.0} Kbps (true mean 600)\n\
         combinations used: {}\n\
         stalls: {}  total rebuffering: {:.1}s  (paper: 39s)\n",
        combos.join(", "),
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );
    ExperimentResult {
        id: "f4b",
        title: "Fig 4(b): Shaka HLS (H_all), dynamic mean-600 Kbps trace",
        text,
        json: json!({
            "early_max_estimate_kbps": early_max,
            "late_max_estimate_kbps": late_max,
            "session": log_summary_json(&log),
        }),
    }
}

/// §3.3 fluctuation example (no figure): sweeping the estimate across
/// 300–700 Kbps flips the rate-based choice among five nearby
/// combinations.
fn f4x() -> ExperimentResult {
    let content = drama();
    let view = hls_all_view(&content);
    let policy = ShakaPolicy::hls(&view);
    let choice = |kbps| policy.choice_for_estimate(BitsPerSec::from_kbps(kbps));
    let estimates = (300..=700).step_by(25);
    let picks: Vec<Combo> = estimates.clone().map(choice).collect();
    let (mut text, _) = table(estimates.zip(&picks).map(|(kbps, &pick)| {
        let bw = combo_bitrate(content.video(), content.audio(), pick).peak;
        Row::default()
            .cell("Estimate (Kbps)", None, kbps, Plain)
            .cell("Selected combination", None, pick.to_string(), Plain)
            .cell("Combo BANDWIDTH (Kbps)", None, bw.kbps(), Plain)
    }));
    let mut distinct: Vec<String> = picks.iter().map(ToString::to_string).collect();
    distinct.dedup();
    let _ = write!(
        text,
        "\ndistinct selections across the sweep: {} — {}\n\
         (paper: fluctuation among V1+A2, V2+A1, V2+A2, V1+A3, V2+A3 at 318/395/460/510/652)\n",
        distinct.len(),
        distinct.join(" → "),
    );
    ExperimentResult {
        id: "f4x",
        title: "§3.3 Shaka fluctuation: selection vs estimate, 300-700 Kbps",
        text,
        json: json!({
            "distinct_selections": distinct,
        }),
    }
}

// ---------------------------------------------------------------------
// Fig 5 — dash.js
// ---------------------------------------------------------------------

/// Fig 5(a): dash.js independent adaptation at 700 Kbps — undesirable
/// combinations.
fn f5a() -> ExperimentResult {
    let (_, log) = single("f5a");
    let combos_rle = abr_qoe::combos_used(&log);
    let combos: Vec<String> = abr_qoe::distinct_combos(&log)
        .iter()
        .map(ToString::to_string)
        .collect();
    // The paper's better alternative: V3+A2 (declared 669) fits 700 Kbps.
    let undesirable = combos_rle
        .iter()
        .filter(|(c, _)| *c == Combo::new(1, 2))
        .map(|(_, n)| n)
        .sum::<usize>();
    let mut text = selection_plot(
        &log,
        "Selected declared bitrate over time (Kbps); link = 700",
        "audio",
    );
    let _ = write!(
        text,
        "\ncombinations used: {}\n\
         chunks on V2+A3 (the paper's 'clearly undesirable' pick): {}\n\
         V3+A2 (declared 669 ≤ 700, better video) available but requires joint reasoning\n\
         stalls: {}  total rebuffering: {:.1}s\n",
        combos.join(", "),
        undesirable,
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );
    ExperimentResult {
        id: "f5a",
        title: "Fig 5(a): dash.js DASH at fixed 700 Kbps — track selection",
        text,
        json: json!({
            "chunks_on_v2a3": undesirable,
            "session": log_summary_json(&log),
        }),
    }
}

/// Fig 5(b): dash.js audio/video buffer imbalance.
fn f5b() -> ExperimentResult {
    let (_, log) = single("f5b");
    let mut text = buffer_plot(
        &log,
        "Buffer level over time (seconds); independent pipelines",
    );
    let _ = write!(
        text,
        "\nmean |audio − video| imbalance: {:.1}s   max: {:.1}s\n\
         (paper: unbalanced buffers; stalls possible with content left in the other buffer)\n",
        log.mean_buffer_imbalance().as_secs_f64(),
        log.max_buffer_imbalance().as_secs_f64(),
    );
    ExperimentResult {
        id: "f5b",
        title: "Fig 5(b): dash.js buffer levels (same run as Fig 5a)",
        text,
        json: json!({
            "mean_imbalance_s": log.mean_buffer_imbalance().as_secs_f64(),
            "max_imbalance_s": log.max_buffer_imbalance().as_secs_f64(),
            "session": log_summary_json(&log),
        }),
    }
}

// ---------------------------------------------------------------------
// Best practices (§4) — the paper's future work, evaluated
// ---------------------------------------------------------------------

/// The policy shootouts, one row per (trace, policy). BP1 runs the four
/// policies plus the baselines over DASH on four traces and adds each
/// row's max imbalance and chunks off the curated set. BP5 runs them
/// over every named network profile (DSL, LTE walk, congested HSPA, bus
/// commute, elevator outage, and the two paper profiles); its compact
/// score column is what a regression dashboard would track.
fn shootout(id: &'static str, jobs: usize) -> ExperimentResult {
    let arms = arms(id).expect("the shootouts run sessions");
    let logs = logs(&arms, jobs);
    let content = (arms[0].spec)().content;
    let allowed = curated_subset(content.video(), content.audio());
    let bp1 = id == "bp1";
    // BP5 prints its rates and switches but keeps its JSON compact.
    let key = |key| bp1.then_some(key);
    let (text, rows) = table(arms.iter().zip(&logs).map(|(arm, log)| {
        let tname = arm
            .label
            .split('/')
            .nth(1)
            .expect("`<id>/<trace>/<kind>` label");
        let q = abr_qoe::summarize(log);
        let stall_s = q.total_stall.as_secs_f64();
        let (video, audio) = (q.mean_video_kbps, q.mean_audio_kbps);
        let switches = q.video_switches + q.audio_switches;
        let row = Row::default()
            .cell("Trace", "trace", tname, Plain)
            .cell("Policy", "policy", &q.policy, Plain)
            .cell("QoE", "score", q.score, Dec(2))
            .cell("Stalls", "stalls", q.stall_count, Plain)
            .cell("Stall s", "total_stall_s", stall_s, Dec(1))
            .cell("Video Kbps", key("mean_video_kbps"), video, Plain)
            .cell("Audio Kbps", key("mean_audio_kbps"), audio, Plain)
            .cell("Switches", key("switches"), switches, Plain);
        if !bp1 {
            return row;
        }
        let imbalance = q.max_imbalance.as_secs_f64();
        let off = abr_qoe::off_manifest_chunks(log, &allowed);
        row.cell("Max imbal s", "max_imbalance_s", imbalance, Dec(1))
            .cell("Off-curated", "off_curated_chunks", off, Plain)
    }));
    ExperimentResult {
        id,
        title: if bp1 {
            "BP1: policy shootout over DASH (QoE per §4 recommendations)"
        } else {
            "BP5: corpus sweep — every policy over every named network profile"
        },
        text,
        json: json!({ "rows": rows }),
    }
}

/// BP2: ablation of §4.2 chunk-level prefetch balancing — the
/// best-practice policy with synchronized vs independent pipelines.
fn bp2(jobs: usize) -> ExperimentResult {
    let modes = ["chunk-level sync", "independent"];
    let logs = logs(&arms("bp2").expect("bp2 runs sessions"), jobs);
    let (text, rows) = table(modes.iter().zip(&logs).map(|(label, log)| {
        let q = abr_qoe::summarize(log);
        let stall_s = q.total_stall.as_secs_f64();
        let mean_imbalance = q.mean_imbalance.as_secs_f64();
        let max_imbalance = q.max_imbalance.as_secs_f64();
        Row::default()
            .cell("Prefetch mode", "mode", label, Plain)
            .cell("QoE", "score", q.score, Dec(2))
            .cell("Stalls", "stalls", q.stall_count, Plain)
            .cell("Stall s", "total_stall_s", stall_s, Dec(1))
            .cell("Mean imbal s", "mean_imbalance_s", mean_imbalance, Dec(1))
            .cell("Max imbal s", "max_imbalance_s", max_imbalance, Dec(1))
    }));
    ExperimentResult {
        id: "bp2",
        title: "BP2: §4.2 prefetch-balance ablation (best-practice policy)",
        text,
        json: json!({ "rows": rows }),
    }
}

/// BP3: the §4.1 DASH allowed-combinations extension end-to-end — the MPD
/// itself carries the curation; the best-practice player consumes it with
/// no out-of-band channel and stays inside it on a hostile trace.
fn bp3() -> ExperimentResult {
    let (content, log) = single("bp3");
    let combos = curated_subset(content.video(), content.audio());
    let q = abr_qoe::summarize(&log);
    let off = abr_qoe::off_manifest_chunks(&log, &combos);
    let text = format!(
        concat!(
            "MPD SupplementalProperty scheme: {}\n",
            "combinations carried in the manifest: {}\n",
            "session over the varying-600k trace:\n",
            "completed {}  stalls {}  rebuffering {:.1}s  off-manifest chunks {}\n",
            "mean video {} Kbps  mean audio {} Kbps  QoE {:.2}\n",
        ),
        abr_manifest::dash::COMBINATIONS_SCHEME,
        combos
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        q.completed,
        q.stall_count,
        q.total_stall.as_secs_f64(),
        off,
        q.mean_video_kbps,
        q.mean_audio_kbps,
        q.score,
    );
    ExperimentResult {
        id: "bp3",
        title: "BP3: §4.1 DASH allowed-combinations extension, end to end",
        text,
        json: json!({
            "off_manifest_chunks": off,
            "session": log_summary_json(&log),
        }),
    }
}

/// BP4: §4.1 footnote 2 — "we suggest avoiding the practice of 'lazy'
/// fetching". Preloaded vs eager vs lazy playlist fetching, same policy,
/// same trace, on a high-latency (200 ms) link where round trips matter.
fn bp4(jobs: usize) -> ExperimentResult {
    let modes = [
        "preloaded (out-of-band)",
        "eager (§4.1 suggestion)",
        "lazy (§4.1 warns against)",
    ];
    let logs = logs(&arms("bp4").expect("bp4 runs sessions"), jobs);
    let (mut text, rows) = table(modes.iter().zip(&logs).map(|(label, log)| {
        let q = abr_qoe::summarize(log);
        let fetches = log.playlist_fetches.len();
        let startup = q.startup_delay.map(abr_event::Duration::as_secs_f64);
        let stall_s = q.total_stall.as_secs_f64();
        Row::default()
            .cell("Playlist fetching", "mode", label, Plain)
            .cell("Fetches", "playlist_fetches", fetches, Plain)
            .cell("Startup s", "startup_s", startup, Dec(2))
            .cell("Stalls", "stalls", q.stall_count, Plain)
            .cell("Stall s", "total_stall_s", stall_s, Dec(1))
            .cell("QoE", "score", q.score, Dec(2))
    }));
    text.push_str(concat!(
        "\nlazy fetching pays a playlist round trip at every first use of a\n",
        "track (and the adaptation logic is blind to per-track bitrates until\n",
        "then); eager fetching front-loads the cost into startup, once.\n",
    ));
    ExperimentResult {
        id: "bp4",
        title: "BP4: §4.1 footnote — lazy vs eager playlist fetching",
        text,
        json: json!({ "rows": rows }),
    }
}

// ---------------------------------------------------------------------
// M1 — §1 motivation: storage and CDN cache
// ---------------------------------------------------------------------

/// M1: demuxed M+N vs muxed M×N origin storage, and the two-user CDN
/// cache-hit scenario.
fn m1() -> ExperimentResult {
    use abr_httpsim::storage::{demuxed_storage_multilang, muxed_storage_multilang};

    let content = drama();
    let cmp = StorageComparison::compute(&content);

    // Two-user scenario: A streams V1+A2, then B streams V1+A1.
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let n = content.num_chunks();

    let mut demux = CdnCache::new(Bytes(1 << 32));
    for chunk in 0..n {
        demux
            .fetch(&origin, &Origin::segment_request(TrackId::video(0), chunk))
            .unwrap();
        demux
            .fetch(&origin, &Origin::segment_request(TrackId::audio(1), chunk))
            .unwrap();
    }
    let a_stats = demux.stats();
    for chunk in 0..n {
        demux
            .fetch(&origin, &Origin::segment_request(TrackId::video(0), chunk))
            .unwrap();
        demux
            .fetch(&origin, &Origin::segment_request(TrackId::audio(0), chunk))
            .unwrap();
    }
    let b_hits = demux.stats().hits - a_stats.hits;

    let mut mux = CdnCache::new(Bytes(1 << 32));
    for chunk in 0..n {
        mux.fetch(
            &origin,
            &Request::whole(ObjectId::MuxedSegment {
                combo: Combo::new(0, 1),
                chunk,
            }),
        )
        .unwrap();
    }
    for chunk in 0..n {
        mux.fetch(
            &origin,
            &Request::whole(ObjectId::MuxedSegment {
                combo: Combo::new(0, 0),
                chunk,
            }),
        )
        .unwrap();
    }
    let mux_b_hits = mux.stats().hits;

    let (lang_table, _) = table((1..=5usize).map(|l| {
        let d = demuxed_storage_multilang(&content, l).get();
        let m = muxed_storage_multilang(&content, l).get();
        let expansion = format!("x{:.2}", m as f64 / d as f64);
        Row::default()
            .cell("Languages", None, l, Plain)
            .cell("Demuxed MB", None, d, Mb(1))
            .cell("Muxed MB", None, m, Mb(1))
            .cell("Expansion", None, expansion, Plain)
    }));
    let text = format!(
        concat!(
            "Origin storage (Table 1 content, 6 video × 3 audio):\n",
            "demuxed (M+N tracks): {:>12} bytes\n",
            "muxed  (M×N tracks):  {:>12} bytes   expansion ×{:.2}\n\n",
            "…and with multiple audio languages (§1's motivating case):\n{}\n",
            "Two-user CDN scenario (A: V1+A2, then B: V1+A1), {} chunks each:\n",
            "demuxed: B hits cache on {} of {} requests (all video chunks)\n",
            "muxed:   B hits cache on {} of {} requests\n",
        ),
        cmp.demuxed.get(),
        cmp.muxed.get(),
        cmp.expansion_factor(),
        lang_table,
        n,
        b_hits,
        2 * n,
        mux_b_hits,
        n,
    );
    ExperimentResult {
        id: "m1",
        title: "M1: §1 motivation — storage and CDN cache effects of demuxing",
        text,
        json: json!({
            "demuxed_bytes": cmp.demuxed.get(),
            "muxed_bytes": cmp.muxed.get(),
            "expansion_factor": cmp.expansion_factor(),
            "demuxed_user_b_hits": b_hits,
            "muxed_user_b_hits": mux_b_hits,
        }),
    }
}

/// M2: the other side of the §1 trade-off — muxed delivery eliminates the
/// coordination problem entirely: one flow per position, buffers in
/// lockstep, whole-link visibility for per-flow estimators. Same Shaka
/// policy, same 2 Mbps link, both delivery modes.
fn m2(jobs: usize) -> ExperimentResult {
    let modes = ["demuxed", "muxed"];
    let logs = logs(&arms("m2").expect("m2 runs sessions"), jobs);
    let (mut text, rows) = table(modes.iter().zip(&logs).map(|(label, log)| {
        let q = abr_qoe::summarize(log);
        let last = log.transfers.last().and_then(|t| t.estimate_after);
        let kbps = last.map_or(0, abr_media::BitsPerSec::kbps);
        let max_imbalance = q.max_imbalance.as_secs_f64();
        Row::default()
            .cell("Delivery", "mode", label, Plain)
            .cell("Final estimate Kbps", "final_estimate_kbps", kbps, Plain)
            .cell("Video Kbps", "mean_video_kbps", q.mean_video_kbps, Plain)
            .cell("Audio Kbps", "mean_audio_kbps", q.mean_audio_kbps, Plain)
            .cell("Max imbal s", "max_imbalance_s", max_imbalance, Dec(1))
            .cell("Stalls", None, q.stall_count, Plain)
    }));
    text.push_str(concat!(
        "\nShaka's per-flow estimator on a 2 Mbps link. Demuxed, audio and\n",
        "video share the link: the estimate sits at its 500 Kbps default to\n",
        "chunk 2, reaches 1317 Kbps at 2.7 s and climbs from there, so V4+A3\n",
        "starts at chunk 6 (14.9 s). Muxed, the first sample reads the full\n",
        "2 Mbps at 0.9 s and V4+A3 plays from chunk 1.\n",
        "The §1 price: the origin stores every M×N pairing (see M1).\n",
    ));
    ExperimentResult {
        id: "m2",
        title: "M2: muxed delivery dissolves the coordination problem (at M×N cost)",
        text,
        json: json!({ "rows": rows }),
    }
}

/// M3: the §1 CDN argument at the *session* level. Viewer A (V4+A2) warms
/// an edge cache; viewer B (same video, different audio: V4+A1) then
/// streams through it. Under demuxed delivery B's video is already cached;
/// under muxed delivery every chunk is a distinct M×N object and misses.
fn m3(jobs: usize) -> ExperimentResult {
    let arms = arms("m3").expect("m3 runs sessions");
    let (viewers, _) = run_arms(&arms, jobs, false, |_, session, edge, _| {
        let log = session.run();
        let edge = edge.expect("m3 viewers share an edge").borrow();
        (log, edge.cache.stats())
    });
    // Per edge: viewer A, then viewer B, each with the edge's counters
    // once it has run; B's share is the difference.
    let edges = ["demuxed", "muxed"].iter().zip(viewers.chunks(2));
    let (mut text, rows) = table(edges.map(|(label, viewers)| {
        let [(_, before), (b_log, stats)] = viewers else {
            unreachable!("two viewers per edge");
        };
        let (b_hits, b_misses) = (stats.hits - before.hits, stats.misses - before.misses);
        let origin = stats.bytes_from_origin.get() - before.bytes_from_origin.get();
        let origin_mb = origin as f64 / 1e6;
        let qb = abr_qoe::summarize(b_log);
        let startup = qb.startup_delay.map(abr_event::Duration::as_secs_f64);
        Row::default()
            .cell("Delivery", "mode", label, Plain)
            .cell("B hits", "viewer_b_hits", b_hits, Plain)
            .cell("B misses", "viewer_b_misses", b_misses, Plain)
            .cell("B startup s", "viewer_b_startup_s", startup, Dec(2))
            .cell("B stalls", None, qb.stall_count, Plain)
            .cell("B origin MB", "viewer_b_origin_mb", origin_mb, Dec(1))
    }));
    text.push_str(concat!(
        "\nviewer A watched V4+A2; viewer B watches V4+A1 through the same\n",
        "edge. Demuxed, all of B's video chunks hit the warmed cache (only\n",
        "audio goes to the origin); muxed, V4+A1 is a different object from\n",
        "V4+A2 and every chunk pays the origin round trip — the §1 cache\n",
        "argument, measured end to end.\n",
    ));
    ExperimentResult {
        id: "m3",
        title: "M3: two viewers through one edge cache — demuxed vs muxed",
        text,
        json: json!({ "rows": rows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arm observed with and without a profiler gives the same outcome
    /// under the same label; the profiler only observes.
    #[test]
    fn spec_run_profiled_equals_run() {
        let (plain, _) = run_sessions("f4a", 1, false).expect("f4a runs a session");
        let (profiled, profile) = run_sessions("f4a", 1, true).expect("f4a runs a session");
        let (plain, profiled) = (&plain[0], &profiled[0]);
        assert!(plain.log == profiled.log, "log changed with a profiler");
        assert_eq!(plain.events, profiled.events);
        assert_eq!(plain.label, "f4a/shaka-hls-1m");
        assert_eq!(plain.label, profiled.label);
        let report = profile.expect("profiled run").spans;
        let names: Vec<&str> = report
            .flatten()
            .iter()
            .map(|(_, _, node)| node.name.as_str())
            .collect();
        assert!(names.contains(&"session.run"), "spans: {names:?}");
    }
}
