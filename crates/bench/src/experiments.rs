//! One function per paper artifact. See DESIGN.md §7 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured outcomes.

use crate::profiling::WorkloadProfile;
use crate::report::{ascii_plot, table, Series};
use crate::runner::{self, SessionOutcome};
use crate::setup::*;
use abr_core::{BestPracticePolicy, DashJsPolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_event::time::Duration;
use abr_httpsim::cache::CdnCache;
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
use abr_player::config::SyncMode;
use abr_player::policy::AbrPolicy;
use abr_player::SessionLog;
use serde_json::{json, Value};
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
        "bp1" => bp1(jobs),
        "bp2" => bp2(jobs),
        "bp3" => bp3(),
        "bp4" => bp4(jobs),
        "bp5" => bp5(jobs),
        "m1" => m1(),
        "m2" => m2(jobs),
        "m3" => m3(),
        _ => return None,
    })
}

/// One traceable session, defined once. The figure renders it over a
/// disabled handle ([`Arm::log`]); `exp --id <id>` with `--trace/
/// --chrome/--profile` observes the same recipe over the recording
/// handle ([`Arm::observe`]). Every field is `Sync`, so a sweep's
/// workers share one arm list.
struct Arm {
    /// `<id>/<arm>`: the name an observed session is filed under.
    label: String,
    content: SharedContent,
    kind: PlayerKind,
    /// Builds a fresh policy for each run of the arm.
    policy: Box<dyn Fn() -> Box<dyn AbrPolicy> + Send + Sync>,
    trace: Trace,
}

impl Arm {
    fn new(
        label: String,
        content: &SharedContent,
        kind: PlayerKind,
        policy: impl Fn() -> Box<dyn AbrPolicy> + Send + Sync + 'static,
        trace: Trace,
    ) -> Arm {
        Arm {
            label,
            content: SharedContent::clone(content),
            kind,
            policy: Box::new(policy),
            trace,
        }
    }

    /// Runs the session over a disabled handle: the figure path.
    fn log(&self) -> SessionLog {
        run_session(
            &self.content,
            self.kind,
            (self.policy)(),
            self.trace.clone(),
        )
    }

    /// Runs the session over the recording handle, with an
    /// optional span profiler that observes and never steers.
    fn observe(&self, profiler: Option<&Rc<Profiler>>) -> SessionOutcome {
        let (log, events) = run_session_obs(
            &self.content,
            self.kind,
            (self.policy)(),
            self.trace.clone(),
            profiler,
        );
        SessionOutcome {
            label: self.label.clone(),
            log,
            events,
        }
    }

    /// The trace column of a `<id>/<trace>/<kind>` sweep label.
    fn trace_name(&self) -> &str {
        self.label.split('/').nth(1).expect("sweep label")
    }
}

/// The sessions behind every traceable experiment, in authored order:
/// one arm for a single-session figure, one per row for the sweeps
/// (`f3fix`, `bp1`, `bp5`). Content, views and traces are built once per
/// call and shared by the arms. Returns `None` for pure tables and for
/// the experiments whose sessions share cache/storage state or override
/// the canonical session (`bp2`–`bp4`, `m1`–`m3`).
fn arms(id: &str) -> Option<Vec<Arm>> {
    use abr_manifest::build::build_master_playlist_ext;
    use abr_manifest::view::BoundHls;
    use abr_manifest::MasterPlaylist;

    let label = |name: &str| format!("{id}/{name}");
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
            vec![Arm::new(
                label("exoplayer-dash-900k"),
                &content,
                PlayerKind::ExoPlayer,
                move || Box::new(ExoPlayerPolicy::dash(&view)),
                fixed(900),
            )]
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
            vec![Arm::new(
                label(name),
                &content,
                PlayerKind::ExoPlayer,
                move || Box::new(ExoPlayerPolicy::hls(&view)),
                trace,
            )]
        }
        "f3fix" => {
            // Stock manifest (A3 first) and extended manifest (same listing).
            let content = drama();
            let trace = fig3();
            let stock = Arc::new(hls_sub_view(&content, &[2, 0, 1]));
            let combos = curated_subset(content.video(), content.audio());
            let ext_master = build_master_playlist_ext(&content, &combos, &[2, 0, 1]);
            let ext = BoundHls::from_master(
                &MasterPlaylist::parse(&ext_master.to_text()).expect("parses"),
            )
            .expect("binds");
            let best = Arc::clone(&stock);
            vec![
                Arm::new(
                    label("stock-exoplayer-hls"),
                    &content,
                    PlayerKind::ExoPlayer,
                    move || Box::new(ExoPlayerPolicy::hls(&stock)),
                    trace.clone(),
                ),
                Arm::new(
                    label("exoplayer-hls-fixed"),
                    &content,
                    PlayerKind::ExoPlayer,
                    move || Box::new(ExoPlayerPolicy::hls_fixed(&ext).expect("extension present")),
                    trace.clone(),
                ),
                Arm::new(
                    label("bestpractice"),
                    &content,
                    PlayerKind::BestPractice,
                    move || Box::new(BestPracticePolicy::from_hls(&best)),
                    trace,
                ),
            ]
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
            vec![Arm::new(
                label(name),
                &content,
                PlayerKind::Shaka,
                move || Box::new(ShakaPolicy::hls(&view)),
                trace,
            )]
        }
        "f5a" | "f5b" => {
            let content = drama();
            let view = dash_view(&content);
            vec![Arm::new(
                label("dashjs-700k"),
                &content,
                PlayerKind::DashJs,
                move || Box::new(DashJsPolicy::new(&view)),
                fixed(700),
            )]
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
            let content = drama();
            let view = Arc::new(dash_view(&content));
            let mut arms = Vec::new();
            for (tname, trace) in traces {
                for kind in [
                    PlayerKind::ExoPlayer,
                    PlayerKind::Shaka,
                    PlayerKind::DashJs,
                    PlayerKind::Bba,
                    PlayerKind::Mpc,
                    PlayerKind::BestPractice,
                ] {
                    let (c, v) = (SharedContent::clone(&content), Arc::clone(&view));
                    let policy = move || dash_policy_over(kind, &c, &v);
                    let name = label(&format!("{tname}/{kind:?}"));
                    arms.push(Arm::new(name, &content, kind, policy, trace.clone()));
                }
            }
            arms
        }
        _ => return None,
    })
}

/// Runs `arms` over disabled handles across `min(jobs, cores)` workers;
/// logs come back in arm order.
fn logs(arms: &[Arm], jobs: usize) -> Vec<SessionLog> {
    runner::run_indexed(arms.len(), jobs, |i| arms[i].log())
}

/// The single arm of a one-session figure, with its log.
fn single(id: &str) -> (Arm, SessionLog) {
    let arm = arms(id).expect("traceable experiment").swap_remove(0);
    let log = arm.log();
    (arm, log)
}

/// Runs an experiment's traceable sessions across `min(jobs, cores)`
/// workers; outcomes come back in arm order, so the emitted per-session
/// artifacts are identical at every `jobs` value.
pub fn traced_sessions(id: &str, jobs: usize) -> Option<Vec<SessionOutcome>> {
    run_sessions(id, jobs, false).map(|(outcomes, _)| outcomes)
}

/// The one body behind `exp --id <id>` with `--trace/--chrome` and
/// `--profile`: the experiment's arm list, observed. With `profile`
/// every session runs with a private profiler wired into its `ObsHandle`,
/// and the returned [`WorkloadProfile`] carries the merged span tree plus
/// the pool's phase/worker accounting. Outcomes are byte-identical either
/// way.
pub fn run_sessions(
    id: &str,
    jobs: usize,
    profile: bool,
) -> Option<(Vec<SessionOutcome>, Option<WorkloadProfile>)> {
    let setup = runner::Lap::start(profile);
    let arms = arms(id)?;
    let setup_ns = setup.ns();
    let (outcomes, pool) = runner::run_pool(
        arms.len(),
        jobs,
        runner::adaptive_chunk(arms.len(), jobs),
        None,
        profile,
        |i, profiler| arms[i].observe(profiler),
    );
    let profile = pool.map(|pool| WorkloadProfile::from_pool(id, setup_ns, pool));
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
    let mut rows = Vec::new();
    let mut json_tracks = Vec::new();
    for &id in c.track_ids() {
        let t = c.track(id);
        let sizes: Vec<Bytes> = (0..c.num_chunks()).map(|i| c.chunk_size(id, i)).collect();
        let m = measure(&sizes, c.chunk_duration());
        rows.push(vec![
            t.name(),
            t.avg.kbps().to_string(),
            t.peak.kbps().to_string(),
            t.declared.kbps().to_string(),
            t.detail.label(),
            m.avg.kbps().to_string(),
            m.peak.kbps().to_string(),
        ]);
        json_tracks.push(json!({
            "track": t.name(),
            "avg_kbps": t.avg.kbps(),
            "peak_kbps": t.peak.kbps(),
            "declared_kbps": t.declared.kbps(),
            "measured_avg_kbps": m.avg.kbps(),
            "measured_peak_kbps": m.peak.kbps(),
        }));
    }
    let text = table(
        &[
            "Track",
            "Avg (paper)",
            "Peak (paper)",
            "Declared",
            "Detail",
            "Avg (measured)",
            "Peak (measured)",
        ],
        &rows,
    );
    ExperimentResult {
        id: "t1",
        title: "Table 1: video and audio of a YouTube drama show",
        text,
        json: json!({ "tracks": json_tracks }),
    }
}

fn combo_table(combos: &[Combo]) -> (String, Value) {
    let c = drama();
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for &combo in combos {
        let b = combo_bitrate(c.video(), c.audio(), combo);
        rows.push(vec![
            combo.to_string(),
            b.avg.kbps().to_string(),
            b.peak.kbps().to_string(),
        ]);
        jrows.push(json!({
            "combo": combo.to_string(),
            "avg_kbps": b.avg.kbps(),
            "peak_kbps": b.peak.kbps(),
        }));
    }
    (
        table(
            &[
                "Video/Audio Combination",
                "Average Bitrate (Kbps)",
                "Peak Bitrate (Kbps)",
            ],
            &rows,
        ),
        json!({ "combos": jrows }),
    )
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
    let (arm, log) = single(if high_audio { "f2b" } else { "f2a" });
    let content = &arm.content;
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
    let (arm, log) = single("f3a");
    let allowed = curated_subset(arm.content.video(), arm.content.audio());
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
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (label, log) in players.iter().zip(&logs) {
        let q = abr_qoe::summarize(log);
        let audio_used: Vec<String> = log
            .distinct_tracks(MediaType::Audio)
            .iter()
            .map(|i| format!("A{}", i + 1))
            .collect();
        rows.push(vec![
            label.to_string(),
            audio_used.join("/"),
            q.stall_count.to_string(),
            format!("{:.1}", q.total_stall.as_secs_f64()),
            q.mean_video_kbps.to_string(),
            q.mean_audio_kbps.to_string(),
            format!("{:.2}", q.score),
        ]);
        jrows.push(json!({
            "player": label,
            "audio_tracks": audio_used,
            "stalls": q.stall_count,
            "total_stall_s": q.total_stall.as_secs_f64(),
            "score": q.score,
        }));
    }
    let mut text = table(
        &[
            "Player",
            "Audio used",
            "Stalls",
            "Stall s",
            "Video Kbps",
            "Audio Kbps",
            "QoE",
        ],
        &rows,
    );
    text.push_str(concat!(
        "\nthe stock player pins A3 and rebuffers; giving it the §4.1 per-track\n",
        "bitrate extension restores audio adaptation and removes (nearly) all\n",
        "rebuffering on the same trace and listing order.\n",
    ));
    ExperimentResult {
        id: "f3fix",
        title: "F3-fix: §4.1 repairs evaluated on the Fig 3 setup",
        text,
        json: json!({ "rows": jrows }),
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
    let mut rows = Vec::new();
    let mut picks = Vec::new();
    for kbps in (300..=700).step_by(25) {
        let pick = policy.choice_for_estimate(BitsPerSec::from_kbps(kbps));
        let bw = combo_bitrate(content.video(), content.audio(), pick)
            .peak
            .kbps();
        rows.push(vec![kbps.to_string(), pick.to_string(), bw.to_string()]);
        picks.push(pick);
    }
    let mut distinct: Vec<String> = picks.iter().map(ToString::to_string).collect();
    distinct.dedup();
    let mut text = table(
        &[
            "Estimate (Kbps)",
            "Selected combination",
            "Combo BANDWIDTH (Kbps)",
        ],
        &rows,
    );
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

/// BP1: the four policies over DASH on four traces; QoE table.
fn bp1(jobs: usize) -> ExperimentResult {
    let arms = arms("bp1").expect("bp1 is traceable");
    let logs = logs(&arms, jobs);
    let content = &arms[0].content;
    let allowed = curated_subset(content.video(), content.audio());
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (arm, log) in arms.iter().zip(&logs) {
        let tname = arm.trace_name();
        let q = abr_qoe::summarize(log);
        let off = abr_qoe::off_manifest_chunks(log, &allowed);
        rows.push(vec![
            tname.to_string(),
            q.policy.clone(),
            format!("{:.2}", q.score),
            q.stall_count.to_string(),
            format!("{:.1}", q.total_stall.as_secs_f64()),
            q.mean_video_kbps.to_string(),
            q.mean_audio_kbps.to_string(),
            (q.video_switches + q.audio_switches).to_string(),
            format!("{:.1}", q.max_imbalance.as_secs_f64()),
            off.to_string(),
        ]);
        jrows.push(json!({
            "trace": tname,
            "policy": q.policy,
            "score": q.score,
            "stalls": q.stall_count,
            "total_stall_s": q.total_stall.as_secs_f64(),
            "mean_video_kbps": q.mean_video_kbps,
            "mean_audio_kbps": q.mean_audio_kbps,
            "switches": q.video_switches + q.audio_switches,
            "max_imbalance_s": q.max_imbalance.as_secs_f64(),
            "off_curated_chunks": off,
        }));
    }
    let text = table(
        &[
            "Trace",
            "Policy",
            "QoE",
            "Stalls",
            "Stall s",
            "Video Kbps",
            "Audio Kbps",
            "Switches",
            "Max imbal s",
            "Off-curated",
        ],
        &rows,
    );
    ExperimentResult {
        id: "bp1",
        title: "BP1: policy shootout over DASH (QoE per §4 recommendations)",
        text,
        json: json!({ "rows": jrows }),
    }
}

/// BP2: ablation of §4.2 chunk-level prefetch balancing — the
/// best-practice policy with synchronized vs independent pipelines.
fn bp2(jobs: usize) -> ExperimentResult {
    let content = drama();
    let view = hls_sub_view(&content, &[0, 1, 2]);
    let trace = Trace::fig3_varying_600k(Duration::from_secs(3600));
    let modes = [
        (
            "chunk-level sync",
            SyncMode::ChunkLevel {
                tolerance: content.chunk_duration(),
            },
        ),
        ("independent", SyncMode::Independent),
    ];
    let logs = runner::run_indexed(modes.len(), jobs, |i| {
        let policy = Box::new(BestPracticePolicy::from_hls(&view));
        let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
        let link = abr_net::link::Link::with_latency(trace.clone(), Duration::from_millis(20));
        let mut config = player_config(PlayerKind::BestPractice, content.chunk_duration());
        config.sync = modes[i].1;
        abr_player::Session::new(origin, link, policy, config).run()
    });
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for ((label, _), log) in modes.iter().zip(&logs) {
        let q = abr_qoe::summarize(log);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", q.score),
            q.stall_count.to_string(),
            format!("{:.1}", q.total_stall.as_secs_f64()),
            format!("{:.1}", q.mean_imbalance.as_secs_f64()),
            format!("{:.1}", q.max_imbalance.as_secs_f64()),
        ]);
        jrows.push(json!({
            "mode": label,
            "score": q.score,
            "stalls": q.stall_count,
            "total_stall_s": q.total_stall.as_secs_f64(),
            "mean_imbalance_s": q.mean_imbalance.as_secs_f64(),
            "max_imbalance_s": q.max_imbalance.as_secs_f64(),
        }));
    }
    let text = table(
        &[
            "Prefetch mode",
            "QoE",
            "Stalls",
            "Stall s",
            "Mean imbal s",
            "Max imbal s",
        ],
        &rows,
    );
    ExperimentResult {
        id: "bp2",
        title: "BP2: §4.2 prefetch-balance ablation (best-practice policy)",
        text,
        json: json!({ "rows": jrows }),
    }
}

/// BP3: the §4.1 DASH allowed-combinations extension end-to-end — the MPD
/// itself carries the curation; the best-practice player consumes it with
/// no out-of-band channel and stays inside it on a hostile trace.
fn bp3() -> ExperimentResult {
    use abr_manifest::build::build_mpd_with_combos;
    use abr_manifest::view::BoundDash;
    use abr_manifest::Mpd;

    let content = drama();
    let combos = curated_subset(content.video(), content.audio());
    let mpd_text = build_mpd_with_combos(&content, &combos).to_text();
    let view = BoundDash::from_mpd(&Mpd::parse(&mpd_text).expect("parses")).expect("binds");
    let policy = BestPracticePolicy::from_dash_extension(&view).expect("extension present");
    let log = run_session(
        &content,
        PlayerKind::BestPractice,
        Box::new(policy),
        Trace::fig3_varying_600k(Duration::from_secs(3600)),
    );
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
    use abr_player::session::PlaylistFetch;

    let content = drama();
    let view = hls_sub_view(&content, &[0, 1, 2]);
    let trace = Trace::fig3_varying_600k(Duration::from_secs(3600));
    let modes = [
        ("preloaded (out-of-band)", PlaylistFetch::Preloaded),
        ("eager (§4.1 suggestion)", PlaylistFetch::Eager),
        ("lazy (§4.1 warns against)", PlaylistFetch::Lazy),
    ];
    let logs = runner::run_indexed(modes.len(), jobs, |i| {
        let policy = Box::new(BestPracticePolicy::from_hls(&view));
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = abr_net::link::Link::with_latency(trace.clone(), Duration::from_millis(200));
        let config = player_config(PlayerKind::BestPractice, content.chunk_duration());
        abr_player::Session::new(origin, link, policy, config)
            .with_packaging(abr_manifest::build::Packaging::SingleFile)
            .with_playlist_fetch(modes[i].1)
            .run()
    });
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for ((label, _), log) in modes.iter().zip(&logs) {
        let q = abr_qoe::summarize(log);
        rows.push(vec![
            label.to_string(),
            log.playlist_fetches.len().to_string(),
            format!(
                "{:.2}",
                q.startup_delay
                    .map_or(f64::NAN, abr_event::Duration::as_secs_f64)
            ),
            q.stall_count.to_string(),
            format!("{:.1}", q.total_stall.as_secs_f64()),
            format!("{:.2}", q.score),
        ]);
        jrows.push(json!({
            "mode": label,
            "playlist_fetches": log.playlist_fetches.len(),
            "startup_s": q.startup_delay.map(abr_event::Duration::as_secs_f64),
            "stalls": q.stall_count,
            "total_stall_s": q.total_stall.as_secs_f64(),
            "score": q.score,
        }));
    }
    let mut text = table(
        &[
            "Playlist fetching",
            "Fetches",
            "Startup s",
            "Stalls",
            "Stall s",
            "QoE",
        ],
        &rows,
    );
    text.push_str(concat!(
        "\nlazy fetching pays a playlist round trip at every first use of a\n",
        "track (and the adaptation logic is blind to per-track bitrates until\n",
        "then); eager fetching front-loads the cost into startup, once.\n",
    ));
    ExperimentResult {
        id: "bp4",
        title: "BP4: §4.1 footnote — lazy vs eager playlist fetching",
        text,
        json: json!({ "rows": jrows }),
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

    let mut lang_rows = Vec::new();
    for l in 1..=5usize {
        let d = demuxed_storage_multilang(&content, l);
        let m = muxed_storage_multilang(&content, l);
        lang_rows.push(vec![
            l.to_string(),
            format!("{:.1}", d.get() as f64 / 1e6),
            format!("{:.1}", m.get() as f64 / 1e6),
            format!("x{:.2}", m.get() as f64 / d.get() as f64),
        ]);
    }
    let lang_table = table(
        &["Languages", "Demuxed MB", "Muxed MB", "Expansion"],
        &lang_rows,
    );
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
    use abr_player::session::DeliveryMode;

    let content = drama();
    let view = hls_all_view(&content);
    let trace = Trace::constant(BitsPerSec::from_kbps(2_000));
    let modes = [
        ("demuxed", DeliveryMode::Demuxed),
        ("muxed", DeliveryMode::Muxed),
    ];
    let logs = runner::run_indexed(modes.len(), jobs, |i| {
        let policy = Box::new(ShakaPolicy::hls(&view));
        session_for(&content, PlayerKind::Shaka, policy, trace.clone())
            .with_delivery(modes[i].1)
            .run()
    });
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for ((label, _), log) in modes.iter().zip(&logs) {
        let q = abr_qoe::summarize(log);
        let final_estimate = log
            .transfers
            .last()
            .and_then(|t| t.estimate_after)
            .map_or(0, abr_media::BitsPerSec::kbps);
        rows.push(vec![
            label.to_string(),
            final_estimate.to_string(),
            q.mean_video_kbps.to_string(),
            q.mean_audio_kbps.to_string(),
            format!("{:.1}", q.max_imbalance.as_secs_f64()),
            q.stall_count.to_string(),
        ]);
        jrows.push(json!({
            "mode": label,
            "final_estimate_kbps": final_estimate,
            "mean_video_kbps": q.mean_video_kbps,
            "mean_audio_kbps": q.mean_audio_kbps,
            "max_imbalance_s": q.max_imbalance.as_secs_f64(),
        }));
    }
    let mut text = table(
        &[
            "Delivery",
            "Final estimate Kbps",
            "Video Kbps",
            "Audio Kbps",
            "Max imbal s",
            "Stalls",
        ],
        &rows,
    );
    text.push_str(concat!(
        "\nShaka's per-flow estimator on a 2 Mbps link: demuxed, the two\n",
        "concurrent flows each sample ~1 Mbps — under the 16 KB filter — so\n",
        "the estimate never leaves 500 Kbps and quality stays at V2+A2.\n",
        "Muxed, the single flow samples the full 2 Mbps and quality climbs.\n",
        "The §1 price: the origin stores every M×N pairing (see M1).\n",
    ));
    ExperimentResult {
        id: "m2",
        title: "M2: muxed delivery dissolves the coordination problem (at M×N cost)",
        text,
        json: json!({ "rows": jrows }),
    }
}

/// M3: the §1 CDN argument at the *session* level. Viewer A (V4+A2) warms
/// an edge cache; viewer B (same video, different audio: V4+A1) then
/// streams through it. Under demuxed delivery B's video is already cached;
/// under muxed delivery every chunk is a distinct M×N object and misses.
fn m3() -> ExperimentResult {
    use abr_httpsim::edge::EdgeCache;
    use abr_player::policy::FixedPolicy;
    use abr_player::session::DeliveryMode;
    use std::cell::RefCell;
    use std::rc::Rc;

    let content = drama();
    let miss_penalty = Duration::from_millis(120);
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (label, mode) in [
        ("demuxed", DeliveryMode::Demuxed),
        ("muxed", DeliveryMode::Muxed),
    ] {
        let edge = Rc::new(RefCell::new(EdgeCache {
            cache: abr_httpsim::cache::CdnCache::new(Bytes(1 << 32)),
            miss_penalty,
        }));
        let session = |audio: usize| {
            session_for(
                &content,
                PlayerKind::BestPractice,
                Box::new(FixedPolicy { video: 3, audio }),
                Trace::constant(BitsPerSec::from_kbps(1_600)),
            )
            .with_delivery(mode)
            .with_transfer_path(Box::new(Rc::clone(&edge)))
            .run()
        };
        session(1); // viewer A: V4+A2
        let before = edge.borrow().cache.stats();
        let b_log = session(0); // viewer B: V4+A1
        let stats = edge.borrow().cache.stats();
        let b_hits = stats.hits - before.hits;
        let b_misses = stats.misses - before.misses;
        let qb = abr_qoe::summarize(&b_log);
        rows.push(vec![
            label.to_string(),
            b_hits.to_string(),
            b_misses.to_string(),
            format!(
                "{:.2}",
                qb.startup_delay
                    .map_or(f64::NAN, abr_event::Duration::as_secs_f64)
            ),
            qb.stall_count.to_string(),
            format!(
                "{:.1}",
                (stats.bytes_from_origin.get() - before.bytes_from_origin.get()) as f64 / 1e6
            ),
        ]);
        jrows.push(json!({
            "mode": label,
            "viewer_b_hits": b_hits,
            "viewer_b_misses": b_misses,
            "viewer_b_startup_s": qb.startup_delay.map(abr_event::Duration::as_secs_f64),
            "viewer_b_origin_mb": (stats.bytes_from_origin.get() - before.bytes_from_origin.get()) as f64 / 1e6,
        }));
    }
    let mut text = table(
        &[
            "Delivery",
            "B hits",
            "B misses",
            "B startup s",
            "B stalls",
            "B origin MB",
        ],
        &rows,
    );
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
        json: json!({ "rows": jrows }),
    }
}

/// BP5: the corpus sweep — every policy over every named network profile
/// (DSL, LTE walk, congested HSPA, bus commute, elevator outage, and the
/// two paper profiles). One row per (profile, policy); the compact score
/// column is what a regression dashboard would track.
fn bp5(jobs: usize) -> ExperimentResult {
    let arms = arms("bp5").expect("bp5 is traceable");
    let logs = logs(&arms, jobs);
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (arm, log) in arms.iter().zip(&logs) {
        let name = arm.trace_name();
        let q = abr_qoe::summarize(log);
        rows.push(vec![
            name.to_string(),
            q.policy.clone(),
            format!("{:.2}", q.score),
            q.stall_count.to_string(),
            format!("{:.1}", q.total_stall.as_secs_f64()),
            q.mean_video_kbps.to_string(),
            q.mean_audio_kbps.to_string(),
            (q.video_switches + q.audio_switches).to_string(),
        ]);
        jrows.push(json!({
            "trace": name,
            "policy": q.policy,
            "score": q.score,
            "stalls": q.stall_count,
            "total_stall_s": q.total_stall.as_secs_f64(),
        }));
    }
    let text = table(
        &[
            "Trace",
            "Policy",
            "QoE",
            "Stalls",
            "Stall s",
            "Video Kbps",
            "Audio Kbps",
            "Switches",
        ],
        &rows,
    );
    ExperimentResult {
        id: "bp5",
        title: "BP5: corpus sweep — every policy over every named network profile",
        text,
        json: json!({ "rows": jrows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arm observed with and without a profiler gives the same outcome
    /// under the same label; the profiler only observes.
    #[test]
    fn spec_run_profiled_equals_run() {
        let arm = &arms("f4a").expect("f4a is traceable")[0];
        let plain = arm.observe(None);
        let profiler = Rc::new(Profiler::new());
        let profiled = arm.observe(Some(&profiler));
        assert!(plain.log == profiled.log, "log changed with a profiler");
        assert_eq!(plain.events, profiled.events);
        assert_eq!(plain.label, "f4a/shaka-hls-1m");
        assert_eq!(plain.label, profiled.label);
        let report = profiler.report();
        let names: Vec<&str> = report
            .flatten()
            .iter()
            .map(|(_, _, node)| node.name.as_str())
            .collect();
        assert!(names.contains(&"session.run"), "spans: {names:?}");
    }
}
