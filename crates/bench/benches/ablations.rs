//! Ablation benches for the design choices DESIGN.md §8 calls out.
//!
//! * `estimators/*` — the same bursty trace through the four bandwidth
//!   estimators: interval-filtered EWMA (Shaka), aggregate sliding
//!   percentile (ExoPlayer), per-media harmonic mean (dash.js) and the
//!   concurrency-aware joint EWMA (§4). The reported throughput numbers
//!   differ exactly the way §3 describes.
//! * `combo_rule/*` — combination-set construction: ExoPlayer's
//!   log-staircase vs the full M×N set vs the curated subset.
//! * `sync_mode/*` — a full best-practice session with chunk-level vs
//!   independent prefetching (the BP2 ablation).
//! * `obs_overhead/*` — a full session over the disabled observability
//!   handle every instrumented site holds by default, vs a live span
//!   profiler. On the disabled path `emit` closures are never evaluated
//!   and `span()` is one branch. The `span_profiler` case pins what
//!   turning profiling *on* costs — it is allowed to be visible, because
//!   `--profile` is opt-in.
//! * `corpus/*` — world building: `exp mc`'s scenario corpus (100
//!   realizations, 900 s traces) and a 12-title fleet catalog. Each
//!   builds one DASH view per distinct manifest and one copy of each
//!   seed-independent trace, so these time the per-realization and
//!   per-title cost that is left.

use abr_bench::corpus::{ScenarioCorpus, TitleCorpus};
use abr_bench::setup::{drama, hls_sub_view, PlayerKind, SessionSpec};
use abr_core::bestpractice::BestPracticePolicy;
use abr_core::estimators::{ExoMeter, HarmonicMean, JointEwma, ShakaEstimator};
use abr_event::time::{Duration, Instant};
use abr_manifest::view::BoundHls;
use abr_media::combo::{all_combos, curated_subset, log_staircase};
use abr_media::content::SharedContent;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_net::profile::{DeliveryProfile, Segment};
use abr_net::trace::Trace;
use abr_obs::{ObsHandle, Profiler};
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::policy::TransferRecord;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::rc::Rc;

fn synthetic_transfers() -> Vec<TransferRecord> {
    // Alternating slow/fast transfers like the Fig 4(b) trace.
    let mut out = Vec::new();
    let mut t = Instant::ZERO;
    for i in 0..50u64 {
        let kbps = if i % 5 == 0 { 1100 } else { 480 };
        let secs = 2;
        let rate = BitsPerSec::from_kbps(kbps);
        let end = t + Duration::from_secs(secs);
        let mut profile = DeliveryProfile::new();
        profile.push(Segment {
            start: t,
            end,
            rate,
        });
        let size = rate.bytes_in_micros(secs * 1_000_000);
        out.push(TransferRecord {
            media: if i % 2 == 0 {
                MediaType::Video
            } else {
                MediaType::Audio
            },
            track: TrackId::video(0),
            chunk: i as usize,
            size,
            opened_at: t,
            completed_at: end,
            profile,
            window_bytes: size,
            window_busy: Duration::from_secs(secs),
        });
        t = end;
    }
    out
}

fn estimators(c: &mut Criterion) {
    let transfers = synthetic_transfers();
    let mut group = c.benchmark_group("estimators");
    group.bench_function("shaka_interval_ewma", |b| {
        b.iter(|| {
            let mut e = ShakaEstimator::new();
            for t in &transfers {
                e.on_transfer(black_box(t));
            }
            black_box(e.estimate())
        });
    });
    group.bench_function("exoplayer_sliding_percentile", |b| {
        b.iter(|| {
            let mut e = ExoMeter::new();
            for t in &transfers {
                e.on_transfer(black_box(t));
            }
            black_box(e.estimate())
        });
    });
    group.bench_function("dashjs_harmonic_mean", |b| {
        b.iter(|| {
            let mut e = HarmonicMean::new(4);
            for t in &transfers {
                if let Some(tput) = t.throughput() {
                    e.add(tput.bps() as f64);
                }
            }
            black_box(e.estimate())
        });
    });
    group.bench_function("joint_ewma", |b| {
        b.iter(|| {
            let mut e = JointEwma::new(3.0);
            for t in &transfers {
                e.on_transfer(black_box(t));
            }
            black_box(e.estimate())
        });
    });
    group.finish();
}

fn combo_rule(c: &mut Criterion) {
    let content = drama();
    let mut group = c.benchmark_group("combo_rule");
    group.bench_function("exoplayer_log_staircase", |b| {
        b.iter(|| black_box(log_staircase(content.video(), content.audio())));
    });
    group.bench_function("all_mxn", |b| {
        b.iter(|| black_box(all_combos(content.video(), content.audio())));
    });
    group.bench_function("curated_subset", |b| {
        b.iter(|| black_box(curated_subset(content.video(), content.audio())));
    });
    group.finish();
}

/// The BP2/BP4 session: the best-practice policy over `view` on the
/// varying ~600 Kbps trace.
fn session(content: &SharedContent, view: &BoundHls) -> SessionSpec {
    let policy = Box::new(BestPracticePolicy::from_hls(view));
    let trace = Trace::fig3_varying_600k(Duration::from_secs(3600));
    SessionSpec::new(content, PlayerKind::BestPractice, policy, trace)
}

fn sync_mode(c: &mut Criterion) {
    let content = drama();
    let view = hls_sub_view(&content, &[0, 1, 2]);
    let mut group = c.benchmark_group("sync_mode");
    group.sample_size(10);
    for (label, sync) in [
        (
            "chunk_level",
            SyncMode::ChunkLevel {
                tolerance: content.chunk_duration(),
            },
        ),
        ("independent", SyncMode::Independent),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let spec = session(&content, &view);
                let config = PlayerConfig {
                    sync,
                    ..spec.config
                };
                let log = SessionSpec { config, ..spec }.build().run();
                black_box(log.max_buffer_imbalance())
            });
        });
    }
    group.finish();
}

fn obs_overhead(c: &mut Criterion) {
    let content = drama();
    let view = hls_sub_view(&content, &[0, 1, 2]);
    let session = |obs: ObsHandle| session(&content, &view).build().with_obs(obs).run();
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    group.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(session(ObsHandle::disabled())));
    });
    group.bench_function("span_profiler", |b| {
        b.iter(|| {
            let profiler = Rc::new(Profiler::new());
            let log = session(ObsHandle::disabled().with_profiler(Rc::clone(&profiler)));
            black_box((log, profiler.report()))
        });
    });
    group.finish();
}

fn corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus");
    group.sample_size(20);
    group.bench_function("build_mc_100", |b| {
        b.iter(|| black_box(ScenarioCorpus::build_mc(100, Duration::from_secs(900))));
    });
    group.bench_function("title_corpus_12", |b| {
        b.iter(|| black_box(TitleCorpus::build(2019, 12)));
    });
    group.finish();
}

criterion_group!(
    benches,
    estimators,
    combo_rule,
    sync_mode,
    obs_overhead,
    corpus
);
criterion_main!(benches);
