//! Trace a session: re-run the Fig 4(b) Shaka scenario with the
//! observability layer attached, write the event stream to
//! `results/f4b.trace.jsonl`, and print the session's stall summary.
//!
//! ```sh
//! cargo run --example trace_session
//! ```
//!
//! This writes byte-for-byte what `exp --id f4b --trace
//! results/f4b.trace.jsonl` writes — the checked-in golden that
//! `tests/golden_artifacts.rs` pins. Observation reads no host clock
//! (`wall_ns` stamps are 0), so the trace is a pure function of the
//! session (DESIGN.md §10); host time lives only on the span profiler.
//!
//! The emitted JSONL is lossless: `SessionLog::from_trace` rebuilds the
//! full session history from it (the `trace_roundtrip` integration test
//! in `abr-bench` holds that equality). Convert the same events with
//! `obs::export::to_chrome_trace` to open the session in Perfetto.

use abr_unmuxed::core::ShakaPolicy;
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::manifest::build::build_master_playlist;
use abr_unmuxed::manifest::hls::MasterPlaylist;
use abr_unmuxed::manifest::view::BoundHls;
use abr_unmuxed::media::combo::all_combos;
use abr_unmuxed::media::content::Content;
use abr_unmuxed::media::units::Bytes;
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::obs::{export, ObsHandle};
use abr_unmuxed::player::config::SyncMode;
use abr_unmuxed::player::{PlayerConfig, Session, SessionLog};

fn main() {
    // The Fig 4(b) setup: Shaka over H_all, dynamic mean-600 Kbps trace.
    // The playlist is round-tripped through its textual form, exactly as
    // the experiment harness does.
    let content = Content::drama_show(2019);
    let combos = all_combos(content.video(), content.audio());
    let text = build_master_playlist(&content, &combos, &[0, 1, 2]).to_text();
    let view = BoundHls::from_master(&MasterPlaylist::parse(&text).expect("parses"))
        .expect("self-built playlist binds");
    let policy = ShakaPolicy::hls(&view);

    // Attach a recording tracer and run.
    let (obs, tracer) = ObsHandle::recording();
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::with_latency(
        Trace::fig4b_varying_600k(Duration::from_secs(3600)),
        Duration::from_millis(20),
    );
    // Shaka's defaults: shallow 10 s buffering goal, independent
    // pipelines (`abr_bench::setup::player_config`).
    let chunk = content.chunk_duration();
    let config = PlayerConfig {
        startup_threshold: chunk,
        resume_threshold: chunk,
        max_buffer: Duration::from_secs(10),
        sync: SyncMode::Independent,
    };
    let log = Session::new(origin, link, Box::new(policy), config)
        .with_obs(obs)
        .run();

    // Export the trace and prove it reconstructs the session exactly.
    let events = tracer.take();
    let jsonl = export::to_jsonl(&events);
    let replayed = SessionLog::from_trace(&export::from_jsonl(&jsonl).expect("parses"))
        .expect("trace reconstructs the session");
    assert_eq!(replayed, log, "the trace is the session");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/f4b.trace.jsonl", &jsonl).expect("write trace");
    println!(
        "traced {} events over {:.1}s of simulated playback -> results/f4b.trace.jsonl",
        events.len(),
        log.finished_at.as_secs_f64(),
    );
    println!(
        "session: {} stalls, {:.1}s rebuffering (Fig 4b's under- then over-estimation)",
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );
}
