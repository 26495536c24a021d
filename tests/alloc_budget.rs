//! Allocation budget for a whole streaming session.
//!
//! The session step is allocation-free in steady state (DESIGN.md §11):
//! the link appends completions into a reused buffer and recycles delivery
//! profiles, buffer levels are O(1), and estimator state is cached. What
//! still allocates is bounded per session — construction, log-vector
//! growth, first use of each reusable buffer. This test pins that bound
//! for every DASH player kind, so a per-event allocation that sneaks back
//! in fails here instead of quietly slowing every workload. A session
//! that streams its QoE digest instead of a log has a tighter budget, and
//! a fleet domain's warm shared cache allocates nothing per request.
//! Building a world's manifest views (write, parse, bind) is pinned too:
//! the text layer allocates only what the parsed manifests keep. So is
//! what one more realization adds to the Monte Carlo corpus, which
//! shares its manifest view and fixed traces, and a trace clone, which
//! is a handle.

// The only unsafe code in this file is the `GlobalAlloc` impl below: it
// forwards every call unchanged to `System` and only bumps a counter.
#![allow(unsafe_code)]

use abr_bench::corpus::ScenarioCorpus;
use abr_bench::setup::{self, PlayerKind, SessionSpec};
use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::CdnCache;
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_httpsim::shared::FleetHub;
use abr_media::combo::Combo;
use abr_media::content::SharedContent;
use abr_media::track::TrackId;
use abr_media::units::Bytes;
use abr_net::trace::Trace;
use abr_net::uplink::UplinkQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations (including reallocations) one session may make (29–41
/// per DASH player kind when this budget was set).
const BUDGET: u64 = 44;

/// Allocations one digest-mode session may make: no event vector grows,
/// so only construction and first use of reusable buffers remain (9–15
/// per DASH player kind when this budget was set).
const DIGEST_BUDGET: u64 = 18;

thread_local! {
    /// Set while the current thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations seen on this thread while `COUNTING` was set.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// `System` plus a per-thread allocation counter.
struct CountingAlloc;

fn note_allocation() {
    // `try_with`: the allocator may run during thread teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNT.with(Cell::get))
}

#[test]
fn one_session_stays_within_the_allocation_budget() {
    let content = setup::drama();
    let mut report = Vec::new();
    for kind in [
        PlayerKind::ExoPlayer,
        PlayerKind::Shaka,
        PlayerKind::DashJs,
        PlayerKind::BestPractice,
        PlayerKind::Bba,
        PlayerKind::Mpc,
    ] {
        // Policy and trace are built outside the counted region: the
        // budget covers the session itself.
        let policy = setup::dash_policy_over(kind, &content, &setup::dash_view(&content));
        let trace = Trace::fig4b_varying_600k(Duration::from_secs(3600));
        let (log, allocations) =
            count_allocations(|| setup::run_session(&content, kind, policy, trace));
        assert!(
            !log.transfers.is_empty(),
            "{kind:?} session transferred nothing"
        );
        report.push((kind, allocations));
    }
    for &(kind, allocations) in &report {
        assert!(
            allocations <= BUDGET,
            "{kind:?}: {allocations} allocations in one session (budget {BUDGET}); all: {report:?}"
        );
    }
}

/// A fleet session that keeps no log streams its QoE digest instead:
/// driven the way the fleet drives it (digest stepper, one event at a
/// time), it must allocate strictly less than the same session keeping
/// a log, and stay within its own budget.
#[test]
fn a_digest_session_allocates_less_than_a_logged_one() {
    let content = setup::drama();
    let mut report = Vec::new();
    for kind in [
        PlayerKind::ExoPlayer,
        PlayerKind::Shaka,
        PlayerKind::DashJs,
        PlayerKind::BestPractice,
        PlayerKind::Bba,
        PlayerKind::Mpc,
    ] {
        let session = || {
            SessionSpec::new(
                &content,
                kind,
                setup::dash_policy_over(kind, &content, &setup::dash_view(&content)),
                Trace::fig4b_varying_600k(Duration::from_secs(3600)),
            )
            .build()
        };
        let (logged, streamed) = (session(), session());
        let (log, log_allocations) = count_allocations(|| logged.run());
        let (digest, digest_allocations) = count_allocations(|| {
            let mut stepper = streamed.into_digest_stepper();
            while stepper.next_wake().is_some() && stepper.dispatch_next() {}
            stepper.finish_digest()
        });
        assert_eq!(digest.transfers, log.transfers.len() as u64, "{kind:?}");
        report.push((kind, log_allocations, digest_allocations));
    }
    for &(kind, logged, digest) in &report {
        assert!(
            digest < logged && digest <= DIGEST_BUDGET,
            "{kind:?}: {digest} allocations with a digest vs {logged} with a log \
             (budget {DIGEST_BUDGET}); all (kind, log, digest): {report:?}"
        );
    }
}

/// A fleet domain's shared hub allocates nothing per request once warm.
/// Three titles' viewers each fetch a video segment, an audio segment and
/// a muxed segment per chunk (leading, so they miss) and then re-fetch
/// the video and audio of two chunks back (lagging, so they hit), through
/// a cache far smaller than the working set (so misses evict). After two
/// warm-up rounds, a third round of hits, misses and evictions must make
/// no allocation at all.
#[test]
fn a_warm_fleet_hub_allocates_nothing_per_request() {
    let content = setup::drama();
    let origin = Origin::with_overhead(SharedContent::clone(&content), Bytes::ZERO);
    let chunks = content.num_chunks();
    let mut round = Vec::new();
    for chunk in 0..chunks {
        let lagged = (chunk + chunks - 2) % chunks;
        for t in 0..3 {
            let title = u64::try_from(t).unwrap();
            let (video, audio) = (TrackId::video(2 + t), TrackId::audio(t));
            let muxed = ObjectId::MuxedSegment {
                combo: Combo::new(t, t),
                chunk,
            };
            round.push((title, Origin::segment_request(video, chunk)));
            round.push((title, Origin::segment_request(audio, chunk)));
            round.push((title, Request::whole(muxed)));
            round.push((title, Origin::segment_request(video, lagged)));
            round.push((title, Origin::segment_request(audio, lagged)));
        }
    }
    let mut hub = FleetHub::new(
        CdnCache::new(Bytes(8_000_000)),
        UplinkQueue::new(40_000),
        Duration::from_millis(60),
    );
    let mut at = Instant::ZERO;
    let mut run_round = |hub: &mut FleetHub| {
        for (title, req) in &round {
            at += Duration::from_millis(10);
            hub.request(&origin, req, *title, at);
        }
    };
    run_round(&mut hub);
    run_round(&mut hub);
    let before = hub.cache_stats().unwrap();
    let ((), allocations) = count_allocations(|| run_round(&mut hub));
    let after = hub.cache_stats().unwrap();
    assert!(
        after.hits > before.hits
            && after.misses > before.misses
            && after.evictions > before.evictions,
        "the counted round must hit, miss and evict: {before:?} -> {after:?}"
    );
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {} warm hub requests",
        round.len()
    );
}

/// Allocations one world build may make: the drama show's DASH view plus
/// its `H_all` HLS view, each built, written to text, parsed and bound.
/// The text layer allocates only what the parsed manifests keep, so this
/// is the count with borrowed parsing and streaming writers (the element
/// tree and per-token strings before them made 1,700).
const WORLD_BUDGET: u64 = 184;

#[test]
fn a_world_build_allocates_what_its_manifests_keep() {
    let content = setup::drama();
    let ((dash, hls), allocations) =
        count_allocations(|| (setup::dash_view(&content), setup::hls_all_view(&content)));
    assert_eq!(dash.video_declared.len(), 6);
    assert_eq!(hls.variants.len(), 18);
    assert!(
        allocations <= WORLD_BUDGET,
        "{allocations} allocations for one DASH and one HLS view (budget {WORLD_BUDGET})"
    );
}

/// Allocations one more Monte Carlo realization adds to the scenario
/// corpus: its content (36, its `Arc` included), its three seeded traces
/// (two each: the exact-capacity vector they are drawn into and the
/// shared slice it moves into) and its trace list (one). The DASH view
/// and the four seed-independent traces are built once per corpus, so a
/// per-realization manifest build (59 more) or fixed-trace draw (24
/// more for all four) fails this pin.
const REALIZATION_ALLOCATIONS: u64 = 43;

#[test]
fn one_more_realization_builds_no_view_and_no_fixed_trace() {
    let len = Duration::from_secs(900);
    let (two, at_two) = count_allocations(|| ScenarioCorpus::build_mc(2, len));
    let (four, at_four) = count_allocations(|| ScenarioCorpus::build_mc(4, len));
    assert_eq!((two.len(), four.len()), (2, 4));
    assert_eq!(
        (at_four - at_two) / 2,
        REALIZATION_ALLOCATIONS,
        "{at_two} allocations for 2 realizations, {at_four} for 4"
    );
}

#[test]
fn cloning_a_trace_allocates_nothing() {
    let trace = Trace::fig3_varying_600k(Duration::from_secs(900));
    let (copy, allocations) = count_allocations(|| trace.clone());
    assert_eq!(copy, trace);
    assert_eq!(allocations, 0, "a trace clone is a handle");
}
