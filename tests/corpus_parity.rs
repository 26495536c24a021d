//! Shared-corpus parity: sessions running over `Arc`-shared content and
//! manifest views must produce logs byte-identical to sessions that
//! build everything from their spec alone (DESIGN.md §15). The
//! deterministic differentials pin the fleet/sweep data plane; the
//! `arc_sharing` proptests below generalize the equivalence over seeds,
//! players and traces, including under concurrent sweep workers.

use abr_bench::corpus::{ScenarioCorpus, TitleScenario};
use abr_bench::setup::{dash_policy_over, dash_view, run_session, PlayerKind, SEED};
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::media::content::{Content, SharedContent};
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::SessionLog;
use proptest::prelude::*;

const KINDS: [PlayerKind; 6] = [
    PlayerKind::ExoPlayer,
    PlayerKind::Shaka,
    PlayerKind::DashJs,
    PlayerKind::BestPractice,
    PlayerKind::Bba,
    PlayerKind::Mpc,
];

fn trace_for(trace_seed: u64, index: usize) -> Trace {
    abr_unmuxed::net::corpus::nth(Duration::from_secs(60), trace_seed, index).1
}

/// Runs one session over the shared handles of `scenario` (the fleet
/// driver's exact construction path).
fn run_shared(scenario: &TitleScenario, kind: PlayerKind, trace: Trace) -> SessionLog {
    let policy = dash_policy_over(kind, &scenario.content, &scenario.dash);
    run_session(&scenario.content, kind, policy, trace)
}

/// Runs the same session building content, view and policy from scratch
/// (the historical per-session path).
fn run_independent(seed: u64, kind: PlayerKind, trace: Trace) -> SessionLog {
    let content: SharedContent = Content::drama_show(seed).into();
    let policy = dash_policy_over(kind, &content, &dash_view(&content));
    run_session(&content, kind, policy, trace)
}

#[test]
fn two_sessions_sharing_one_arc_match_independent_builds() {
    // Two sessions cloning handles off ONE TitleScenario — different
    // players, different traces — each byte-identical to a session that
    // built its own Content. Sharing must also not let the first
    // session's run perturb the second's.
    let scenario = TitleScenario::build(SEED, 3);
    let a = run_shared(&scenario, PlayerKind::BestPractice, trace_for(11, 2));
    let b = run_shared(&scenario, PlayerKind::Shaka, trace_for(12, 5));
    assert_eq!(
        a,
        run_independent(SEED + 3, PlayerKind::BestPractice, trace_for(11, 2))
    );
    assert_eq!(
        b,
        run_independent(SEED + 3, PlayerKind::Shaka, trace_for(12, 5))
    );
    // Re-running session A off the (twice-used) shared handles still
    // reproduces the same log.
    assert_eq!(
        a,
        run_shared(&scenario, PlayerKind::BestPractice, trace_for(11, 2))
    );
}

#[test]
fn mc_corpus_traces_match_per_cell_draws() {
    // The Monte Carlo corpus pre-draws each realization's trace corpus;
    // a cell cloning `traces[i]` must see the same schedule a fresh
    // per-cell draw produces.
    let corpus = ScenarioCorpus::build_mc(3, Duration::from_secs(60));
    for r in 0..3u64 {
        let sc = corpus.scenario(r);
        let fresh = abr_unmuxed::net::corpus::all(Duration::from_secs(60), sc.seed);
        assert_eq!(sc.traces, fresh, "realization {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// arc_sharing: for any (seed, player, trace), a session over shared
    /// corpus handles equals an independently-built session, and two
    /// sessions sharing one `Arc<Content>` do not disturb each other.
    #[test]
    fn arc_sharing_matches_independent_construction(
        title in 0usize..5,
        kind_ix in 0usize..KINDS.len(),
        other_ix in 0usize..KINDS.len(),
        trace_ix in 0usize..abr_unmuxed::net::corpus::LEN,
        trace_seed in 0u64..1000,
    ) {
        let kind = KINDS[kind_ix];
        let other = KINDS[other_ix];
        let scenario = TitleScenario::build(SEED, title);
        // A sibling session off the same Arc runs first: if sharing
        // leaked any state, the session under test would see it.
        let _sibling = run_shared(&scenario, other, trace_for(trace_seed ^ 0x5bd1, trace_ix));
        let shared = run_shared(&scenario, kind, trace_for(trace_seed, trace_ix));
        let independent = run_independent(
            SEED.wrapping_add(title as u64),
            kind,
            trace_for(trace_seed, trace_ix),
        );
        prop_assert_eq!(shared, independent);
    }

    /// arc_sharing under concurrency: sweep workers on separate threads
    /// cloning handles off one corpus entry each reproduce the serial
    /// independently-built log byte for byte.
    #[test]
    fn arc_sharing_is_thread_transparent(
        title in 0usize..3,
        trace_seed in 0u64..1000,
    ) {
        let scenario = TitleScenario::build(SEED, title);
        let jobs: Vec<(PlayerKind, usize)> = KINDS
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i % abr_unmuxed::net::corpus::LEN))
            .collect();
        let shared_logs: Vec<SessionLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(kind, trace_ix)| {
                    let scenario = &scenario;
                    scope.spawn(move || {
                        run_shared(scenario, kind, trace_for(trace_seed, trace_ix))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (&(kind, trace_ix), shared) in jobs.iter().zip(&shared_logs) {
            let independent = run_independent(
                SEED.wrapping_add(title as u64),
                kind,
                trace_for(trace_seed, trace_ix),
            );
            prop_assert_eq!(shared, &independent, "{:?}", kind);
        }
    }
}
