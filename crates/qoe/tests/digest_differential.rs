//! Differential test for the online QoE digest.
//!
//! A session that keeps no log streams a [`SessionDigest`]; a session
//! that keeps one is summarized by replaying the log into the same
//! digest. Over the Monte Carlo corpus traces, every policy arm and the
//! three request paths, the streamed digest must equal the replayed one
//! field for field, and the two summaries must match bit for bit.

use abr_bench::corpus::ScenarioCorpus;
use abr_bench::mc::mc_policies;
use abr_bench::setup::SessionSpec;
use abr_event::time::Duration;
use abr_player::session::{DeliveryMode, PlaylistFetch};
use abr_player::{Session, SessionDigest};
use abr_qoe::{summarize, summarize_digest, ContentProfile, QoeWeights};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Realizations drawn from (content seeds and trace draws).
const REALIZATIONS: u64 = 2;

fn corpus() -> &'static ScenarioCorpus {
    static CORPUS: OnceLock<ScenarioCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| ScenarioCorpus::build_mc(REALIZATIONS, Duration::from_secs(900)))
}

/// One session configuration, buildable any number of times.
#[derive(Debug, Clone, Copy)]
struct Case {
    realization: u64,
    trace: usize,
    arm: usize,
    path: RequestPath,
}

/// How a session reaches its chunks: demuxed with preloaded or lazy
/// playlists, or muxed (which runs only with preloaded playlists).
#[derive(Debug, Clone, Copy)]
enum RequestPath {
    Preloaded,
    Lazy,
    Muxed,
}

impl Case {
    fn session(&self) -> Session {
        let scenario = corpus().scenario(self.realization);
        let arm = mc_policies()[self.arm];
        let content = &scenario.content;
        let spec = SessionSpec::new(
            content,
            arm.player_kind(),
            arm.policy(content, &scenario.dash),
            scenario.traces[self.trace].1.clone(),
        );
        match self.path {
            RequestPath::Preloaded => spec,
            RequestPath::Lazy => SessionSpec {
                playlist_fetch: PlaylistFetch::Lazy,
                ..spec
            },
            RequestPath::Muxed => SessionSpec {
                delivery: DeliveryMode::Muxed,
                ..spec
            },
        }
        .build()
    }

    /// The digest streamed through an externally-clocked digest stepper,
    /// the way a fleet drives it.
    fn streamed_digest(&self) -> SessionDigest {
        let mut stepper = self.session().into_digest_stepper();
        while stepper.next_wake().is_some() && stepper.dispatch_next() {}
        stepper.finish_digest()
    }
}

fn check(case: Case) -> Result<(), String> {
    let log = case.session().run();
    let replayed = SessionDigest::from_log(&log);
    let streamed = case.streamed_digest();
    prop_assert_eq!(&streamed, &replayed, "{:?}", case);

    let from_log = summarize(&log);
    let from_digest = summarize_digest(&streamed, QoeWeights::default(), ContentProfile::NEUTRAL);
    prop_assert_eq!(from_log.score.to_bits(), from_digest.score.to_bits());
    prop_assert_eq!(
        from_log.rebuffer_ratio.to_bits(),
        from_digest.rebuffer_ratio.to_bits()
    );
    prop_assert_eq!(from_log, from_digest);
    Ok(())
}

/// The digest counters agree with the log they summarize.
#[test]
fn replayed_digest_counts_the_log() {
    let case = Case {
        realization: 0,
        trace: 6,
        arm: 2,
        path: RequestPath::Lazy,
    };
    let log = case.session().run();
    let d = SessionDigest::from_log(&log);
    assert_eq!(d.transfers, log.transfers.len() as u64);
    assert_eq!(d.playlist_fetches, log.playlist_fetches.len() as u64);
    assert!(d.playlist_fetches > 0, "lazy playlists are fetched");
    assert_eq!(d.buffer.samples(), log.buffer_samples.len() as u64);
    assert_eq!(d.stall_count, log.stall_count());
    assert_eq!(d.total_stall, log.total_stall());
    assert_eq!(d.completed(), log.completed());
    check(case).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy arm over one random corpus session shape: streamed
    /// digest = replayed digest, and bit-identical summaries.
    #[test]
    fn streamed_digest_equals_the_replayed_log(
        realization in 0..REALIZATIONS,
        trace in 0..abr_net::corpus::LEN,
        path in 0usize..3,
    ) {
        let path = [RequestPath::Preloaded, RequestPath::Lazy, RequestPath::Muxed][path];
        for arm in 0..mc_policies().len() {
            check(Case { realization, trace, arm, path })?;
        }
    }
}
