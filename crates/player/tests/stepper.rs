//! The stepper contract: driving a session through
//! [`abr_player::stepper::SessionStepper`] is byte-identical to
//! [`Session::run`], including over a degenerate shared path — the
//! single-session half of the fleet-of-1 parity standard (DESIGN.md §14).

use abr_event::time::Duration;
use abr_httpsim::origin::Origin;
use abr_httpsim::shared::{FleetHub, SharedEdge};
use abr_media::content::Content;
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::log::SessionLog;
use abr_player::policy::FixedPolicy;
use abr_player::session::Session;
use std::cell::RefCell;
use std::rc::Rc;

fn build(rate_kbps: u64, video: usize, audio: usize, sync: SyncMode) -> Session {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::new(Trace::constant(BitsPerSec::from_kbps(rate_kbps)));
    let config = PlayerConfig {
        sync,
        ..PlayerConfig::default_chunked(content.chunk_duration())
    };
    Session::new(origin, link, Box::new(FixedPolicy { video, audio }), config)
}

/// Drives a stepper exactly the way the fleet driver does: ask for the
/// next wake, dispatch, repeat.
fn run_stepped(session: Session) -> SessionLog {
    let mut stepper = session.into_stepper();
    while stepper.next_wake().is_some() {
        if !stepper.dispatch_next() {
            break;
        }
    }
    stepper.finish()
}

const CHUNKED: SyncMode = SyncMode::ChunkLevel {
    tolerance: Duration::from_secs(4),
};

#[test]
fn stepper_matches_run_clean_session() {
    let direct = build(5_000, 0, 0, CHUNKED).run();
    let stepped = run_stepped(build(5_000, 0, 0, CHUNKED));
    assert_eq!(direct, stepped);
    assert!(stepped.completed());
}

#[test]
fn stepper_matches_run_starved_session() {
    // A heavily stalling run exercises every wake class.
    let direct = build(500, 5, 2, CHUNKED).run();
    let stepped = run_stepped(build(500, 5, 2, CHUNKED));
    assert_eq!(direct, stepped);
    assert!(stepped.stall_count() > 0);
}

#[test]
fn stepper_matches_run_independent_pipelines() {
    let direct = build(2_000, 4, 1, SyncMode::Independent).run();
    let stepped = run_stepped(build(2_000, 4, 1, SyncMode::Independent));
    assert_eq!(direct, stepped);
}

#[test]
fn degenerate_shared_path_is_invisible() {
    // A passthrough FleetHub must not perturb a session at all: same log
    // as the direct-origin path, run or stepped.
    let direct = build(2_000, 2, 1, CHUNKED).run();
    let hub = Rc::new(RefCell::new(FleetHub::passthrough()));
    let shared = build(2_000, 2, 1, CHUNKED).with_transfer_path(Box::new(SharedEdge::new(
        Rc::clone(&hub),
        0,
        Duration::from_secs(1234),
    )));
    let stepped = run_stepped(shared);
    assert_eq!(direct, stepped);
}
