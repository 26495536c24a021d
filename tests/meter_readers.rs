//! The aggregate bandwidth meter is computed only for its readers.
//!
//! An untraced session computes `TransferRecord::window_bytes` and
//! `window_busy` only when its policy answers `reads_meter() == true`.
//! These tests hold the policies that answer `false` to that answer: each
//! of them, forced to receive the real window by a wrapper that answers
//! `true`, plays a session equal to the plain one — over DASH and HLS,
//! demuxed and muxed delivery, and the Fig 3 and Fig 4(b) traces. The
//! check can fail: ExoPlayer, a meter reader, plays a different session
//! when its window is forced to zero.

use abr_bench::setup::{dash_view, drama, hls_all_view, player_config, PlayerKind};
use abr_unmuxed::core::combos::ComboLadder;
use abr_unmuxed::core::{
    BbaPolicy, BestPracticePolicy, CappedPolicy, DashJsPolicy, ExoPlayerPolicy, MpcPolicy,
    ShakaPolicy,
};
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::media::combo::curated_subset;
use abr_unmuxed::media::content::SharedContent;
use abr_unmuxed::media::track::TrackId;
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::obs::ObsHandle;
use abr_unmuxed::player::log::SessionLog;
use abr_unmuxed::player::policy::{AbrPolicy, SelectionContext, TransferRecord};
use abr_unmuxed::player::session::DeliveryMode;
use abr_unmuxed::player::Session;
use std::cell::Cell;
use std::rc::Rc;

/// Delegates every `AbrPolicy` method to the wrapped policy but claims to
/// read the meter, so the session computes the window for it; counts the
/// records that carry a non-empty window.
struct MeterOn {
    inner: Box<dyn AbrPolicy>,
    windows: Rc<Cell<usize>>,
}

impl AbrPolicy for MeterOn {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        if record.window_bytes != Bytes::ZERO {
            self.windows.set(self.windows.get() + 1);
        }
        self.inner.on_transfer(record);
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        self.inner.select(ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.inner.debug_estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.inner.set_obs(obs);
    }

    fn reads_meter(&self) -> bool {
        true
    }
}

/// Hands the wrapped policy every record with its window zeroed: what a
/// meter reader would see if the session skipped the meter for it.
struct ZeroWindow(Box<dyn AbrPolicy>);

impl AbrPolicy for ZeroWindow {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        self.0.on_transfer(&TransferRecord {
            window_bytes: Bytes::ZERO,
            window_busy: Duration::ZERO,
            ..record.clone()
        });
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        self.0.select(ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.0.debug_estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.0.set_obs(obs);
    }

    fn reads_meter(&self) -> bool {
        self.0.reads_meter()
    }
}

/// The two paper traces the test runs over.
fn traces() -> [(&'static str, Trace); 2] {
    let total = Duration::from_secs(3600);
    [
        ("fig3", Trace::fig3_varying_600k(total)),
        ("fig4b", Trace::fig4b_varying_600k(total)),
    ]
}

/// One untraced session of the drama show with the given delivery.
fn run(
    content: &SharedContent,
    kind: PlayerKind,
    policy: Box<dyn AbrPolicy>,
    trace: Trace,
    delivery: DeliveryMode,
) -> SessionLog {
    let origin = Origin::with_overhead(SharedContent::clone(content), Bytes::ZERO);
    let link = Link::with_latency(trace, Duration::from_millis(20));
    let config = player_config(kind, content.chunk_duration());
    Session::new(origin, link, policy, config)
        .with_delivery(delivery)
        .run()
}

/// The constructors of every policy that answers
/// `reads_meter() == false`: DASH and, where the policy has one, HLS.
const NON_READERS: &[(&str, PlayerKind)] = &[
    ("dash/shaka", PlayerKind::Shaka),
    ("hls/shaka", PlayerKind::Shaka),
    ("dash/dashjs", PlayerKind::DashJs),
    ("dash/bba", PlayerKind::Bba),
    ("hls/bba", PlayerKind::Bba),
    ("dash/mpc", PlayerKind::Mpc),
    ("hls/mpc", PlayerKind::Mpc),
];

/// A fresh policy for one of the `NON_READERS` labels.
fn non_reader(label: &str, content: &SharedContent) -> Box<dyn AbrPolicy> {
    let allowed = curated_subset(content.video(), content.audio());
    let (dash, hls) = (dash_view(content), hls_all_view(content));
    match label {
        "dash/shaka" => Box::new(ShakaPolicy::dash(&dash)),
        "hls/shaka" => Box::new(ShakaPolicy::hls(&hls)),
        "dash/dashjs" => Box::new(DashJsPolicy::new(&dash)),
        "dash/bba" => Box::new(BbaPolicy::from_dash(&dash, &allowed)),
        "hls/bba" => Box::new(BbaPolicy::from_hls(&hls)),
        "dash/mpc" => Box::new(MpcPolicy::from_dash(&dash, &allowed)),
        "hls/mpc" => Box::new(MpcPolicy::from_hls(&hls)),
        _ => unreachable!("unknown constructor {label}"),
    }
}

#[test]
fn non_readers_say_so() {
    let content = drama();
    for &(label, _) in NON_READERS {
        assert!(!non_reader(label, &content).reads_meter(), "{label}");
    }
    let dash = dash_view(&content);
    assert!(ExoPlayerPolicy::dash(&dash).reads_meter());
    // The data saver answers for the policy it wraps.
    let allowed = curated_subset(content.video(), content.audio());
    let ladder = ComboLadder::from_dash(&dash, &allowed);
    let pairs: Vec<_> = ladder
        .combos()
        .iter()
        .copied()
        .zip(ladder.bandwidths().iter().copied())
        .collect();
    let capped = |inner: Box<dyn AbrPolicy>| {
        CappedPolicy::new(inner, pairs.clone(), BitsPerSec::from_kbps(2500)).reads_meter()
    };
    assert!(capped(Box::new(BestPracticePolicy::from_dash(
        &dash, &allowed
    ))));
    assert!(!capped(Box::new(BbaPolicy::from_dash(&dash, &allowed))));
}

#[test]
fn a_non_reader_plays_the_same_session_with_the_meter_on() {
    let content = drama();
    for &(label, kind) in NON_READERS {
        for delivery in [DeliveryMode::Demuxed, DeliveryMode::Muxed] {
            for (trace_name, trace) in traces() {
                let plain = run(
                    &content,
                    kind,
                    non_reader(label, &content),
                    trace.clone(),
                    delivery,
                );
                let windows = Rc::new(Cell::new(0));
                let forced = MeterOn {
                    inner: non_reader(label, &content),
                    windows: Rc::clone(&windows),
                };
                let metered = run(&content, kind, Box::new(forced), trace, delivery);
                assert!(
                    windows.get() > 0,
                    "{label} {delivery:?} {trace_name}: the forced meter saw no window"
                );
                assert!(
                    plain == metered,
                    "{label} {delivery:?} {trace_name}: the meter changed the session"
                );
            }
        }
    }
}

#[test]
fn a_meter_reader_plays_a_different_session_without_its_window() {
    let content = drama();
    let dash = dash_view(&content);
    for (trace_name, trace) in traces() {
        let plain = run(
            &content,
            PlayerKind::ExoPlayer,
            Box::new(ExoPlayerPolicy::dash(&dash)),
            trace.clone(),
            DeliveryMode::Demuxed,
        );
        let blind = run(
            &content,
            PlayerKind::ExoPlayer,
            Box::new(ZeroWindow(Box::new(ExoPlayerPolicy::dash(&dash)))),
            trace,
            DeliveryMode::Demuxed,
        );
        assert!(
            plain != blind,
            "{trace_name}: ExoPlayer ignored its meter window"
        );
    }
}
