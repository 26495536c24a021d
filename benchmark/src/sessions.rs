//! Serial replicas of each workload's sessions, built from the
//! program's public constructors with [`TimedPolicy`] around the policy.
//! Each replica is checked against the program's own output, so the
//! times it yields belong to the sessions the workload really runs.
//! Every time here is in recording-host ns (see `measure`).

use crate::measure::{timed_call, HostClock};
use crate::replay::{self, charge_hub, fresh_hub, issued_requests, LinkTally, LINK_LATENCY};
use crate::timed_policy::{PolicyClock, TimedPolicy};
use crate::workloads::MC_TRACE_SECS;
use abr_bench::corpus::{ScenarioCorpus, TitleCorpus};
use abr_bench::fleet::{self, FleetSpec, PlanSource};
use abr_bench::mc::{mc_policies, McPolicy};
use abr_bench::setup::{self, PlayerKind};
use abr_core::{BestPracticePolicy, CappedPolicy, DashJsPolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_event::time::{Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_httpsim::shared::SharedEdge;
use abr_manifest::view::BoundDash;
use abr_media::combo::{combo_bitrate, curated_subset, Combo};
use abr_media::content::{Content, SharedContent};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_obs::ObsHandle;
use abr_player::policy::AbrPolicy;
use abr_player::session::DeliveryMode;
use abr_player::{Session, SessionLog, SessionScratch};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant as HostInstant;

/// One traced session run.
pub struct SessionSample {
    /// Recording-host ns of the session run.
    pub wall_ns: f64,
    /// Engine events dispatched (one buffer sample per step).
    pub events: u64,
    /// The policy's call times, raw host ns.
    pub clock: Rc<PolicyClock>,
    /// Raw-to-recording-host factor for `clock`.
    pub scale: f64,
}

/// A session kept for the link replay, which runs after all the timed
/// session runs: replaying between them slowed the following sessions by
/// about 13% on mc.
struct Kept {
    log: SessionLog,
    trace: Trace,
    content: SharedContent,
    /// The session's recording-host ns.
    wall_ns: f64,
    /// Title and arrival of a fleet session, whose requests charged a
    /// fresh domain hub.
    fleet: Option<(u64, Duration)>,
}

/// A replica's session samples plus its link replays.
#[derive(Default)]
pub struct SessionSet {
    /// Every traced session run.
    pub samples: Vec<SessionSample>,
    /// Link replays of the kept sessions.
    pub link: LinkTally,
    /// Replica checks that failed.
    pub failures: Vec<String>,
    kept: Vec<Kept>,
}

impl SessionSet {
    /// Records a session run of `raw_ns` host ns at host factor `scale`.
    fn push(&mut self, raw_ns: u64, scale: f64, log: &SessionLog, clock: Rc<PolicyClock>) {
        self.samples.push(SessionSample {
            wall_ns: raw_ns as f64 * scale,
            events: log.buffer_samples.len() as u64,
            clock,
            scale,
        });
    }

    /// Keeps a copy of the last pushed session for `replay_kept`.
    fn keep(&mut self, log: &SessionLog, trace: &Trace, content: &SharedContent) {
        self.kept.push(Kept {
            log: log.clone(),
            trace: trace.clone(),
            content: SharedContent::clone(content),
            wall_ns: self.samples.last().expect("pushed before kept").wall_ns,
            fleet: None,
        });
    }

    /// Replays every kept session's link; `spec` for fleet sessions.
    fn replay_kept(&mut self, spec: Option<&FleetSpec>) {
        let mut host = HostClock::new();
        let delivery = spec.map_or(DeliveryMode::Demuxed, |s| s.delivery);
        for kept in std::mem::take(&mut self.kept) {
            let origin = Origin::with_overhead(kept.content, Bytes::ZERO);
            let mut issued = issued_requests(&kept.log, &origin, delivery);
            if let (Some(spec), Some((title, arrival))) = (spec, kept.fleet) {
                charge_hub(&mut issued, spec, &origin, title, arrival);
            }
            let scale = host.scale();
            let tally = replay::replay_link(&kept.log, &issued, kept.trace);
            self.link.add(tally, scale, kept.wall_ns);
        }
    }
}

fn nanos_since(start: HostInstant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The mc sweep replayed serially over the same `ScenarioCorpus`.
pub struct McReplica {
    /// The sessions, in grid order.
    pub set: SessionSet,
    /// Arm index (into `mc_policies()`) of each sample.
    pub arms: Vec<usize>,
    /// `mean_score` per (trace, arm) row, in `run_mc`'s row order.
    pub rows: Vec<f64>,
    /// Recording-host ns of the corpus build, policy builds, sessions and
    /// summaries (not replays or checks): the traced counterpart of one
    /// jobs-1 `run_mc`.
    pub wall_ns: f64,
}

/// The policy `run_mc` builds for `arm` (a copy of `McPolicy::policy`,
/// which is private; the row check pins the two together).
fn mc_arm_policy(arm: McPolicy, content: &Content, view: &BoundDash) -> Box<dyn AbrPolicy> {
    match arm {
        McPolicy::Kind(kind) => setup::dash_policy_over(kind, content, view),
        McPolicy::Capped(kbps) => {
            let allowed = curated_subset(content.video(), content.audio());
            let inner = Box::new(BestPracticePolicy::from_dash(view, &allowed));
            let pairs: Vec<(Combo, BitsPerSec)> = allowed
                .iter()
                .map(|&c| {
                    let rate = combo_bitrate(content.video(), content.audio(), c).declared;
                    (c, rate)
                })
                .collect();
            Box::new(CappedPolicy::new(inner, pairs, BitsPerSec::from_kbps(kbps)))
        }
    }
}

fn mc_arm_kind(arm: McPolicy) -> PlayerKind {
    match arm {
        McPolicy::Kind(kind) => kind,
        McPolicy::Capped(_) => PlayerKind::BestPractice,
    }
}

/// Runs the mc grid (`seeds` realizations × traces × arms) serially in
/// grid order, each session with a timed policy and the pooled log
/// vectors `run_mc` uses; with `replay_every`, then replays the link of
/// every that-many-th session. Checks on the first trace of realization
/// 0 that the wrapper is transparent (equal `QoeSummary` unwrapped).
pub fn mc_replica(seeds: u64, replay_every: Option<usize>) -> McReplica {
    let (corpus, build_s) =
        timed_call(|| ScenarioCorpus::build_mc(seeds, Duration::from_secs(MC_TRACE_SECS)));
    let policies = mc_policies();
    let mut score_sums = vec![0.0; corpus.trace_names().len() * policies.len()];
    let mut replica = McReplica {
        set: SessionSet::default(),
        arms: Vec::new(),
        rows: Vec::new(),
        wall_ns: build_s * 1e9,
    };
    let mut scratch = SessionScratch::new();
    let mut host = HostClock::new();
    for r in 0..seeds {
        let scenario = corpus.scenario(r);
        for (t, (_, trace)) in scenario.traces.iter().enumerate() {
            for (p, &arm) in policies.iter().enumerate() {
                let scale = host.scale();
                let cell_start = HostInstant::now();
                let clock = Rc::new(PolicyClock::default());
                let inner = mc_arm_policy(arm, &scenario.content, &scenario.dash);
                let session_start = HostInstant::now();
                let log = setup::run_session_pooled(
                    &scenario.content,
                    mc_arm_kind(arm),
                    TimedPolicy::wrap(inner, &clock),
                    trace.clone(),
                    ObsHandle::disabled(),
                    &mut scratch,
                );
                let session_ns = nanos_since(session_start);
                let summary = abr_qoe::summarize(&log);
                score_sums[t * policies.len() + p] += summary.score;
                replica.wall_ns += nanos_since(cell_start) as f64 * scale;
                replica.set.push(session_ns, scale, &log, clock);
                replica.arms.push(p);
                if replay_every.is_some_and(|k| (replica.arms.len() - 1).is_multiple_of(k)) {
                    replica.set.keep(&log, trace, &scenario.content);
                }
                if r == 0 && t == 0 {
                    let plain = setup::run_session(
                        &scenario.content,
                        mc_arm_kind(arm),
                        mc_arm_policy(arm, &scenario.content, &scenario.dash),
                        trace.clone(),
                    );
                    if abr_qoe::summarize(&plain) != summary {
                        replica.set.failures.push(format!(
                            "TimedPolicy changed the {} session's QoE summary",
                            arm.label()
                        ));
                    }
                }
                scratch.reclaim(log);
            }
        }
    }
    replica.rows = score_sums.iter().map(|s| s / seeds as f64).collect();
    replica.set.replay_kept(None);
    replica
}

/// The paper experiments that run exactly one session, by id.
const PAPER_SESSIONS: [&str; 9] = [
    "f2a", "f2b", "f3a", "f3b", "f3x", "f4a", "f4b", "f5a", "f5b",
];

/// The session experiment `id` runs, built from the public setup API as
/// the experiment builds it: (content, player, policy, trace).
fn paper_session(id: &str) -> (SharedContent, PlayerKind, Box<dyn AbrPolicy>, Trace) {
    let long = Duration::from_secs(3600);
    let kbps = BitsPerSec::from_kbps;
    let content = match id {
        "f2a" => setup::drama_low_audio(),
        "f2b" => setup::drama_high_audio(),
        _ => setup::drama(),
    };
    let (kind, policy, trace): (PlayerKind, Box<dyn AbrPolicy>, Trace) = match id {
        "f2a" | "f2b" => (
            PlayerKind::ExoPlayer,
            Box::new(ExoPlayerPolicy::dash(&setup::dash_view(&content))),
            Trace::constant(kbps(900)),
        ),
        "f3a" | "f3b" => (
            PlayerKind::ExoPlayer,
            Box::new(ExoPlayerPolicy::hls(&setup::hls_sub_view(
                &content,
                &[2, 0, 1],
            ))),
            Trace::fig3_varying_600k(long),
        ),
        "f3x" => (
            PlayerKind::ExoPlayer,
            Box::new(ExoPlayerPolicy::hls(&setup::hls_sub_view(
                &content,
                &[0, 1, 2],
            ))),
            Trace::constant(kbps(5000)),
        ),
        "f4a" | "f4b" => (
            PlayerKind::Shaka,
            Box::new(ShakaPolicy::hls(&setup::hls_all_view(&content))),
            if id == "f4a" {
                Trace::constant(kbps(1000))
            } else {
                Trace::fig4b_varying_600k(long)
            },
        ),
        "f5a" | "f5b" => (
            PlayerKind::DashJs,
            Box::new(DashJsPolicy::new(&setup::dash_view(&content))),
            Trace::constant(kbps(700)),
        ),
        _ => unreachable!("{id} is not a single-session experiment"),
    };
    (content, kind, policy, trace)
}

/// Runs each single-session paper experiment's session `reps` times with
/// a timed policy; checks the log against `experiments::traced_sessions`
/// and then replays the link once per session.
pub fn paper_replica(reps: usize) -> SessionSet {
    let mut set = SessionSet::default();
    let mut host = HostClock::new();
    for id in PAPER_SESSIONS {
        for rep in 0..reps {
            let (content, kind, inner, trace) = paper_session(id);
            let clock = Rc::new(PolicyClock::default());
            let scale = host.scale();
            let start = HostInstant::now();
            let policy = TimedPolicy::wrap(inner, &clock);
            let log = setup::run_session(&content, kind, policy, trace.clone());
            set.push(nanos_since(start), scale, &log, clock);
            if rep > 0 {
                continue;
            }
            let program = abr_bench::experiments::traced_sessions(id, 1)
                .expect("single-session experiment is traceable");
            if program.len() != 1 || program[0].log != log {
                set.failures.push(format!(
                    "replica of {id} differs from the experiment's session"
                ));
            }
            set.keep(&log, &trace, &content);
        }
    }
    set.replay_kept(None);
    set
}

/// Every `every`-th session of a fleet, rerun on its own the way
/// `fleet::standalone_log` runs it (a fresh domain hub, plain
/// `Session::run`), with a timed policy and a link-plus-hub replay.
pub struct FleetReplicas {
    /// The sessions.
    pub set: SessionSet,
    /// Recording-host ns of each session's `corpus::nth` trace draw.
    pub trace_nth_ns: Vec<f64>,
}

/// Runs the fleet's standalone replicas; the first two must equal
/// `fleet::standalone_log`.
pub fn fleet_replicas(
    spec: &FleetSpec,
    source: &PlanSource,
    titles: &TitleCorpus,
    every: usize,
) -> FleetReplicas {
    let mut out = FleetReplicas {
        set: SessionSet::default(),
        trace_nth_ns: Vec::new(),
    };
    let mut host = HostClock::new();
    for (n, i) in (0..spec.sessions).step_by(every).enumerate() {
        let plan = source.plan(i);
        let title = titles.title(plan.title);
        let scale = host.scale();
        let draw = HostInstant::now();
        let trace = abr_net::corpus::nth(
            Duration::from_secs(MC_TRACE_SECS),
            plan.trace_seed,
            plan.trace_index,
        )
        .1;
        out.trace_nth_ns.push(nanos_since(draw) as f64 * scale);

        let origin = Origin::with_overhead(title.content.clone(), Bytes::ZERO);
        let clock = Rc::new(PolicyClock::default());
        let inner = setup::dash_policy_over(plan.kind, &title.content, &title.dash);
        let hub = Rc::new(RefCell::new(fresh_hub(spec)));
        let session = Session::new(
            origin.clone(),
            Link::with_latency(trace.clone(), LINK_LATENCY),
            TimedPolicy::wrap(inner, &clock),
            setup::player_config(plan.kind, title.content.chunk_duration()),
        )
        .with_delivery(spec.delivery)
        .with_deadline(Instant::from_secs(spec.deadline_secs))
        .with_transfer_path(Box::new(SharedEdge::new(
            hub,
            plan.title as u64,
            plan.arrival,
        )));
        let start = HostInstant::now();
        let log = session.run();
        out.set.push(nanos_since(start), scale, &log, clock);
        if n < 2 && log != fleet::standalone_log(spec, i) {
            out.set.failures.push(format!(
                "fleet session {i} replica differs from standalone_log"
            ));
        }
        out.set.keep(&log, &trace, &title.content);
        if let Some(kept) = out.set.kept.last_mut() {
            kept.fleet = Some((plan.title as u64, plan.arrival));
        }
    }
    out.set.replay_kept(Some(spec));
    out
}
