//! Monte Carlo fleet sweep: the scale workload behind `exp mc`.
//!
//! Runs the full trace corpus × every policy (the six player emulations
//! plus the data-saver [`CappedPolicy`] wrapper) × `seeds` independent
//! content/trace realizations on the deterministic parallel runner —
//! thousands of sessions at the default seed count. The report aggregates
//! QoE per (trace, policy) cell across seeds; the benchmark's `mc`
//! workload times this sweep for `BENCH.json`.
//!
//! Determinism: the grid is authored up front in a fixed order (seed-major,
//! then corpus order, then policy order) and sharded with
//! [`runner::run_pool`], so the aggregate is byte-identical at every
//! `--jobs` value. Per-seed realizations derive from the experiment-wide
//! [`SEED`](crate::setup::SEED) by offset, never from host state. Cells
//! only summarize, so each session keeps its online QoE digest
//! ([`abr_player::Session::run_digest`]) instead of a log.

use std::rc::Rc;

use crate::corpus::ScenarioCorpus;
use crate::profiling::WorkloadProfile;
use crate::report::Form::{Dec, Plain};
use crate::report::{table, Row};
use crate::runner;
use crate::setup::{dash_policy_over, PlayerKind, SessionSpec};
use abr_core::combos::ComboLadder;
use abr_core::{BestPracticePolicy, CappedPolicy};
use abr_event::time::Duration;
use abr_manifest::view::BoundDash;
use abr_media::combo::{curated_subset, Combo};
use abr_media::content::Content;
use abr_media::units::BitsPerSec;
use abr_obs::{ObsHandle, Profiler};
use abr_player::policy::AbrPolicy;
use abr_qoe::{ContentProfile, QoeSummary, QoeWeights};
use serde_json::{json, Value};

/// The policy arms of the sweep, in column order: the six player
/// emulations plus the capped best-practice wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McPolicy {
    /// One of the standard player emulations.
    Kind(PlayerKind),
    /// Best-practice wrapped in a data-saver cap (Kbps).
    Capped(u64),
}

impl McPolicy {
    /// Column label for reports.
    pub fn label(&self) -> String {
        match self {
            McPolicy::Kind(kind) => format!("{kind:?}"),
            McPolicy::Capped(kbps) => format!("Capped{kbps}"),
        }
    }

    /// Which player configuration the arm runs under.
    pub fn player_kind(&self) -> PlayerKind {
        match self {
            McPolicy::Kind(kind) => *kind,
            McPolicy::Capped(_) => PlayerKind::BestPractice,
        }
    }

    /// Builds the arm's policy over `content` and its already-bound DASH
    /// view (shared from the scenario corpus — the MPD round trip happens
    /// once per realization, not once per session).
    pub fn policy(&self, content: &Content, view: &BoundDash) -> Box<dyn AbrPolicy> {
        match self {
            McPolicy::Kind(kind) => dash_policy_over(*kind, content, view),
            McPolicy::Capped(kbps) => {
                let allowed = curated_subset(content.video(), content.audio());
                let inner = Box::new(BestPracticePolicy::from_dash(view, &allowed));
                // The cap reads the same declared sums as the inner policy.
                let ladder = ComboLadder::from_dash(view, &allowed);
                let pairs: Vec<(Combo, BitsPerSec)> = ladder
                    .combos()
                    .iter()
                    .copied()
                    .zip(ladder.bandwidths().iter().copied())
                    .collect();
                Box::new(CappedPolicy::new(
                    inner,
                    pairs,
                    BitsPerSec::from_kbps(*kbps),
                ))
            }
        }
    }
}

/// The seven policy arms, in column order.
pub fn mc_policies() -> Vec<McPolicy> {
    vec![
        McPolicy::Kind(PlayerKind::ExoPlayer),
        McPolicy::Kind(PlayerKind::Shaka),
        McPolicy::Kind(PlayerKind::DashJs),
        McPolicy::Kind(PlayerKind::Bba),
        McPolicy::Kind(PlayerKind::Mpc),
        McPolicy::Kind(PlayerKind::BestPractice),
        McPolicy::Capped(2500),
    ]
}

/// Trace length for corpus realizations: long enough to cover the 300 s
/// clip plus worst-case stalls on the outage profiles.
const TRACE_SECS: u64 = 900;

/// One cell of the session grid.
#[derive(Debug, Clone, Copy)]
struct McCell {
    /// Per-seed realization index, `0..seeds`.
    realization: u64,
    /// Index into [`abr_net::corpus::all`].
    trace: usize,
    /// Index into [`mc_policies`].
    policy: usize,
}

/// Aggregate of one (trace, policy) cell across realizations.
#[derive(Debug, Clone, Default)]
struct CellStats {
    n: usize,
    score_sum: f64,
    score_min: f64,
    stall_count: usize,
    stall_secs: f64,
    video_kbps_sum: u64,
    incomplete: usize,
}

impl CellStats {
    fn fold(&mut self, q: &QoeSummary) {
        if self.n == 0 || q.score < self.score_min {
            self.score_min = q.score;
        }
        self.n += 1;
        self.score_sum += q.score;
        self.stall_count += q.stall_count;
        self.stall_secs += q.total_stall.as_secs_f64();
        self.video_kbps_sum += q.mean_video_kbps;
        if !q.completed {
            self.incomplete += 1;
        }
    }
}

/// The result of one Monte Carlo sweep: the rendered aggregate plus the
/// structured report `exp mc --json` writes.
pub struct McResult {
    /// The aggregate table.
    pub text: String,
    /// Structured per-cell stats plus sweep metadata.
    pub json: Value,
    /// Total sessions run.
    pub sessions: usize,
}

/// The authored sweep grid: the shared scenario corpus, policy arms, and
/// every (realization, trace, policy) cell in the fixed seed-major order
/// the determinism contract requires. The corpus builds each
/// realization's content and seeded traces exactly once, and one DASH
/// view and one copy of each fixed trace for all of them; cells then
/// clone `Arc` handles instead of re-synthesizing (DESIGN.md §15).
fn mc_grid(seeds: u64) -> (ScenarioCorpus, Vec<McPolicy>, Vec<McCell>) {
    let corpus = ScenarioCorpus::build_mc(seeds, Duration::from_secs(TRACE_SECS));
    let policies = mc_policies();
    let traces = corpus.trace_names().len();
    let mut grid: Vec<McCell> = Vec::new();
    for realization in 0..seeds {
        for trace in 0..traces {
            for policy in 0..policies.len() {
                grid.push(McCell {
                    realization,
                    trace,
                    policy,
                });
            }
        }
    }
    (corpus, policies, grid)
}

/// LPT-style claim-order hint for the grid: MPC cells first (the MPC
/// arm is still the heaviest, at about a quarter of the sweep's session
/// time with 100 seeds at jobs 1: about 2.1× the ExoPlayer arm and 1.5×
/// Shaka, the next heaviest), everything else in authored order behind
/// them. Longest work first keeps the tail of the sweep from landing a
/// cluster of heavy cells on one worker. Claim order is a scheduling
/// knob outside the artifact contract (DESIGN.md §16); results merge in
/// grid order regardless.
fn lpt_order(policies: &[McPolicy], grid: &[McCell]) -> Vec<usize> {
    let is_heavy = |cell: &McCell| matches!(policies[cell.policy], McPolicy::Kind(PlayerKind::Mpc));
    let mut order = Vec::with_capacity(grid.len());
    order.extend((0..grid.len()).filter(|&i| is_heavy(&grid[i])));
    order.extend((0..grid.len()).filter(|&i| !is_heavy(&grid[i])));
    order
}

/// Runs one grid cell over the shared corpus: clone the realization's
/// content and trace handles, build the arm's policy over the shared
/// view, run a digest session and summarize its digest. With a profiler
/// attached the setup, session and summarize phases become spans and the
/// session's `ObsHandle` carries the profiler; without one this is
/// exactly the unprofiled path (a disabled handle is what a bare session
/// uses), so the returned summary is byte-identical either way.
fn run_cell(
    policies: &[McPolicy],
    corpus: &ScenarioCorpus,
    cell: McCell,
    profiler: Option<&Rc<Profiler>>,
) -> QoeSummary {
    let setup_span = profiler.map(|p| p.span("session.setup"));
    let scenario = corpus.scenario(cell.realization);
    let trace = scenario.traces[cell.trace].1.clone();
    let arm = policies[cell.policy];
    let policy = arm.policy(&scenario.content, &scenario.dash);
    drop(setup_span);
    let mut obs = ObsHandle::disabled();
    if let Some(p) = profiler {
        obs = obs.with_profiler(Rc::clone(p));
    }
    let digest = SessionSpec::new(&scenario.content, arm.player_kind(), policy, trace)
        .build()
        .with_obs(obs)
        .run_digest();
    let _summarize = profiler.map(|p| p.span("session.summarize"));
    abr_qoe::summarize_digest(&digest, QoeWeights::default(), ContentProfile::NEUTRAL)
}

/// Runs the fleet sweep: `seeds` realizations of (full corpus × all
/// policies), sharded over `min(jobs, cores)` workers. Deterministic at
/// every `jobs` value.
pub fn run_mc(seeds: u64, jobs: usize) -> McResult {
    run_mc_with(seeds, jobs, false).0
}

/// The one sweep body behind `exp mc` with and without `--profile`. With
/// `profile` every session runs with a private span profiler, the pool
/// reports its phase/worker accounting, and the returned
/// [`WorkloadProfile`] names where the sweep's host time went. The
/// [`McResult`] is byte-identical either way — profiling observes, never
/// perturbs (`tests/profile_determinism.rs`) — and both runs share the
/// claim order and chunking.
pub fn run_mc_with(seeds: u64, jobs: usize, profile: bool) -> (McResult, Option<WorkloadProfile>) {
    assert!(seeds > 0, "mc sweep needs at least one seed");
    let setup = runner::Lap::start(profile);
    let (corpus, policies, grid) = mc_grid(seeds);
    let order = lpt_order(&policies, &grid);
    let setup_ns = setup.ns();
    let (summaries, pool) = runner::run_pool(
        grid.len(),
        jobs,
        runner::adaptive_chunk(grid.len(), jobs),
        Some(&order),
        profile,
        |i, profiler| run_cell(&policies, &corpus, grid[i], profiler),
    );
    let result = aggregate(seeds, &corpus.trace_names(), &policies, &grid, &summaries);
    let profile = pool.map(|pool| WorkloadProfile::from_pool("mc", setup_ns, pool));
    (result, profile)
}

/// Folds per-session summaries into the per-(trace, policy) aggregate
/// table and JSON report. Pure function of its inputs, shared by the
/// profiled and unprofiled sweeps.
fn aggregate(
    seeds: u64,
    corpus_names: &[&'static str],
    policies: &[McPolicy],
    grid: &[McCell],
    summaries: &[QoeSummary],
) -> McResult {
    let mut cells: Vec<CellStats> = vec![CellStats::default(); corpus_names.len() * policies.len()];
    for (cell, q) in grid.iter().zip(summaries) {
        cells[cell.trace * policies.len() + cell.policy].fold(q);
    }

    let labels = corpus_names
        .iter()
        .flat_map(|tname| policies.iter().map(move |arm| (tname, arm.label())));
    let (body, rows) = table(labels.zip(&cells).map(|((tname, policy), s)| {
        let n = s.n as f64;
        let stalls = s.stall_count as f64 / n;
        let video_kbps = s.video_kbps_sum / s.n as u64;
        Row::default()
            .cell("Trace", "trace", tname, Plain)
            .cell("Policy", "policy", policy, Plain)
            .json("seeds", s.n)
            .cell("QoE mean", "mean_score", s.score_sum / n, Dec(2))
            .cell("QoE min", "min_score", s.score_min, Dec(2))
            .cell("Stalls/run", "mean_stalls", stalls, Dec(2))
            .cell("Stall s", "mean_stall_s", s.stall_secs / n, Dec(1))
            .cell("Video Kbps", "mean_video_kbps", video_kbps, Plain)
            .cell("Incomplete", "incomplete", s.incomplete, Plain)
    }));
    let sessions = grid.len();
    let text = format!(
        "{} seeds x {} traces x {} policies = {} sessions\n{body}",
        seeds,
        corpus_names.len(),
        policies.len(),
        sessions
    );
    McResult {
        text,
        json: json!({
            "seeds": seeds,
            "traces": corpus_names.len(),
            "policies": policies.len(),
            "sessions": sessions,
            "trace_secs": TRACE_SECS,
            "rows": rows,
        }),
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_runs_and_aggregates() {
        let r = run_mc(1, 1);
        assert_eq!(r.sessions, 7 * 7);
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 49);
        for row in rows {
            assert_eq!(row["seeds"], 1u64);
            assert!(row["mean_score"].as_f64().is_some());
        }
        assert!(r.text.contains("1 seeds x 7 traces x 7 policies"));
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        // The determinism contract: the aggregate is byte-identical no
        // matter how the grid is sharded.
        let serial = run_mc(2, 1);
        let sharded = run_mc(2, 4);
        assert_eq!(serial.text, sharded.text);
        assert_eq!(
            serde_json::to_string(&serial.json).unwrap(),
            serde_json::to_string(&sharded.json).unwrap()
        );
    }

    #[test]
    fn corpus_sharing_matches_per_spec_construction() {
        // The tentpole differential: cells running over Arc-shared
        // corpus scenarios must summarize identically to cells that
        // rebuild content, view and trace from their spec alone.
        use crate::setup::{dash_view, run_session, SEED};
        use abr_media::content::SharedContent;
        let (corpus, policies, grid) = mc_grid(2);
        for cell in grid.iter().step_by(5).copied() {
            let shared = run_cell(&policies, &corpus, cell, None);
            let seed = SEED.wrapping_add(cell.realization);
            let content: SharedContent = Content::drama_show(seed).into();
            let trace = abr_net::corpus::all(Duration::from_secs(TRACE_SECS), seed)
                .swap_remove(cell.trace)
                .1;
            let arm = policies[cell.policy];
            let view = dash_view(&content);
            let policy = arm.policy(&content, &view);
            let log = run_session(&content, arm.player_kind(), policy, trace);
            assert_eq!(shared, abr_qoe::summarize(&log), "cell {cell:?}");
        }
    }

    #[test]
    fn lpt_order_is_a_permutation_with_mpc_first() {
        let (_corpus, policies, grid) = mc_grid(2);
        let order = lpt_order(&policies, &grid);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..grid.len()).collect::<Vec<_>>());
        let is_heavy =
            |i: usize| matches!(policies[grid[i].policy], McPolicy::Kind(PlayerKind::Mpc));
        let heavy = (0..grid.len()).filter(|&i| is_heavy(i)).count();
        assert_eq!(
            heavy,
            grid.len() / policies.len(),
            "one MPC arm per cell row"
        );
        assert!(
            order[..heavy].iter().all(|&i| is_heavy(i)),
            "MPC cells lead"
        );
    }

    #[test]
    fn capped_arm_respects_its_budget() {
        let r = run_mc(1, 1);
        let rows = r.json["rows"].as_array().unwrap();
        for row in rows {
            if row["policy"] == "Capped2500" {
                let kbps = row["mean_video_kbps"].as_u64().unwrap();
                assert!(kbps <= 2500, "capped arm averaged {kbps} Kbps");
            }
        }
    }
}
