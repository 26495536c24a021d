//! MPC — model-predictive control rate adaptation (Yin et al., SIGCOMM
//! 2015; the paper's reference \[25\]), adapted to joint audio+video
//! combination selection.
//!
//! At each chunk position the policy enumerates every combination sequence
//! over a lookahead horizon, simulates the buffer under a conservative
//! throughput prediction (RobustMPC's harmonic mean discounted by the
//! recent maximum prediction error), scores each sequence with the linear
//! QoE objective (quality − switch penalty − stall penalty), and commits
//! only the first step. Like the best-practice policy it selects whole
//! combinations, so audio and video stay consistent per §4.2.

use crate::combos::{select_joint, ComboLadder, JointFrame, JointPolicy};
use crate::estimators::{record_update, HarmonicMean};
use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// MPC parameters.
#[derive(Debug, Clone, Copy)]
pub struct MpcConfig {
    /// Lookahead horizon in chunks (RobustMPC uses 5).
    pub horizon: usize,
    /// λ: penalty per Mbps of quality change between consecutive chunks.
    pub switch_penalty: f64,
    /// μ: penalty per second of predicted rebuffering.
    pub stall_penalty: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            horizon: 5,
            switch_penalty: 1.0,
            stall_penalty: 4.3,
        }
    }
}

/// The MPC joint-combination policy.
#[derive(Debug, Clone)]
pub struct MpcPolicy {
    /// Candidate combinations, ascending bandwidth, and the per-position
    /// lock (§4.2).
    joint: JointFrame,
    /// Aggregate bandwidth requirement per combination (bps) — used both
    /// as the download-cost model and as the quality proxy.
    combo_bw: Vec<f64>,
    /// Per-combination quality in Mbps (`combo_bw / 1e6`).
    q: Vec<f64>,
    /// The largest entry of `q`: the per-step quality bound of `plan`.
    q_max: f64,
    /// `switch[last·n + c]`: the step term of choosing `c` after `last`
    /// before its stall penalty, `q[c] − λ·|q[c] − q[last]|`.
    switch: Vec<f64>,
    /// `tail[r·n + c]`: the most the `r` steps remaining after `c` can add
    /// (the pruning bound of `plan`); row 0 is unused.
    tail: Vec<f64>,
    /// `plan`'s per-call download-time scratch, reused across calls.
    download_s: Vec<f64>,
    /// Search nodes evaluated by `plan` so far.
    search_nodes: u64,
    tput: HarmonicMean,
    /// Relative prediction errors of recent throughput predictions
    /// (RobustMPC's max-error discount).
    errors: std::collections::VecDeque<f64>,
    last_prediction: Option<f64>,
    cfg: MpcConfig,
    current: Option<usize>,
}

impl MpcPolicy {
    /// Over explicit combinations.
    pub fn from_combos(pairs: Vec<(Combo, BitsPerSec)>) -> MpcPolicy {
        MpcPolicy::over(ComboLadder::new(pairs))
    }

    /// Over an HLS manifest's variants.
    pub fn from_hls(view: &BoundHls) -> MpcPolicy {
        MpcPolicy::over(ComboLadder::from_hls(view))
    }

    /// Over a DASH manifest with server-curated combinations.
    pub fn from_dash(view: &BoundDash, allowed: &[Combo]) -> MpcPolicy {
        MpcPolicy::over(ComboLadder::from_dash(view, allowed))
    }

    fn over(ladder: ComboLadder) -> MpcPolicy {
        let combo_bw: Vec<f64> = ladder.bandwidths().iter().map(|b| b.bps() as f64).collect();
        let q: Vec<f64> = combo_bw.iter().map(|&bw| bw / 1e6).collect();
        let q_max = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        MpcPolicy {
            joint: JointFrame::new(ladder),
            download_s: Vec::with_capacity(combo_bw.len()),
            search_nodes: 0,
            combo_bw,
            q,
            q_max,
            switch: Vec::new(),
            tail: Vec::new(),
            tput: HarmonicMean::new(5),
            errors: std::collections::VecDeque::new(),
            last_prediction: None,
            cfg: MpcConfig::default(),
            current: None,
        }
        .with_tables()
    }

    /// Fills the `switch` and `tail` tables from `q`, `q_max` and the
    /// config: every term of `plan`'s search that depends only on indices
    /// and the policy's constants, evaluated once with the expressions the
    /// search used per node, so every float stays the same.
    fn with_tables(mut self) -> MpcPolicy {
        let (q, q_max, lambda) = (&self.q, self.q_max, self.cfg.switch_penalty);
        let n = q.len();
        self.switch = (0..n * n)
            .map(|i| {
                let (last, c) = (i / n, i % n);
                q[c] - lambda * (q[c] - q[last]).abs()
            })
            .collect();
        self.tail = (0..self.cfg.horizon.max(1) * n)
            .map(|i| {
                let (r, c) = ((i / n) as f64, i % n);
                if lambda < r {
                    r * q_max - lambda * (q_max - q[c])
                } else {
                    r * q[c]
                }
            })
            .collect();
        self
    }

    /// Overrides the tunables. Panics on a negative (or NaN) penalty:
    /// `plan`'s pruning bound assumes both are non-negative.
    pub fn with_config(mut self, cfg: MpcConfig) -> MpcPolicy {
        assert!(
            cfg.switch_penalty >= 0.0 && cfg.stall_penalty >= 0.0,
            "MPC penalties must be non-negative"
        );
        self.cfg = cfg;
        self.with_tables()
    }

    /// The candidate combinations, ascending bandwidth.
    pub fn combinations(&self) -> &[Combo] {
        self.joint.ladder.combos()
    }

    /// RobustMPC's conservative prediction: harmonic mean over recent
    /// transfers, divided by (1 + max recent relative error).
    fn predict(&self) -> Option<f64> {
        let base = self.tput.estimate()?.bps() as f64;
        let max_err = self.errors.iter().copied().fold(0.0f64, f64::max);
        Some(base / (1.0 + max_err))
    }

    /// Exhaustive search over combination sequences of length `horizon`,
    /// returning the best first action. `buffer_s` is the scarcer buffer
    /// level in seconds, `prev` the combination the first step switches
    /// from.
    ///
    /// The search's definition is a flat enumeration: score every leaf
    /// (sequence) in lexicographic order, accumulating one step term at a
    /// time (quality − switch penalty − stall penalty, added with
    /// `score + term`), and return the first element of the first leaf
    /// with the strictly greatest score. `plan` returns exactly that
    /// action, float for float, but visits far fewer nodes:
    ///
    /// * Enumeration is depth-first in lexicographic order with the prefix
    ///   state (score, buffer, previous combination) carried down, so
    ///   shared prefixes are evaluated once and every leaf score is the
    ///   same float the flat enumeration computes.
    /// * The `n` constant plans are scored first with the same float
    ///   operations. Each is a real leaf, so the best of them is a floor
    ///   on the optimum.
    /// * After a prefix ending in `c`, the `r` remaining steps add at most
    ///   `r·q_max − λ·(q_max − q[c])` when `λ < r` and `r·q[c]` otherwise
    ///   (penalties are non-negative; the switch penalties of any path
    ///   that peaks at quality `M` sum to at least `λ·(M − q[c])`). A
    ///   subtree is pruned when that bound, plus a rounding slack, is
    ///   below the floor or does not exceed the best leaf found so far:
    ///   none of its leaves can be the first strict maximum.
    /// * The step term's quality-minus-switch part and the tail bound
    ///   depend only on indices and the policy's constants, so each node
    ///   reads them from the `switch` and `tail` tables built with the
    ///   policy; only the stall penalty is computed per node.
    ///
    /// The bound is compared in floats, so it carries a rounding slack
    /// `ε·(|score| + q_max)` with `ε = 2u·(h + 3)·(h + 5)·(1 + λ)`,
    /// `u = 2⁻⁵³` and `h` the horizon: it exceeds the float error between
    /// a subtree's computed leaf scores and the real-valued bound with a
    /// margin of about 2× (DESIGN.md §11 derives it). The prune is
    /// therefore exact, not heuristic; `mpc_plan_matches_flat_enumeration`
    /// (`crates/core/tests/proptests.rs`) holds `plan` to the flat
    /// enumeration.
    pub fn plan(&mut self, buffer_s: f64, chunk_s: f64, predicted_bps: f64, prev: usize) -> usize {
        let n = self.q.len();
        let horizon = self.cfg.horizon.max(1);
        let prev = prev.min(n - 1);
        let lambda = self.cfg.switch_penalty;
        // Loop-invariant per-combo costs, hoisted with the exact
        // expressions the per-step evaluation used.
        self.download_s.clear();
        self.download_s
            .extend(self.combo_bw.iter().map(|&bw| bw * chunk_s / predicted_bps));
        let h = horizon as f64;
        let mut search = Search {
            download_s: &self.download_s,
            switch: &self.switch,
            tail: &self.tail,
            n,
            q_max: self.q_max,
            chunk_s,
            stall_penalty: self.cfg.stall_penalty,
            horizon,
            // 2u = f64::EPSILON.
            slack_eps: f64::EPSILON * (h + 3.0) * (h + 5.0) * (1.0 + lambda),
            floor: f64::NEG_INFINITY,
            best_score: f64::NEG_INFINITY,
            best_first: prev,
            nodes: 0,
        };
        // The floor: the best constant plan, scored like any leaf.
        for c in 0..n {
            let (mut score, mut buf, mut last) = (0.0, buffer_s, prev);
            for _ in 0..horizon {
                let (term, next_buf) = search.step(buf, last, c);
                score += term;
                (buf, last) = (next_buf, c);
            }
            search.floor = search.floor.max(score);
        }
        search.dfs(0, 0.0, buffer_s, prev, prev);
        self.search_nodes += search.nodes;
        search.best_first
    }

    /// Search nodes (step terms) `plan` has evaluated over this policy's
    /// lifetime: the work measure the pruning bound is judged by.
    pub fn search_nodes(&self) -> u64 {
        self.search_nodes
    }
}

/// One [`MpcPolicy::plan`] call's search state.
struct Search<'a> {
    download_s: &'a [f64],
    /// [`MpcPolicy::switch`].
    switch: &'a [f64],
    /// [`MpcPolicy::tail`].
    tail: &'a [f64],
    n: usize,
    q_max: f64,
    chunk_s: f64,
    stall_penalty: f64,
    horizon: usize,
    /// `ε` of the rounding slack `ε·(|score| + q_max)`.
    slack_eps: f64,
    /// The best constant plan's score: a leaf, so a lower bound on the
    /// optimum.
    floor: f64,
    best_score: f64,
    best_first: usize,
    nodes: u64,
}

impl Search<'_> {
    /// The score term of choosing `c` after `last` with `buf` seconds
    /// buffered, and the buffer after that download.
    #[inline]
    fn step(&self, buf: f64, last: usize, c: usize) -> (f64, f64) {
        let stall = (self.download_s[c] - buf).max(0.0);
        let next_buf = (buf - self.download_s[c]).max(0.0) + self.chunk_s;
        // The step term is fully evaluated before it is added to the
        // score: float addition is not associative, and the artifact
        // contract cares.
        let term = self.switch[last * self.n + c] - self.stall_penalty * stall;
        (term, next_buf)
    }

    /// Expands every child of the prefix `(score, buf, last)` at `depth`
    /// in lexicographic order; `first` is the prefix's first action.
    fn dfs(&mut self, depth: usize, score: f64, buf: f64, last: usize, first: usize) {
        let n = self.n;
        self.nodes += n as u64;
        let remaining = self.horizon - depth - 1;
        if remaining == 0 {
            // Leaves: only a strict improvement changes the winner.
            for c in 0..n {
                let (term, _) = self.step(buf, last, c);
                let leaf = score + term;
                if leaf > self.best_score {
                    self.best_score = leaf;
                    self.best_first = if depth == 0 { c } else { first };
                }
            }
            return;
        }
        let tail = &self.tail[remaining * n..(remaining + 1) * n];
        for (c, &rest) in tail.iter().enumerate() {
            let (term, next_buf) = self.step(buf, last, c);
            let next_score = score + term;
            // The tail bound and the rounding slack (see `plan`).
            let bound = next_score + rest + self.slack_eps * (next_score.abs() + self.q_max);
            if bound < self.floor || bound <= self.best_score {
                continue;
            }
            let first = if depth == 0 { c } else { first };
            self.dfs(depth + 1, next_score, next_buf, c, first);
        }
    }
}

impl JointPolicy for MpcPolicy {
    fn frame(&mut self) -> &mut JointFrame {
        &mut self.joint
    }

    fn decide(&mut self, ctx: &SelectionContext) -> (usize, &'static str) {
        let (next, reason) = match self.predict() {
            None => (0, "no history: lowest combination"),
            Some(pred) => {
                self.last_prediction = Some(pred);
                let buffer_s = ctx.audio_level.min(ctx.video_level).as_secs_f64();
                let chunk_s = ctx.chunk_duration.as_secs_f64();
                (
                    self.plan(buffer_s, chunk_s, pred.max(1.0), self.current.unwrap_or(0)),
                    "best first action of the horizon plan",
                )
            }
        };
        self.current = Some(next);
        (next, reason)
    }
}

impl AbrPolicy for MpcPolicy {
    fn name(&self) -> &str {
        "mpc"
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        if let Some(tput) = record.throughput() {
            let actual = tput.bps() as f64;
            if let Some(pred) = self.last_prediction {
                // Relative under-prediction error, RobustMPC style.
                let err = ((pred - actual) / actual).max(0.0);
                self.errors.push_back(err);
                while self.errors.len() > 5 {
                    self.errors.pop_front();
                }
            }
            let old = self.debug_estimate();
            self.tput.add(actual);
            record_update(&self.joint.obs, record, old, self.debug_estimate());
        }
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        select_joint(self, ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.predict().map(|p| BitsPerSec(p.round() as u64))
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.joint.obs = obs.clone();
    }

    /// MPC predicts from whole-transfer throughput.
    fn reads_meter(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::{Duration, Instant};
    use abr_manifest::build::build_master_playlist;
    use abr_media::combo::curated_subset;
    use abr_media::content::Content;
    use abr_media::track::MediaType;
    use abr_media::units::Bytes;
    use abr_net::profile::DeliveryProfile;

    fn policy() -> MpcPolicy {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        MpcPolicy::from_hls(&abr_manifest::view::BoundHls::from_master(&master).unwrap())
    }

    fn feed(p: &mut MpcPolicy, kbps: u64, reps: usize) {
        let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(2_000_000);
        for _ in 0..reps {
            p.on_transfer(&TransferRecord {
                media: MediaType::Video,
                track: TrackId::video(0),
                chunk: 0,
                size,
                opened_at: Instant::ZERO,
                completed_at: Instant::from_secs(2),
                profile: DeliveryProfile::new(),
                window_bytes: Bytes::ZERO,
                window_busy: Duration::ZERO,
            });
        }
    }

    fn ctx_at(buf_secs: u64, chunk: usize) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(chunk as u64 * 4),
            media: MediaType::Video,
            chunk,
            audio_level: Duration::from_secs(buf_secs),
            video_level: Duration::from_secs(buf_secs),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    #[test]
    fn cold_start_is_conservative() {
        let mut p = policy();
        assert_eq!(p.select(&ctx_at(0, 0)), TrackId::video(0));
    }

    #[test]
    fn high_throughput_deep_buffer_goes_high() {
        let mut p = policy();
        feed(&mut p, 8_000, 6);
        let v = p.select(&ctx_at(25, 1));
        assert!(v.index >= 4, "rich conditions select a high rung, got {v}");
    }

    #[test]
    fn thin_buffer_stays_safe() {
        let mut p = policy();
        feed(&mut p, 1_000, 6);
        // 1 s of buffer at 1 Mbps: downloading V5+A3 (2.8 Mbps avg) would
        // stall ~hard; MPC must pick something cheap.
        let v = p.select(&ctx_at(1, 1));
        assert!(v.index <= 1, "thin buffer forces a low rung, got {v}");
    }

    #[test]
    fn switch_penalty_smooths_oscillation() {
        let mut p = policy();
        feed(&mut p, 1_200, 6);
        let mut picks = Vec::new();
        for chunk in 0..20 {
            // Alternate feeds around the decision boundary.
            feed(&mut p, if chunk % 2 == 0 { 1_100 } else { 1_300 }, 1);
            picks.push(p.select(&ctx_at(15, chunk)).index);
        }
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= 6,
            "MPC damps boundary oscillation, got {switches} switches"
        );
    }

    #[test]
    fn prediction_error_discounts() {
        let mut p = policy();
        feed(&mut p, 2_000, 6);
        let optimistic = p.predict().unwrap();
        // A big over-prediction incident (predicted 2 Mbps, actual 400 Kbps).
        p.last_prediction = Some(2_000_000.0);
        feed(&mut p, 400, 1);
        let discounted = p.predict().unwrap();
        assert!(discounted < optimistic, "error discount kicks in");
    }

    #[test]
    fn joint_lock_holds_combo_per_position() {
        let mut p = policy();
        feed(&mut p, 3_000, 6);
        let v = p.select(&ctx_at(20, 3));
        feed(&mut p, 100, 6); // crash mid-position
        let a = p.select(&SelectionContext {
            media: MediaType::Audio,
            ..ctx_at(20, 3)
        });
        let combo = p
            .combinations()
            .iter()
            .find(|c| c.video == v.index)
            .unwrap();
        assert_eq!(a.index, combo.audio);
    }
}
