//! The shared-fate fleet engine behind `exp fleet`.
//!
//! Many [`abr_player::Session`]s run over a two-tier topology: every
//! session keeps a private access link (its own trace draw from the
//! corpus), but all sessions of one *link domain* share a CDN point of
//! presence — one title-namespaced [`abr_httpsim::CdnCache`] in front of
//! one FIFO origin [`abr_net::UplinkQueue`]. Cache hit rates are not an
//! input: they *emerge* from cross-session chunk popularity under a Zipf
//! session-arrival model over a catalog of titles. A conservative
//! window-sync rule couples the domains to a finite origin: every
//! `window_ms`, fleet-wide miss bytes are folded and, when demand exceeds
//! the origin capacity, every domain's uplink is throttled
//! proportionally for the next window.
//!
//! Determinism (DESIGN.md §14): the arrival plan is a pure per-session
//! function of the spec ([`PlanSource`]), recomputed on demand from
//! per-session RNG streams and scheduled in session-index order — the
//! plan vector itself is never materialized; domains are atomic
//! single-threaded units; cross-domain state moves only at window
//! barriers, folded in domain order; results merge in session/domain
//! order. The artifact is therefore byte-identical at every `--jobs`
//! value and every shard count — `tests/fleet_determinism.rs` proves it,
//! and the fleet-of-1 lockstep test pins the composition layer to the
//! single-session engine.

mod driver;
mod report;

pub use driver::FleetSchedKnobs;

use crate::profiling::WorkloadProfile;
use crate::runner::{Lap, RunnerProfile};
use crate::setup::PlayerKind;
use abr_event::rng::SplitMix64;
use abr_event::time::Duration;
use abr_player::session::DeliveryMode;
use abr_player::SessionLog;
use serde_json::Value;

/// The policy mix cycled through arrivals (deterministically, from each
/// session's RNG stream): the §4 best-practice player plus the three
/// emulated production players — fleet distributions are only meaningful
/// over the heterogeneous player population a real CDN serves.
pub const POLICY_MIX: [PlayerKind; 4] = [
    PlayerKind::BestPractice,
    PlayerKind::ExoPlayer,
    PlayerKind::Shaka,
    PlayerKind::DashJs,
];

/// Trace length for per-session access-link draws (same horizon as the
/// `exp mc` corpus realizations).
pub(crate) const TRACE_SECS: u64 = 900;

/// Everything that defines one fleet run. The spec is the *only* input:
/// two equal specs produce byte-identical artifacts at any `--jobs` and
/// shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Number of sessions in the fleet.
    pub sessions: usize,
    /// Number of link domains (one shared cache + uplink each).
    pub domains: usize,
    /// Shard count: domain `d` belongs to shard `d % shards`. Shards are
    /// the unit of worker assignment; the artifact must not depend on
    /// this value (the determinism suite sweeps it).
    pub shards: usize,
    /// Catalog size: sessions pick one of this many titles.
    pub titles: usize,
    /// Zipf skew of title popularity (0 = uniform; ~1 = typical VoD).
    pub zipf_alpha: f64,
    /// Arrival window: sessions arrive uniformly in `[0, arrival_secs)`.
    pub arrival_secs: u64,
    /// Audio/video packaging for every session.
    pub delivery: DeliveryMode,
    /// Per-domain origin-uplink rate, Kbps.
    pub uplink_kbps: u64,
    /// Total origin egress capacity, Kbps (the window-sync throttle
    /// engages when fleet-wide miss demand exceeds it).
    pub origin_kbps: u64,
    /// Per-domain cache capacity, MB.
    pub cache_mb: u64,
    /// Extra origin round-trip paid by every cache miss, ms.
    pub miss_rtt_ms: u64,
    /// Window-sync period, ms: domains exchange state only this often.
    pub window_ms: u64,
    /// Per-session simulation deadline, seconds (bounds starved runs).
    pub deadline_secs: u64,
    /// Master seed for arrival realization and content synthesis.
    pub seed: u64,
}

impl FleetSpec {
    /// A small default topology: `sessions` sessions over 4 domains and
    /// a 12-title catalog with typical VoD skew. CLI flags and tests
    /// override fields from here.
    #[must_use]
    pub fn small(sessions: usize) -> FleetSpec {
        FleetSpec {
            sessions,
            domains: 4,
            shards: 4,
            titles: 12,
            zipf_alpha: 1.0,
            arrival_secs: 120,
            delivery: DeliveryMode::Demuxed,
            uplink_kbps: 40_000,
            origin_kbps: 100_000,
            cache_mb: 256,
            miss_rtt_ms: 60,
            window_ms: 250,
            deadline_secs: 1_800,
            seed: crate::setup::SEED,
        }
    }

    /// Rejects structurally impossible topologies with a message naming
    /// the offending field.
    pub fn check(&self) -> Result<(), String> {
        let rules: [(bool, &str); 10] = [
            (self.sessions > 0, "fleet needs at least one session"),
            (self.domains > 0, "fleet needs at least one domain"),
            (self.shards > 0, "fleet needs at least one shard"),
            (self.titles > 0, "catalog needs at least one title"),
            (
                self.zipf_alpha.is_finite() && self.zipf_alpha >= 0.0,
                "zipf alpha must be a finite non-negative number",
            ),
            (self.window_ms > 0, "window must be positive"),
            (self.uplink_kbps > 0, "dead origin: zero uplink rate"),
            (self.origin_kbps > 0, "dead origin: zero origin rate"),
            (self.cache_mb > 0, "zero-capacity cache"),
            (self.deadline_secs > 0, "zero deadline"),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some(&(_, msg)) => Err(msg.to_string()),
            None => Ok(()),
        }
    }

    /// Panics on structurally impossible topologies ([`FleetSpec::check`]).
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// One realized arrival: everything a worker needs to construct the
/// session, with no RNG left to draw. Plans are `Send`; the `!Send`
/// session parts (origin, link, policy, stepper) are built inside the
/// owning worker thread.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Fleet-wide session index (also the result merge key).
    pub index: usize,
    /// Owning link domain.
    pub domain: usize,
    /// Catalog title (content seed offset and cache namespace).
    pub title: usize,
    /// Player emulation for this session.
    pub kind: PlayerKind,
    /// Arrival offset into fleet time.
    pub arrival: Duration,
    /// Index into [`abr_net::corpus::all`] for the access-link trace.
    pub trace_index: usize,
    /// Seed for the trace realization.
    pub trace_seed: u64,
}

/// Cumulative Zipf distribution over `titles` ranks with skew `alpha`:
/// `cdf[k]` is the unnormalized mass of ranks `0..=k`.
fn zipf_cdf(titles: usize, alpha: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..titles)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            acc
        })
        .collect()
}

/// Streamed plan realization (DESIGN.md §15): the Zipf CDF and trace
/// corpus length are precomputed once; any session's plan is then
/// recomputed on demand from its own scheduling-blind RNG stream
/// ([`SplitMix64::for_stream`]) in O(log titles). The driver pulls plans
/// through this instead of an upfront `Vec<SessionPlan>`, so a
/// 100k-session fleet never materializes O(fleet) plan memory.
pub struct PlanSource {
    sessions: usize,
    domains: usize,
    titles: usize,
    arrival_secs: u64,
    seed: u64,
    cdf: Vec<f64>,
    total: f64,
    corpus_len: usize,
}

impl PlanSource {
    /// Precomputes the per-fleet draw tables from a validated spec.
    #[must_use]
    pub fn new(spec: &FleetSpec) -> PlanSource {
        spec.validate();
        let cdf = zipf_cdf(spec.titles, spec.zipf_alpha);
        let total = *cdf.last().expect("at least one title");
        PlanSource {
            sessions: spec.sessions,
            domains: spec.domains,
            titles: spec.titles,
            arrival_secs: spec.arrival_secs,
            seed: spec.seed,
            cdf,
            total,
            corpus_len: abr_net::corpus::LEN,
        }
    }

    /// Number of sessions in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions
    }

    /// Whether the fleet is empty (it never is: `validate` rejects it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions == 0
    }

    /// Recomputes session `i`'s plan: title popularity is Zipf over the
    /// catalog; arrivals are uniform over the window; the player kind
    /// cycles through [`POLICY_MIX`] by draw; domains assign round-robin
    /// by index so every domain sees the same arrival intensity. A pure
    /// function of `(spec, i)` — the draw order is part of the artifact
    /// contract.
    #[must_use]
    pub fn plan(&self, i: usize) -> SessionPlan {
        assert!(i < self.sessions, "plan index out of range");
        let mut rng = SplitMix64::for_stream(self.seed, i as u64);
        let u = rng.next_f64() * self.total;
        let title = self.cdf.partition_point(|&c| c < u).min(self.titles - 1);
        let arrival = Duration::from_micros(rng.below(self.arrival_secs.max(1) * 1_000_000));
        let kind = POLICY_MIX[rng.below(POLICY_MIX.len() as u64) as usize];
        let trace_index = rng.below(self.corpus_len as u64) as usize;
        let trace_seed = rng.next_u64();
        SessionPlan {
            index: i,
            domain: i % self.domains,
            title,
            kind,
            arrival,
            trace_index,
            trace_seed,
        }
    }

    /// All plans in index order, computed lazily.
    pub fn iter(&self) -> impl Iterator<Item = SessionPlan> + '_ {
        (0..self.sessions).map(|i| self.plan(i))
    }

    /// Sessions per title, in one O(sessions) pass — the only whole-plan
    /// aggregate the report layer needs.
    #[must_use]
    pub fn title_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.titles];
        for plan in self.iter() {
            counts[plan.title] += 1;
        }
        counts
    }
}

/// The result of one fleet run: the rendered report, the structured JSON
/// artifact, and (in test mode) the raw per-session logs.
pub struct FleetResult {
    /// Human-readable fleet report (the `exp fleet` stdout artifact).
    pub text: String,
    /// Structured report for `--json`.
    pub json: Value,
    /// Sessions run.
    pub sessions: usize,
    /// Per-session logs in session-index order, only when requested via
    /// [`run_fleet_with_logs`] (memory: a 10k-session fleet does not keep
    /// 10k logs alive by default).
    pub logs: Option<Vec<SessionLog>>,
}

/// Runs one fleet over `min(jobs, shards)` workers. Deterministic at
/// every `jobs` value and shard count.
#[must_use]
pub fn run_fleet(spec: &FleetSpec, jobs: usize) -> FleetResult {
    run_fleet_with(spec, jobs, FleetOptions::default()).0
}

/// [`run_fleet`] keeping every per-session [`SessionLog`] (the lockstep
/// parity and determinism tests compare them field-by-field).
#[must_use]
pub fn run_fleet_with_logs(spec: &FleetSpec, jobs: usize) -> FleetResult {
    let options = FleetOptions {
        keep_logs: true,
        ..FleetOptions::default()
    };
    run_fleet_with(spec, jobs, options).0
}

/// How [`run_fleet_with`] runs a fleet. No field reaches the report: the
/// artifact is byte-identical under every setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetOptions {
    /// Keep every per-session [`SessionLog`] in [`FleetResult::logs`].
    pub keep_logs: bool,
    /// Driver scheduling knobs; the fast-forward differential tests sweep
    /// [`FleetSchedKnobs::ff_horizon`] (including 0 = stepwise) here.
    pub knobs: FleetSchedKnobs,
    /// Self-profiling (`exp fleet --profile`): phase-level host time —
    /// plan realization, the windowed driver, report rendering — plus
    /// per-worker rows (sessions finished, drain + fold time as busy,
    /// barrier wait as claim, lifetime) and a peak-memory note.
    pub profile: bool,
}

/// The one fleet body: runs `spec` over `min(jobs, shards)` workers as
/// `options` asks and returns the report, plus a [`WorkloadProfile`]
/// when profiling.
#[must_use]
pub fn run_fleet_with(
    spec: &FleetSpec,
    jobs: usize,
    options: FleetOptions,
) -> (FleetResult, Option<WorkloadProfile>) {
    let setup = Lap::start(options.profile);
    let source = PlanSource::new(spec);
    let setup_ns = setup.ns();
    let wall = Lap::start(options.profile);
    let mut out = driver::run(
        spec,
        &source,
        jobs,
        options.keep_logs,
        options.knobs,
        options.profile,
    );
    let run_ns = wall.ns();
    let merge = Lap::start(options.profile);
    let (text, json) = report::render(spec, &source.title_counts(), &out);
    let profile = options.profile.then(|| {
        let pool = RunnerProfile {
            jobs: driver::effective_workers(spec, jobs, spec.sessions),
            items: spec.sessions as u64,
            run_ns,
            merge_ns: merge.ns(),
            wall_ns: wall.ns(),
            workers: std::mem::take(&mut out.workers),
            ..RunnerProfile::default()
        };
        let mut profile = WorkloadProfile::from_pool("fleet", setup_ns, pool);
        profile.notes.push(memory_note(spec, &out));
        profile
    });
    let logs = options.keep_logs.then(|| {
        out.outputs
            .into_iter()
            .map(|o| o.log.expect("keep_logs retains every log"))
            .collect()
    });
    let result = FleetResult {
        text,
        json,
        sessions: spec.sessions,
        logs,
    };
    (result, profile)
}

/// The peak-memory estimate (DESIGN.md §15): deterministic byte counts,
/// not allocator telemetry — what a live session holds (its QoE digest
/// and the access-link trace it owns, if its profile reads the seed) is
/// a pure function of the spec, peak-active is a driver counter, and the
/// shared corpus is sized from the content tables plus the fixed traces
/// every session shares, each counted once. Rendered as a profile note
/// so the fleet report artifact itself stays untouched.
fn memory_note(spec: &FleetSpec, out: &driver::DriverOutput) -> String {
    let sessions = spec.sessions.max(1) as u64;
    let fmt = crate::profiling::fmt_bytes;
    let mean_session = (out.digest_bytes + out.trace_bytes) / sessions;
    let peak_active: u64 = out.domains.iter().map(|d| d.peak_active as u64).sum();
    let peak_estimate = out.corpus_bytes + peak_active * mean_session;
    format!(
        "memory: ~{}/session (digest {} + trace {}; max {}) | shared corpus {} ({} titles, \
         {} traces) | est peak {} @ {} peak-active sessions",
        fmt(mean_session),
        fmt(out.digest_bytes / sessions),
        fmt(out.trace_bytes / sessions),
        fmt(out.session_bytes_max),
        fmt(out.corpus_bytes),
        spec.titles,
        abr_net::corpus::LEN - abr_net::corpus::SEEDED,
        fmt(peak_estimate),
        peak_active,
    )
}

/// The fleet-of-1 parity comparator: builds session `index` of the plan
/// exactly as the fleet driver would — same content cut, same trace draw,
/// same [`abr_httpsim::SharedEdge`] onto a fresh per-domain hub — but
/// drives it with plain [`abr_player::Session::run`] instead of the
/// windowed stepper loop. With the origin throttle disengaged (set
/// `origin_kbps` high enough that the window-sync rule never fires) a
/// 1-session fleet must produce a byte-identical [`SessionLog`]; the
/// differential test in `tests/fleet_determinism.rs` holds this.
#[must_use]
pub fn standalone_log(spec: &FleetSpec, index: usize) -> SessionLog {
    let plan = PlanSource::new(spec).plan(index);
    let scenario = crate::corpus::TitleScenario::build(spec.seed, plan.title);
    let hub = std::rc::Rc::new(std::cell::RefCell::new(driver::build_hub(spec)));
    let traces = abr_net::corpus::Corpus::new(Duration::from_secs(TRACE_SECS));
    let trace = driver::session_trace(&traces, &plan);
    driver::build_session(spec, &plan, &scenario, trace, hub).run()
}

/// Runs the same topology under demuxed and muxed packaging and renders
/// the head-to-head comparison — the paper's §1 CDN argument at fleet
/// scale: demuxed tracks let sessions with different audio choices share
/// video bytes, so the same cache yields a higher hit rate, a lighter
/// origin, and fewer contention stalls.
#[must_use]
pub fn run_fleet_comparison(spec: &FleetSpec, jobs: usize) -> FleetResult {
    let demuxed_spec = FleetSpec {
        delivery: DeliveryMode::Demuxed,
        ..spec.clone()
    };
    let muxed_spec = FleetSpec {
        delivery: DeliveryMode::Muxed,
        ..spec.clone()
    };
    let demuxed = run_fleet(&demuxed_spec, jobs);
    let muxed = run_fleet(&muxed_spec, jobs);
    let (text, json) = report::render_comparison(spec, &demuxed, &muxed);
    FleetResult {
        text,
        json,
        sessions: spec.sessions * 2,
        logs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn title_counts_match_the_plan() {
        let spec = FleetSpec {
            zipf_alpha: 0.8,
            ..FleetSpec::small(300)
        };
        let source = PlanSource::new(&spec);
        let counts = source.title_counts();
        assert_eq!(counts.iter().sum::<usize>(), spec.sessions);
        assert_eq!(counts[0], source.iter().filter(|p| p.title == 0).count());
    }

    #[test]
    fn realization_is_a_pure_function_of_the_spec() {
        let spec = FleetSpec::small(50);
        let (a, b) = (PlanSource::new(&spec), PlanSource::new(&spec));
        assert_eq!(a.iter().count(), 50);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.title, y.title);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.trace_seed, y.trace_seed);
        }
    }

    #[test]
    fn zipf_skew_concentrates_popularity() {
        let flat = FleetSpec {
            zipf_alpha: 0.0,
            ..FleetSpec::small(2_000)
        };
        let skewed = FleetSpec {
            zipf_alpha: 1.4,
            ..FleetSpec::small(2_000)
        };
        let head_share = |spec: &FleetSpec| {
            let source = PlanSource::new(spec);
            source.iter().filter(|p| p.title == 0).count() as f64 / source.len() as f64
        };
        let flat_share = head_share(&flat);
        let skewed_share = head_share(&skewed);
        assert!(
            skewed_share > flat_share + 0.1,
            "skew must concentrate the head title: {flat_share} vs {skewed_share}"
        );
    }

    #[test]
    fn tiny_fleet_runs_and_reports() {
        let spec = FleetSpec {
            arrival_secs: 10,
            ..FleetSpec::small(6)
        };
        let r = run_fleet(&spec, 1);
        assert_eq!(r.sessions, 6);
        assert!(r.logs.is_none());
        assert!(r.text.contains("fleet: 6 sessions"));
        assert_eq!(r.json["totals"]["sessions"], 6);
        let domains = r.json["domains"].as_array().unwrap();
        assert_eq!(domains.len(), spec.domains);
        let total_requests: u64 = domains
            .iter()
            .map(|d| d["hits"].as_u64().unwrap() + d["misses"].as_u64().unwrap())
            .sum();
        assert!(total_requests > 0, "sessions must exercise the caches");
    }

    #[test]
    fn arrivals_stay_inside_the_window() {
        let spec = FleetSpec::small(200);
        for p in PlanSource::new(&spec).iter() {
            assert!(p.arrival < Duration::from_secs(spec.arrival_secs));
            assert!(p.domain < spec.domains);
            assert!(p.title < spec.titles);
        }
    }

    #[test]
    fn the_small_topology_passes_the_check() {
        assert_eq!(FleetSpec::small(1).check(), Ok(()));
    }

    #[test]
    fn check_names_the_first_impossible_field() {
        let rejects = |spec: FleetSpec, msg: &str| assert_eq!(spec.check(), Err(msg.to_string()));
        let ok = FleetSpec::small(10);
        rejects(
            FleetSpec {
                sessions: 0,
                ..ok.clone()
            },
            "fleet needs at least one session",
        );
        rejects(
            FleetSpec {
                domains: 0,
                ..ok.clone()
            },
            "fleet needs at least one domain",
        );
        rejects(
            FleetSpec {
                shards: 0,
                ..ok.clone()
            },
            "fleet needs at least one shard",
        );
        rejects(
            FleetSpec {
                titles: 0,
                ..ok.clone()
            },
            "catalog needs at least one title",
        );
        rejects(
            FleetSpec {
                window_ms: 0,
                ..ok.clone()
            },
            "window must be positive",
        );
        rejects(
            FleetSpec {
                cache_mb: 0,
                ..ok.clone()
            },
            "zero-capacity cache",
        );
        rejects(
            FleetSpec {
                deadline_secs: 0,
                ..ok.clone()
            },
            "zero deadline",
        );
        // Two faults: the earlier rule is the one reported.
        rejects(
            FleetSpec {
                domains: 0,
                deadline_secs: 0,
                ..ok
            },
            "fleet needs at least one domain",
        );
    }

    #[test]
    fn check_rejects_a_dead_origin() {
        let ok = FleetSpec::small(10);
        for spec in [
            FleetSpec {
                uplink_kbps: 0,
                ..ok.clone()
            },
            FleetSpec {
                origin_kbps: 0,
                ..ok
            },
        ] {
            assert!(spec.check().unwrap_err().starts_with("dead origin"));
        }
    }

    #[test]
    fn check_rejects_negative_and_non_finite_skew() {
        for alpha in [-0.5, f64::NAN, f64::INFINITY] {
            let spec = FleetSpec {
                zipf_alpha: alpha,
                ..FleetSpec::small(10)
            };
            assert_eq!(
                spec.check(),
                Err("zipf alpha must be a finite non-negative number".to_string()),
                "alpha {alpha}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fleet needs at least one shard")]
    fn plan_source_validates_its_spec() {
        let _ = PlanSource::new(&FleetSpec {
            shards: 0,
            ..FleetSpec::small(10)
        });
    }

    #[test]
    #[should_panic(expected = "plan index out of range")]
    fn plans_stop_at_the_fleet_size() {
        let _ = PlanSource::new(&FleetSpec::small(3)).plan(3);
    }

    #[test]
    fn domains_are_assigned_round_robin() {
        let spec = FleetSpec::small(9);
        let domains: Vec<usize> = PlanSource::new(&spec).iter().map(|p| p.domain).collect();
        assert_eq!(domains, [0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn zipf_cdf_is_cumulative_and_flat_without_skew() {
        let cdf = zipf_cdf(4, 0.0);
        assert_eq!(cdf, [1.0, 2.0, 3.0, 4.0]);
        let skewed = zipf_cdf(3, 1.0);
        assert!((skewed[2] - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }
}
