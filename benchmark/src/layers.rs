//! The traced pass: per-layer metrics, timed from outside the program
//! around calls into each layer's public functions. Times are in
//! recording-host units, like the end-to-end metrics (see `measure`).
//!
//! Every trace run reports every per-layer metric. A layer the workload
//! exercises is measured on the workload's own work. The two layers that
//! `paper_all` and `mc` never reach — the fleet driver and the shared
//! cache/uplink hub — are measured on a small probe fleet there; the
//! per-arm policy shares and the mc per-event baseline come from a small
//! mc probe on the workloads other than `mc`. The layer drills (manifest,
//! trace corpus, experiments) run on every workload.

use crate::measure::{self, timed_call, HostClock, Timed, JOBS};
use crate::replay::replay_hubs;
use crate::sessions::{self, McReplica, SessionSet};
use crate::stats::{median, percentile, tail_percentile};
use crate::timed_policy::timer_overhead_ns;
use crate::workloads::{self, Artifact, Config, Workload, MC_TRACE_SECS};
use abr_bench::corpus::TitleCorpus;
use abr_bench::experiments;
use abr_bench::fleet::{self, FleetSpec, PlanSource};
use abr_bench::mc::mc_policies;
use abr_bench::setup;
use abr_event::time::Duration;
use abr_media::content::Content;
use std::hint::black_box;
use std::time::Instant;

/// The mc link replay covers every this-many-th session (817 of 4900);
/// coprime with the 7 arms, so every arm is sampled alike.
const MC_REPLAY_EVERY: usize = 6;

/// A metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// What the traced pass produced.
#[derive(Default)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Checks that failed (empty when the traced pass agrees with the
    /// program everywhere).
    pub failures: Vec<String>,
    /// Human-readable notes for the report.
    pub notes: Vec<String>,
}

impl Traced {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Median recording-host ns of `reps` calls of `f`.
fn median_ns<T>(host: &mut HostClock, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let scale = host.scale();
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64 * scale
        })
        .collect();
    median(&times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the traced pass for `cfg`, after its untraced phase `timed`.
pub fn traced_pass(cfg: &Config, timed: &Timed, drill_reps: usize) -> Traced {
    let mut out = Traced::default();
    let timer_ns = timer_overhead_ns();
    out.notes.push(format!(
        "timer pair {timer_ns:.1} ns, taken off each policy call"
    ));
    let experiment_reps = cfg.size(5, 1);

    // The workload's own traced run comes first, right after the warm
    // jobs-1 reference; a second reference is taken right after it, and
    // the untraced time it is compared with is the mean of the two, so
    // host drift across the traced run cancels. player, core and
    // net.link on the workload's own sessions; the mc grid (the
    // workload's own, or the probe) for the per-arm shares.
    let after = || {
        let runs = measure::jobs1_runs(cfg, timed.reference_digest);
        let ok = runs.iter().all(|r| r.1);
        let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
        ((timed.reference_s + median(&walls)) / 2.0, ok)
    };
    let mc_probe_seeds = cfg.size(3, 1);
    let mut reference = (timed.reference_s, true);
    let mut fleet_ns_per_event = None;
    let (mc, own, serial_work_ns, traced_s) = match cfg.workload {
        Workload::Mc => {
            let replica = sessions::mc_replica(cfg.mc_seeds(), Some(MC_REPLAY_EVERY));
            reference = after();
            check_mc_rows(&mut out, &replica.rows, &timed.reference);
            let (work, traced_s) = (total_wall_ns(&replica.set), replica.wall_ns / 1e9);
            (replica, None, work, traced_s)
        }
        Workload::PaperAll => {
            let experiments_ms = experiments_drill(&mut out, experiment_reps);
            reference = after();
            let own = sessions::paper_replica(cfg.size(5, 1));
            let mc = sessions::mc_replica(mc_probe_seeds, None);
            (mc, Some(own), experiments_ms * 1e6, experiments_ms / 1e3)
        }
        Workload::FleetDense | Workload::FleetSparse | Workload::FleetMuxed => {
            let spec = cfg.fleet_spec().expect("fleet workload");
            let every = if cfg.workload == Workload::FleetSparse {
                1
            } else {
                4
            };
            let fleet = fleet_layers(&mut out, &spec, timed.reference_digest, every, || {
                reference = after();
                reference.0
            });
            fleet_ns_per_event = Some(fleet.ns_per_event);
            let sampled = fleet.replicas.samples.len() as f64;
            let work = total_wall_ns(&fleet.replicas) * spec.sessions as f64 / sampled;
            let mc = sessions::mc_replica(mc_probe_seeds, None);
            (mc, Some(fleet.replicas), work, fleet.traced_s)
        }
    };
    let (reference_s, reference_ok) = reference;
    out.check(reference_ok, || {
        "a jobs-1 reference iteration differs from the first".to_string()
    });
    layer_drills(&mut out, cfg, drill_reps);
    if cfg.workload != Workload::PaperAll {
        experiments_drill(&mut out, experiment_reps);
    }
    out.failures.extend(mc.set.failures.iter().cloned());
    if let Some(own) = &own {
        out.failures.extend(own.failures.iter().cloned());
    }
    let set = own.as_ref().unwrap_or(&mc.set);
    session_metrics(&mut out, set, timer_ns);
    arm_metrics(&mut out, &mc, timer_ns);

    // bench.runner: the parallel layer of the timed iterations (the
    // fleet driver's workers on the fleets).
    out.put("runner.speedup_j2", "x", reference_s / timed.wall_s);
    out.put(
        "runner.busy_frac",
        "frac",
        serial_work_ns / (JOBS as f64 * timed.wall_s * 1e9),
    );

    let fleet_ns_per_event = fleet_ns_per_event.unwrap_or_else(|| probe_fleet(&mut out, cfg));
    out.put(
        "fleet.event_cost_vs_mc",
        "x",
        ratio(fleet_ns_per_event, ns_per_event(&mc.set)),
    );
    out.put("trace.overhead_frac", "frac", traced_s / reference_s - 1.0);
    out
}

/// manifest and net.corpus drills on the workload's content seed.
fn layer_drills(out: &mut Traced, cfg: &Config, reps: usize) {
    let seed = cfg.fleet_spec().map_or(setup::SEED, |s| s.seed);
    let content = Content::drama_show(seed);
    let host = &mut HostClock::new();
    let us = |ns: f64| ns / 1e3;
    out.put(
        "manifest.dash_view_us",
        "us",
        us(median_ns(host, reps, || setup::dash_view(&content))),
    );
    out.put(
        "manifest.hls_view_us",
        "us",
        us(median_ns(host, reps, || setup::hls_all_view(&content))),
    );
    let len = Duration::from_secs(MC_TRACE_SECS);
    out.put(
        "corpus.trace_all_us",
        "us",
        us(median_ns(host, reps, || abr_net::corpus::all(len, seed))),
    );
}

/// bench.experiments: every experiment serially at jobs 1, median of
/// `reps` per experiment. Returns the summed ms.
fn experiments_drill(out: &mut Traced, reps: usize) -> f64 {
    let host = &mut HostClock::new();
    let mut per_id: Vec<(&str, f64)> = experiments::all_ids()
        .into_iter()
        .map(|id| {
            let ns = median_ns(host, reps, || experiments::run_jobs(id, 1));
            (id, ns / 1e6)
        })
        .collect();
    let total_ms: f64 = per_id.iter().map(|&(_, ms)| ms).sum();
    let ms_of = |id: &str| {
        per_id
            .iter()
            .find(|(i, _)| *i == id)
            .map_or(0.0, |&(_, ms)| ms)
    };
    out.put("experiments.total_ms", "ms", total_ms);
    out.put("experiments.bp5_ms", "ms", ms_of("bp5"));
    out.put("experiments.bp1_ms", "ms", ms_of("bp1"));
    per_id.sort_by(|a, b| b.1.total_cmp(&a.1));
    let heaviest: Vec<String> = per_id
        .iter()
        .take(5)
        .map(|(id, ms)| format!("{id} {ms:.2} ms"))
        .collect();
    out.notes.push(format!(
        "experiments, serial median of {reps}: {}",
        heaviest.join(", ")
    ));
    total_ms
}

/// `run_mc`'s `mean_score` rows must equal the replica's exactly.
fn check_mc_rows(out: &mut Traced, rows: &[f64], reference: &Artifact) {
    let program: Vec<f64> = reference.parts[0].1["rows"]
        .as_array()
        .expect("mc JSON has rows")
        .iter()
        .map(|row| row["mean_score"].as_f64().expect("mean_score is a number"))
        .collect();
    let matched = program.iter().zip(rows).filter(|(a, b)| a == b).count();
    let equal = program.len() == rows.len() && matched == rows.len();
    out.check(equal, || {
        format!("mc replica matches {matched}/{} run_mc rows", program.len())
    });
    out.notes.push(format!(
        "mc replica: {matched}/{} rows equal run_mc",
        program.len()
    ));
}

/// The set's summed session time, ns.
fn total_wall_ns(set: &SessionSet) -> f64 {
    set.samples.iter().map(|s| s.wall_ns).sum()
}

/// Session ns per dispatched event.
fn ns_per_event(set: &SessionSet) -> f64 {
    let events: u64 = set.samples.iter().map(|s| s.events).sum();
    ratio(total_wall_ns(set), events as f64)
}

/// player.*, policy.* and link.* over a session set.
fn session_metrics(out: &mut Traced, set: &SessionSet, timer_ns: f64) {
    let wall = total_wall_ns(set);
    let events: u64 = set.samples.iter().map(|s| s.events).sum();
    let ms: Vec<f64> = set.samples.iter().map(|s| s.wall_ns / 1e6).collect();
    let tail = tail_percentile(ms.len()).unwrap_or(100.0);
    out.notes.push(format!(
        "player: {} traced session runs; session_ms_tail is p{tail}",
        ms.len()
    ));
    out.put("player.events", "count", events as f64);
    out.put("player.ns_per_event", "ns", ns_per_event(set));
    out.put("player.session_ms_p50", "ms", median(&ms));
    out.put("player.session_ms_tail", "ms", percentile(&ms, tail));

    let (mut select_ns, mut transfer_ns, mut selects, mut transfers) = (0.0, 0.0, 0, 0);
    for s in &set.samples {
        select_ns += s.clock.select.net_ns(timer_ns) * s.scale;
        transfer_ns += s.clock.transfer.net_ns(timer_ns) * s.scale;
        selects += s.clock.select.calls.get();
        transfers += s.clock.transfer.calls.get();
    }
    let policy_frac = ratio(select_ns + transfer_ns, wall);
    out.put("policy.select_calls", "count", selects as f64);
    out.put("policy.select_ns", "ns", ratio(select_ns, selects as f64));
    out.put(
        "policy.on_transfer_ns",
        "ns",
        ratio(transfer_ns, transfers as f64),
    );
    out.put("policy.frac", "frac", policy_frac);

    let link = set.link;
    let link_frac = ratio(link.link_ns, link.session_ns);
    out.put("link.flows", "count", link.flows as f64);
    out.put(
        "link.ns_per_flow",
        "ns",
        ratio(link.link_ns, link.flows as f64),
    );
    out.put("link.frac", "frac", link_frac);
    out.put(
        "link.replay_exact_frac",
        "frac",
        ratio(link.exact as f64, link.flows as f64),
    );
    out.check(link.exact == link.flows, || {
        format!(
            "link replay reproduced {}/{} completion instants",
            link.exact, link.flows
        )
    });
    out.put("player.engine_frac", "frac", 1.0 - policy_frac - link_frac);
}

/// policy.<arm>.frac over an mc grid replica.
fn arm_metrics(out: &mut Traced, mc: &McReplica, timer_ns: f64) {
    for (p, arm) in mc_policies().iter().enumerate() {
        let (mut policy_ns, mut wall_ns) = (0.0, 0.0);
        for (s, _) in mc
            .set
            .samples
            .iter()
            .zip(&mc.arms)
            .filter(|&(_, &a)| a == p)
        {
            let clock = &s.clock;
            policy_ns +=
                (clock.select.net_ns(timer_ns) + clock.transfer.net_ns(timer_ns)) * s.scale;
            wall_ns += s.wall_ns;
        }
        out.put(
            &format!("policy.{}.frac", arm.label()),
            "frac",
            ratio(policy_ns, wall_ns),
        );
    }
}

/// What `fleet_layers` hands back.
struct FleetLayers {
    replicas: SessionSet,
    traced_s: f64,
    ns_per_event: f64,
}

/// The probe fleet for a workload without one: `fleet_layers` against
/// the mean of untraced jobs-1 runs just before and just after its
/// traced run. Returns its ns per event.
fn probe_fleet(out: &mut Traced, cfg: &Config) -> f64 {
    let spec = FleetSpec {
        seed: cfg.seed,
        ..FleetSpec::small(cfg.size(64, 16))
    };
    let (r, before_s) = timed_call(|| fleet::run_fleet(&spec, 1));
    let digest = workloads::digest(&[(r.text, r.json)]);
    out.notes.push(format!(
        "fleet.*, cache.*, uplink.*, hub.*: probe fleet of {} sessions",
        spec.sessions
    ));
    let reference = || (before_s + timed_call(|| fleet::run_fleet(&spec, 1)).1) / 2.0;
    fleet_layers(out, &spec, digest, 1, reference).ns_per_event
}

/// bench.fleet, httpsim.cache and net.uplink for one fleet: the jobs-1
/// run keeping logs (its artifact must equal the untraced reference),
/// the fleet-wide hub replay, and standalone replicas of every
/// `every`-th session for the per-event cost outside the fleet driver.
/// `reference` runs right after the traced run and returns the untraced
/// jobs-1 seconds to compare it with.
fn fleet_layers(
    out: &mut Traced,
    spec: &FleetSpec,
    reference_digest: u64,
    every: usize,
    reference: impl FnOnce() -> f64,
) -> FleetLayers {
    let (traced, traced_s) = timed_call(|| fleet::run_fleet_with_logs(spec, 1));
    let reference_s = reference();
    let logs = traced.logs.expect("run_fleet_with_logs keeps logs");
    let totals = traced.json["totals"].clone();
    let digest = workloads::digest(&[(traced.text, traced.json)]);
    out.check(digest == reference_digest, || {
        "traced fleet artifact differs from the untraced reference".to_string()
    });

    let total = |key: &str| totals[key].as_f64().expect("fleet totals are numbers");
    let events: u64 = logs.iter().map(|l| l.buffer_samples.len() as u64).sum();
    let per_event = reference_s * 1e9 / events as f64;
    out.put("fleet.events", "count", events as f64);
    out.put("fleet.windows", "count", total("windows"));
    out.put(
        "fleet.throttled_windows",
        "count",
        total("throttled_windows"),
    );
    out.put("fleet.ns_per_event", "ns", per_event);
    out.put(
        "fleet.us_per_window",
        "us",
        reference_s * 1e6 / total("windows"),
    );
    out.put("cache.hits", "count", total("hits"));
    out.put("cache.misses", "count", total("misses"));
    out.put("cache.evictions", "count", total("evictions"));
    out.put("cache.hit_ratio", "frac", total("hit_ratio"));
    out.put("uplink.origin_bytes", "B", total("origin_bytes"));

    let source = PlanSource::new(spec);
    let titles = TitleCorpus::build(spec.seed, spec.titles);
    let hub = replay_hubs(spec, &source, &titles, &logs);
    drop(logs);
    let (hits, misses) = (total("hits"), total("misses"));
    let off = (hub.hits as f64 - hits).abs() + (hub.misses as f64 - misses).abs();
    let agree = 1.0 - off / (hits + misses);
    out.put("hub.requests", "count", hub.requests as f64);
    out.put(
        "hub.ns_per_request",
        "ns",
        ratio(hub.ns, hub.requests as f64),
    );
    out.put("hub.frac", "frac", hub.ns / (reference_s * 1e9));
    out.put("hub.replay_agree_frac", "frac", agree);
    out.check(agree >= 0.999, || {
        format!("hub replay agrees on {agree:.6} of requests")
    });
    out.notes.push(format!(
        "hub replay: {} requests; hits {} vs {hits}, misses {} vs {misses}",
        hub.requests, hub.hits, hub.misses
    ));

    let mut replicas = sessions::fleet_replicas(spec, &source, &titles, every);
    out.failures.append(&mut replicas.set.failures);
    let draws = &replicas.trace_nth_ns;
    out.put(
        "corpus.trace_nth_us",
        "us",
        draws.iter().sum::<f64>() / draws.len() as f64 / 1e3,
    );
    out.put(
        "fleet.driver_ns_per_event",
        "ns",
        per_event - ns_per_event(&replicas.set),
    );
    out.notes.push(format!(
        "fleet: {} standalone replicas (every {every}); traced run {traced_s:.3} s, \
         reference {reference_s:.3} s",
        replicas.set.samples.len()
    ));
    FleetLayers {
        replicas: replicas.set,
        traced_s,
        ns_per_event: per_event,
    }
}
