//! The five workloads: their inputs, their world-building call (timed as
//! `setup_s`) and one iteration of the work (timed as `wall_s`).

use crate::stats::Fnv1a;
use abr_bench::corpus::{ScenarioCorpus, TitleCorpus};
use abr_bench::fleet::{self, FleetSpec, PlanSource};
use abr_bench::{experiments, mc, setup};
use abr_event::time::Duration;
use abr_player::session::DeliveryMode;
use serde_json::Value;
use std::hint::black_box;

/// Trace length of the `exp mc` corpus realizations (the private
/// `TRACE_SECS` of `abr_bench::mc`; the mc replica's row check pins it).
pub const MC_TRACE_SECS: u64 = 900;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper experiment (`exp --all`).
    PaperAll,
    /// The Monte Carlo sweep (`exp mc`).
    Mc,
    /// A fleet whose sessions all overlap.
    FleetDense,
    /// A fleet whose arrivals spread over an hour.
    FleetSparse,
    /// The dense fleet under muxed delivery.
    FleetMuxed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperAll,
        Workload::Mc,
        Workload::FleetDense,
        Workload::FleetSparse,
        Workload::FleetMuxed,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper_all",
            Workload::Mc => "mc",
            Workload::FleetDense => "fleet_dense",
            Workload::FleetSparse => "fleet_sparse",
            Workload::FleetMuxed => "fleet_muxed",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload at a seed and input size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// `FleetSpec::seed` for the fleets. `paper_all` and `mc` take their
    /// seeds from `abr_bench::setup::SEED` inside the program.
    pub seed: u64,
    /// Tiny inputs, for a quick end-to-end check of the benchmark itself.
    pub smoke: bool,
}

impl Config {
    /// `full`, or `tiny` under `--smoke`.
    pub fn size<T>(&self, full: T, tiny: T) -> T {
        if self.smoke {
            tiny
        } else {
            full
        }
    }

    /// Realizations of the mc sweep (49 sessions each).
    pub fn mc_seeds(&self) -> u64 {
        self.size(100, 1)
    }

    /// The fleet spec of a fleet workload; `None` for the others.
    pub fn fleet_spec(&self) -> Option<FleetSpec> {
        let dense = |sessions: usize| FleetSpec {
            domains: 8,
            shards: 8,
            seed: self.seed,
            ..FleetSpec::small(sessions)
        };
        match self.workload {
            Workload::PaperAll | Workload::Mc => None,
            Workload::FleetDense => Some(dense(self.size(2000, 96))),
            Workload::FleetSparse => Some(FleetSpec {
                arrival_secs: self.size(3600, 600),
                ..dense(self.size(500, 32))
            }),
            Workload::FleetMuxed => Some(FleetSpec {
                delivery: DeliveryMode::Muxed,
                ..dense(self.size(2000, 96))
            }),
        }
    }

    /// What one op is, for the report.
    pub fn op_name(&self) -> &'static str {
        match self.workload {
            Workload::PaperAll => "experiment",
            _ => "session",
        }
    }
}

/// The artifacts one iteration produced: rendered text plus JSON per
/// experiment (one part for `mc` and the fleets), and the op count.
pub struct Artifact {
    /// `(text, json)` per result, in run order.
    pub parts: Vec<(String, Value)>,
    /// Ops completed (experiments or sessions).
    pub ops: u64,
}

impl Artifact {
    /// The digest of `parts`.
    pub fn digest(&self) -> u64 {
        digest(&self.parts)
    }
}

/// FNV-1a over every part's text and compact JSON.
pub fn digest(parts: &[(String, Value)]) -> u64 {
    let mut h = Fnv1a::default();
    for (text, json) in parts {
        h.write(text.as_bytes());
        h.write(
            serde_json::to_string(json)
                .expect("JSON renders")
                .as_bytes(),
        );
    }
    h.finish()
}

/// The workload's world-building call: content, manifest views, trace
/// corpora and arrival tables, built and dropped.
pub fn build_world(cfg: &Config) {
    match cfg.workload {
        Workload::PaperAll => {
            let content = setup::drama();
            black_box((setup::dash_view(&content), setup::hls_all_view(&content)));
        }
        Workload::Mc => {
            black_box(ScenarioCorpus::build_mc(
                cfg.mc_seeds(),
                Duration::from_secs(MC_TRACE_SECS),
            ));
        }
        _ => {
            let spec = cfg.fleet_spec().expect("fleet workload");
            black_box((
                PlanSource::new(&spec),
                TitleCorpus::build(spec.seed, spec.titles),
            ));
        }
    }
}

/// One iteration of the workload at `jobs` workers.
pub fn run_iteration(cfg: &Config, jobs: usize) -> Artifact {
    match cfg.workload {
        Workload::PaperAll => {
            let parts: Vec<(String, Value)> = experiments::all_ids()
                .into_iter()
                .map(|id| {
                    let r = experiments::run_jobs(id, jobs).expect("listed experiment id");
                    (r.text, r.json)
                })
                .collect();
            let ops = parts.len() as u64;
            Artifact { parts, ops }
        }
        Workload::Mc => {
            let r = mc::run_mc(cfg.mc_seeds(), jobs);
            Artifact {
                ops: r.sessions as u64,
                parts: vec![(r.text, r.json)],
            }
        }
        _ => {
            let r = fleet::run_fleet(&cfg.fleet_spec().expect("fleet workload"), jobs);
            Artifact {
                ops: r.sessions as u64,
                parts: vec![(r.text, r.json)],
            }
        }
    }
}
