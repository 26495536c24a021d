//! # abr-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper (see DESIGN.md §7 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured results).
//!
//! * [`setup`] — canonical content, manifests (round-tripped through their
//!   textual forms, so every experiment exercises the full
//!   build→serialize→parse→bind pipeline), player configurations and
//!   session runners.
//! * [`corpus`] — the shared scenario corpus (DESIGN.md §15): per-
//!   realization content cuts, round-tripped manifest views and trace
//!   corpora built once and `Arc`-shared across every session, worker
//!   and origin that streams them.
//! * [`report`] — fixed-width tables and ASCII time-series plots.
//! * [`experiments`] — one function per experiment id (`t1`…`m1`);
//!   [`experiments::run`] dispatches by id, the `exp` binary is the CLI.
//! * [`runner`] — the deterministic parallel sweep engine: a scoped-thread
//!   worker pool that shards session specs across `min(jobs, cores)`
//!   workers and merges results in spec order, proven bit-identical to
//!   serial by `tests/parallel_determinism.rs`.
//! * [`profiling`] — the self-profiling surface behind `exp --profile`:
//!   merges per-session span trees with the pool's phase/worker
//!   accounting into a [`profiling::WorkloadProfile`] (text table + JSON
//!   artifact). Host-time telemetry only; never feeds artifacts.
//! * [`history`] — the append-only `BENCH.json` history that
//!   `scripts/bench_record.sh` fills from `benchmark/run.sh`, and the
//!   `bench_check` gate over `BENCHMARK.json`'s end-to-end bounds.
//! * [`fleet`] — the shared-fate fleet engine behind `exp fleet`: many
//!   sessions over contended link domains (shared CDN cache + origin
//!   uplink), sharded over workers with conservative window sync, byte-
//!   identical at every `--jobs` and shard count (DESIGN.md §14).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod experiments;
pub mod fleet;
pub mod history;
pub mod mc;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod setup;
