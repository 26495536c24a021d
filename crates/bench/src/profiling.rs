//! Rendering the self-profiling layer: one [`WorkloadProfile`] per
//! profiled CLI run (`exp --id <id> --profile`, `exp mc --profile`),
//! combining the sweep pool's phase/worker accounting
//! ([`crate::runner::RunnerProfile`]) with the merged per-session span
//! tree ([`abr_obs::ProfileReport`]). Two renderings: a human-readable
//! self/total-time table ([`WorkloadProfile::text`]) and a JSON artifact
//! ([`WorkloadProfile::json`]) the CI bench matrix uploads.
//!
//! Everything here is host-time telemetry. None of it feeds simulation
//! artifacts, so numbers vary run to run while the accompanying session
//! outputs stay byte-identical (DESIGN.md §13).

use abr_obs::metrics::HistogramSnapshot;
use abr_obs::profile::fmt_ns;
use abr_obs::{ProfileReport, SpanNode};

use crate::runner::{RunnerProfile, WorkerStats};

/// Where a profiled workload's host time went: pool phases, per-worker
/// utilization, the per-session wall-time distribution, and the merged
/// span call tree.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload label (`mc`, or the experiment id).
    pub workload: String,
    /// Workers the pool used.
    pub jobs: usize,
    /// Sessions dispatched.
    pub sessions: u64,
    /// End-to-end host time of the profiled run (spec build + pool).
    pub wall_ns: u64,
    /// Spec/grid construction time before the pool started.
    pub setup_ns: u64,
    /// Pool spawn time.
    pub spawn_ns: u64,
    /// Pool run time (claim + job execution, bounded by slowest worker).
    pub run_ns: u64,
    /// Index-order reassembly + span/metrics merge time.
    pub merge_ns: u64,
    /// Per-worker accounting, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Per-session host wall time distribution.
    pub session_wall: HistogramSnapshot,
    /// Merged span tree across all sessions (spec order).
    pub spans: ProfileReport,
    /// Workload-specific annotation lines (e.g. the fleet peak-memory
    /// estimate), rendered verbatim after the session-wall line.
    pub notes: Vec<String>,
}

/// Human-readable byte count: `B`/`KB`/`MB`/`GB` with one decimal above
/// bytes. Deterministic formatting for deterministic estimates.
#[must_use]
pub fn fmt_bytes(n: u64) -> String {
    if n < 1_000 {
        format!("{n} B")
    } else if n < 1_000_000 {
        format!("{:.1} KB", n as f64 / 1e3)
    } else if n < 1_000_000_000 {
        format!("{:.1} MB", n as f64 / 1e6)
    } else {
        format!("{:.1} GB", n as f64 / 1e9)
    }
}

impl WorkloadProfile {
    /// Assembles a workload profile from the pool's accounting plus the
    /// caller-measured spec-construction time.
    pub fn from_pool(
        workload: impl Into<String>,
        setup_ns: u64,
        pool: RunnerProfile,
    ) -> WorkloadProfile {
        WorkloadProfile {
            workload: workload.into(),
            jobs: pool.jobs,
            sessions: pool.items,
            wall_ns: setup_ns + pool.wall_ns,
            setup_ns,
            spawn_ns: pool.spawn_ns,
            run_ns: pool.run_ns,
            merge_ns: pool.merge_ns,
            workers: pool.workers,
            session_wall: pool.item_wall,
            spans: pool.spans,
            notes: Vec::new(),
        }
    }

    /// Fraction of summed per-session host time attributed to named
    /// spans. The acceptance bar for the instrumented workloads is
    /// ≥ 0.95 (DESIGN.md §13).
    pub fn attributed(&self) -> f64 {
        self.spans.attributed()
    }

    /// The human-readable rendering: phase summary, worker utilization,
    /// per-session wall quantiles, then the span self/total-time table
    /// with the hottest spans.
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} ({} sessions, {} jobs)\n",
            self.workload, self.sessions, self.jobs
        ));
        out.push_str(&format!(
            "phases: setup {} | spawn {} | run {} | merge {} | wall {}\n",
            fmt_ns(self.setup_ns),
            fmt_ns(self.spawn_ns),
            fmt_ns(self.run_ns),
            fmt_ns(self.merge_ns),
            fmt_ns(self.wall_ns),
        ));
        out.push_str(&format!(
            "{:<8} {:>6} {:>10} {:>10} {:>10} {:>6}\n",
            "worker", "items", "busy", "claim", "alive", "util%"
        ));
        for w in &self.workers {
            let util = if w.alive_ns == 0 {
                0.0
            } else {
                100.0 * w.busy_ns as f64 / w.alive_ns as f64
            };
            out.push_str(&format!(
                "{:<8} {:>6} {:>10} {:>10} {:>10} {:>5.1}%\n",
                w.worker,
                w.items,
                fmt_ns(w.busy_ns),
                fmt_ns(w.claim_ns),
                fmt_ns(w.alive_ns),
                util,
            ));
        }
        let q = |p: f64| {
            self.session_wall
                .quantile(p)
                .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64))
        };
        out.push_str(&format!(
            "session wall: p50 {} | p90 {} | p99 {} (n = {})\n",
            q(0.50),
            q(0.90),
            q(0.99),
            self.session_wall.count,
        ));
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&self.spans.table());
        out
    }

    /// The JSON artifact (`exp ... --profile-json`): every field of the
    /// text rendering, machine-readable, spans as a recursive tree.
    pub fn json(&self) -> serde_json::Value {
        fn span_json(node: &SpanNode) -> serde_json::Value {
            serde_json::json!({
                "name": node.name,
                "count": node.count,
                "total_ns": node.total_ns,
                "self_ns": node.self_ns,
                "p50_ns": node.durations.quantile(0.50),
                "p90_ns": node.durations.quantile(0.90),
                "p99_ns": node.durations.quantile(0.99),
                "children": node.children.iter().map(span_json).collect::<Vec<_>>(),
            })
        }
        serde_json::json!({
            "format": "abr-profile-v1",
            "workload": self.workload,
            "jobs": self.jobs,
            "sessions": self.sessions,
            "wall_ns": self.wall_ns,
            "phases": serde_json::json!({
                "setup_ns": self.setup_ns,
                "spawn_ns": self.spawn_ns,
                "run_ns": self.run_ns,
                "merge_ns": self.merge_ns,
            }),
            "workers": self.workers.iter().map(|w| serde_json::json!({
                "worker": w.worker,
                "items": w.items,
                "claim_ns": w.claim_ns,
                "busy_ns": w.busy_ns,
                "alive_ns": w.alive_ns,
            })).collect::<Vec<_>>(),
            "session_wall_ns": serde_json::json!({
                "count": self.session_wall.count,
                "p50": self.session_wall.quantile(0.50),
                "p90": self.session_wall.quantile(0.90),
                "p99": self.session_wall.quantile(0.99),
                "max": self.session_wall.max,
            }),
            "notes": self.notes,
            "attributed": self.attributed(),
            "span_wall_ns": self.spans.wall_ns,
            "spans": self.spans.roots.iter().map(span_json).collect::<Vec<_>>(),
            "hot": self.spans.hot(5).iter().map(|(path, self_ns)| serde_json::json!({
                "path": path,
                "self_ns": self_ns,
            })).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_pool;

    fn sample() -> WorkloadProfile {
        let (_, pool) = run_pool(4, 2, 1, None, true, |i, prof| {
            let prof = prof.expect("profiled run");
            let _s = prof.span("session.run");
            let _d = prof.span("dispatch.transfer_complete");
            i
        });
        WorkloadProfile::from_pool("test", 123, pool.expect("profiled run"))
    }

    #[test]
    fn text_names_phases_workers_and_spans() {
        let p = sample();
        let text = p.text();
        assert!(text.contains("profile: test (4 sessions, 2 jobs)"));
        assert!(text.contains("phases: setup"));
        assert!(text.contains("session.run"));
        assert!(text.contains("dispatch.transfer_complete"));
        assert!(text.contains("hot spans by self time:"));
        assert!(text.contains("session wall: p50"));
    }

    #[test]
    fn json_is_versioned_and_recursive() {
        let p = sample();
        let v = p.json();
        assert_eq!(v["format"], "abr-profile-v1");
        assert_eq!(v["sessions"], 4);
        assert_eq!(v["spans"][0]["name"], "session.run");
        assert_eq!(
            v["spans"][0]["children"][0]["name"],
            "dispatch.transfer_complete"
        );
        assert!(v["hot"].as_array().is_some_and(|h| !h.is_empty()));
    }

    #[test]
    fn fmt_bytes_switches_units_at_each_thousand() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(999), "999 B");
        assert_eq!(fmt_bytes(1_000), "1.0 KB");
        assert_eq!(fmt_bytes(1_250_000), "1.2 MB");
        assert_eq!(fmt_bytes(3_000_000_000), "3.0 GB");
    }
}
