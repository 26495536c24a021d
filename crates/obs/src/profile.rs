//! Hierarchical span profiler: where the simulator's host time goes.
//!
//! PR 1's tracer records *what the simulation did*; this module records
//! *what it cost*. Instrumented code opens named spans through
//! [`crate::ObsHandle::span`] and the profiler aggregates them into a call
//! tree keyed by `(parent, name)`: per node it keeps the invocation count,
//! inclusive (total) time, exclusive (self) time and a duration histogram,
//! all in host nanoseconds. The design rules (DESIGN.md §13):
//!
//! * **Zero cost when off.** Without an attached profiler,
//!   `ObsHandle::span` is one branch returning an inert guard — the same
//!   contract as the tracer's `emit`, pinned by the `obs_overhead`
//!   ablation bench.
//! * **Clock confinement.** The monotonic host clock is read only through
//!   [`crate::tracer::HostStopwatch`], the designated host-timing module,
//!   so the `ABR-L002` lint allowlist stays a single file.
//! * **Never perturbs artifacts.** Profiling writes nothing into traces,
//!   metrics, or session logs; goldens and `parallel_determinism` hold
//!   byte-identical with profiling on
//!   (`crates/bench/tests/profile_determinism.rs`).
//! * **Robust to drop order.** Spans are RAII guards. Guards normally
//!   drop LIFO, but a guard dropped out of order force-closes every span
//!   nested inside it, and a guard whose span was already force-closed is
//!   a no-op — self/total times stay well-formed for *any* drop order
//!   (property-tested in `tests/profile_proptests.rs`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::tracer::HostStopwatch;

/// Span-duration histogram bounds, in nanoseconds: whole decades from
/// 100 ns to 10 s (+∞ implied). Spans below 100 ns are clock-resolution
/// noise; single spans above 10 s land in the overflow bucket, where the
/// interpolated quantiles fall back to the recorded maximum.
pub const SPAN_BOUNDS_NS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// One node of the live call tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    /// Children by span name — `BTreeMap` so reports flatten in a stable
    /// order regardless of first-visit order.
    children: BTreeMap<&'static str, usize>,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Histogram,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: BTreeMap::new(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durations: Histogram::with_bounds(SPAN_BOUNDS_NS),
        }
    }
}

/// One open span on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    /// Unique id issued at entry; exit matches on it so a stale guard
    /// (whose frame an outer guard already force-closed) is a no-op.
    token: u64,
    start_ns: u64,
    /// Time spent in already-closed direct children of this frame.
    child_ns: u64,
}

#[derive(Debug)]
struct Inner {
    /// Node 0 is the synthetic root (never reported); real spans hang off
    /// it. Nodes are append-only, identified by index.
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    next_token: u64,
}

/// The span profiler. Interior-mutable and [`Rc`]-shared like the tracer
/// (the simulator is single-threaded); the parallel sweep runner builds
/// one per worker item and merges the resulting [`ProfileReport`]s.
#[derive(Debug)]
pub struct Profiler {
    clock: HostStopwatch,
    inner: RefCell<Inner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler; its wall clock starts now.
    pub fn new() -> Profiler {
        Profiler {
            clock: HostStopwatch::start(),
            inner: RefCell::new(Inner {
                nodes: vec![Node::new("")],
                stack: Vec::new(),
                next_token: 0,
            }),
        }
    }

    /// Opens a span as a child of the innermost open span (or as a root
    /// span). Prefer [`crate::ObsHandle::span`], which adds the
    /// one-branch disabled path.
    #[must_use = "the span closes when the guard drops; bind it to a scope"]
    pub fn span(self: &Rc<Self>, name: &'static str) -> SpanGuard {
        let token = self.enter(name);
        SpanGuard {
            prof: Some((Rc::clone(self), token)),
        }
    }

    fn enter(&self, name: &'static str) -> u64 {
        let now = self.clock.elapsed_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().map_or(0, |f| f.node);
        let node = match inner.nodes[parent].children.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = inner.nodes.len();
                inner.nodes.push(Node::new(name));
                inner.nodes[parent].children.insert(name, idx);
                idx
            }
        };
        let token = inner.next_token;
        inner.next_token += 1;
        inner.stack.push(Frame {
            node,
            token,
            start_ns: now,
            child_ns: 0,
        });
        token
    }

    /// Closes the span holding `token`, force-closing anything nested
    /// inside it first. No-op if the span was already closed by an outer
    /// guard dropping early. Takes the guard's handle, so the reference
    /// count drop stays out of line too.
    #[inline(never)]
    fn exit(self: Rc<Self>, token: u64) {
        let now = self.clock.elapsed_ns();
        let mut inner = self.inner.borrow_mut();
        let Some(pos) = inner.stack.iter().rposition(|f| f.token == token) else {
            return;
        };
        let Inner { nodes, stack, .. } = &mut *inner;
        while stack.len() > pos {
            let frame = stack.pop().expect("len > pos >= 0");
            let elapsed = now.saturating_sub(frame.start_ns);
            let node = &mut nodes[frame.node];
            node.count += 1;
            node.total_ns += elapsed;
            node.self_ns += elapsed.saturating_sub(frame.child_ns);
            node.durations.observe(elapsed as f64);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += elapsed;
            }
        }
    }

    /// Snapshots the aggregated call tree. Only *closed* spans are
    /// reported — drop every guard (or let scopes end) before calling.
    /// `wall_ns` is the profiler's own lifetime so far, the denominator
    /// for [`ProfileReport::attributed`].
    pub fn report(&self) -> ProfileReport {
        let wall_ns = self.clock.elapsed_ns();
        let inner = self.inner.borrow();
        fn build(nodes: &[Node], idx: usize) -> SpanNode {
            let n = &nodes[idx];
            SpanNode {
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                durations: n.durations.snapshot(),
                children: n.children.values().map(|&c| build(nodes, c)).collect(),
            }
        }
        ProfileReport {
            wall_ns,
            roots: inner.nodes[0]
                .children
                .values()
                .map(|&c| build(&inner.nodes, c))
                .collect(),
        }
    }
}

/// RAII guard for one open span; the span closes when it drops.
#[derive(Debug)]
pub struct SpanGuard {
    prof: Option<(Rc<Profiler>, u64)>,
}

impl SpanGuard {
    /// The guard the disabled path hands out: dropping it does nothing.
    #[must_use]
    pub fn inert() -> SpanGuard {
        SpanGuard { prof: None }
    }
}

impl Drop for SpanGuard {
    /// Inline, so an inert guard costs the one branch on `prof`; closing a
    /// live span stays one out-of-line call to `Profiler::exit`.
    #[inline]
    fn drop(&mut self) {
        if let Some((prof, token)) = self.prof.take() {
            prof.exit(token);
        }
    }
}

/// Aggregated statistics for one span name at one position in the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name as passed to [`crate::ObsHandle::span`].
    pub name: String,
    /// Number of closed invocations.
    pub count: u64,
    /// Inclusive time: the span plus everything nested inside it.
    pub total_ns: u64,
    /// Exclusive time: `total_ns` minus direct children's inclusive time.
    pub self_ns: u64,
    /// Histogram of per-invocation inclusive durations (ns,
    /// [`SPAN_BOUNDS_NS`]).
    pub durations: HistogramSnapshot,
    /// Child spans, in name order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn merge(&mut self, other: &SpanNode) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durations.merge(&other.durations);
        merge_children(&mut self.children, &other.children);
    }
}

/// Merges `other` into `nodes`, aligning by name and keeping name order.
fn merge_children(nodes: &mut Vec<SpanNode>, other: &[SpanNode]) {
    for o in other {
        match nodes.iter_mut().find(|n| n.name == o.name) {
            Some(n) => n.merge(o),
            None => {
                nodes.push(o.clone());
                nodes.sort_by(|a, b| a.name.cmp(&b.name));
            }
        }
    }
}

/// An owned, mergeable snapshot of a [`Profiler`]'s call tree. `Send`, so
/// worker threads can hand their per-item profiles back across the sweep
/// runner's channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Profiler lifetime at snapshot, in host nanoseconds. Merging adds
    /// walls, so a merged per-session report's wall is the total session
    /// compute time (not the sweep's elapsed wall clock).
    pub wall_ns: u64,
    /// Root spans, in name order.
    pub roots: Vec<SpanNode>,
}

impl ProfileReport {
    /// Folds `other` into `self`: counts and times add node-wise (aligned
    /// by path), duration histograms merge, walls add. Commutative and
    /// associative, so the sweep runner can fold per-item reports in spec
    /// order.
    pub fn merge(&mut self, other: &ProfileReport) {
        self.wall_ns += other.wall_ns;
        merge_children(&mut self.roots, &other.roots);
    }

    /// Depth-first flattening in tree order: `(path, depth, node)` with
    /// `/`-joined paths.
    pub fn flatten(&self) -> Vec<(String, usize, &SpanNode)> {
        fn walk<'a>(
            node: &'a SpanNode,
            prefix: &str,
            depth: usize,
            out: &mut Vec<(String, usize, &'a SpanNode)>,
        ) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push((path.clone(), depth, node));
            for child in &node.children {
                walk(child, &path, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            walk(root, "", 0, &mut out);
        }
        out
    }

    /// Fraction of `wall_ns` attributed to root spans (0 when no wall was
    /// measured). The acceptance bar for a well-instrumented workload is
    /// ≥ 0.95: everything the profiler lived through should be inside
    /// some named span.
    pub fn attributed(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let rooted: u64 = self.roots.iter().map(|r| r.total_ns).sum();
        rooted as f64 / self.wall_ns as f64
    }

    /// The `n` hottest spans by self time, as `(path, self_ns)` descending
    /// (ties broken by path, so the listing is stable).
    pub fn hot(&self, n: usize) -> Vec<(String, u64)> {
        let mut spans: Vec<(String, u64)> = self
            .flatten()
            .into_iter()
            .map(|(path, _, node)| (path, node.self_ns))
            .collect();
        spans.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        spans.truncate(n);
        spans
    }

    /// Renders the self/total-time table: one row per span in tree order,
    /// with interpolated p50/p90/p99 per-invocation durations, followed by
    /// the attribution line and the hottest spans by self time.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9}",
            "span", "count", "total", "self", "self%", "p50", "p90", "p99"
        );
        let wall = self.wall_ns.max(1);
        for (_, depth, node) in self.flatten() {
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            let q = |p: f64| {
                node.durations
                    .quantile(p)
                    .map_or_else(|| "-".to_string(), |v| fmt_ns(v as u64))
            };
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>10} {:>10} {:>5.1}% {:>9} {:>9} {:>9}",
                label,
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns),
                100.0 * node.self_ns as f64 / wall as f64,
                q(0.50),
                q(0.90),
                q(0.99),
            );
        }
        let _ = writeln!(
            out,
            "attributed: {:.1}% of {} measured wall time",
            100.0 * self.attributed(),
            fmt_ns(self.wall_ns),
        );
        let hot = self.hot(5);
        if !hot.is_empty() {
            out.push_str("hot spans by self time:\n");
            for (path, self_ns) in hot {
                let _ = writeln!(out, "  {:<52} {:>10}", path, fmt_ns(self_ns));
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsHandle;

    fn tree_invariants(report: &ProfileReport) {
        for (path, _, node) in report.flatten() {
            let child_total: u64 = node.children.iter().map(|c| c.total_ns).sum();
            assert_eq!(
                node.self_ns + child_total,
                node.total_ns,
                "self + children != total at {path}"
            );
            assert_eq!(node.durations.count, node.count, "histogram count {path}");
        }
    }

    #[test]
    fn nested_spans_attribute_self_and_total() {
        let prof = Rc::new(Profiler::new());
        {
            let _outer = prof.span("outer");
            {
                let _a = prof.span("a");
            }
            {
                let _b = prof.span("b");
            }
        }
        let report = prof.report();
        assert_eq!(report.roots.len(), 1);
        let outer = &report.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "a");
        assert_eq!(outer.children[1].name, "b");
        assert!(outer.total_ns >= outer.children.iter().map(|c| c.total_ns).sum());
        tree_invariants(&report);
        assert!(report.attributed() <= 1.0 + f64::EPSILON);
        let flat = report.flatten();
        assert_eq!(
            flat.iter().map(|(p, ..)| p.as_str()).collect::<Vec<_>>(),
            vec!["outer", "outer/a", "outer/b"]
        );
    }

    #[test]
    fn same_name_different_parents_are_distinct_nodes() {
        let prof = Rc::new(Profiler::new());
        {
            let _x = prof.span("x");
            let _shared = prof.span("shared");
        }
        {
            let _y = prof.span("y");
            let _shared = prof.span("shared");
        }
        let report = prof.report();
        assert_eq!(report.roots.len(), 2);
        assert!(report
            .flatten()
            .iter()
            .any(|(p, ..)| p == "x/shared" || p == "y/shared"));
        tree_invariants(&report);
    }

    #[test]
    fn out_of_order_drop_force_closes_inner_spans() {
        let prof = Rc::new(Profiler::new());
        let outer = prof.span("outer");
        let inner = prof.span("inner");
        drop(outer); // force-closes `inner` too
        drop(inner); // stale: must be a no-op
        let report = prof.report();
        tree_invariants(&report);
        let flat = report.flatten();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[1].0, "outer/inner");
        assert_eq!(flat[1].2.count, 1, "inner closed exactly once");
    }

    #[test]
    fn disabled_handle_spans_are_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.profiling());
        let g = obs.span("anything");
        drop(g);
        // Attached profiler records through the same call.
        let prof = Rc::new(Profiler::new());
        let obs = ObsHandle::disabled().with_profiler(prof.clone());
        assert!(obs.profiling());
        drop(obs.span("thing"));
        assert_eq!(prof.report().roots[0].count, 1);
    }

    #[test]
    fn merge_aligns_by_path_and_adds() {
        let mk = |names: &[&'static str]| {
            let prof = Rc::new(Profiler::new());
            {
                let _r = prof.span("root");
                for n in names {
                    drop(prof.span(n));
                }
            }
            prof.report()
        };
        let a = mk(&["x", "y"]);
        let b = mk(&["y", "z"]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.wall_ns, a.wall_ns + b.wall_ns);
        let flat = merged.flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, ..)| p.as_str()).collect();
        assert_eq!(paths, vec!["root", "root/x", "root/y", "root/z"]);
        let y = flat.iter().find(|(p, ..)| p == "root/y").unwrap().2;
        assert_eq!(y.count, 2);
        tree_invariants(&merged);
        // Merge is order-independent on the tree structure.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(
            other
                .flatten()
                .iter()
                .map(|(p, ..)| p.clone())
                .collect::<Vec<_>>(),
            paths.iter().map(|p| (*p).to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn table_and_hot_name_spans() {
        let prof = Rc::new(Profiler::new());
        {
            let _r = prof.span("session.run");
            drop(prof.span("dispatch.transfer_complete"));
        }
        let report = prof.report();
        let table = report.table();
        assert!(table.contains("session.run"));
        assert!(table.contains("dispatch.transfer_complete"));
        assert!(table.contains("attributed:"));
        assert!(table.contains("hot spans by self time:"));
        assert_eq!(report.hot(1).len(), 1);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(4_200), "4.2 µs");
        assert_eq!(fmt_ns(9_900_000), "9.9 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }
}
