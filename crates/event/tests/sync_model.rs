//! Exhaustive and randomized model checks of the two concurrency
//! protocols (DESIGN.md §17): the fleet driver's single-barrier
//! round-parity `WindowBoard` and the runner's chunked claimer.
//!
//! The exhaustive tests are the evidence cited by the `ABR-L007`
//! allowlist entries in `lint.toml`: the shipped protocol, including the
//! spin-then-park window barrier's own operations, passes every bounded
//! interleaving at the production memory orderings, while each seeded bug
//! (the window-index parity, `Relaxed` barrier operations, a fast-forward
//! overshoot, a torn claim RMW, and three reordered barrier operations)
//! is rediscovered as a concrete counterexample schedule.

use abr_event::rng::SplitMix64;
use abr_event::sync_model::{
    explore, run_random, BarrierRule, ClaimModel, ClaimModelCfg, ClaimStyle, MemOrder, ParityRule,
    Violation, WindowModel, WindowModelCfg,
};
use proptest::prelude::*;

/// One million complete schedules: generous for every bounded workload
/// below (the largest needs ~4k under sleep sets), tight enough to
/// scream if a model change blows up the state space.
const BUDGET: u64 = 1_000_000;

/// The fast-forward workload: worker 0 drains in window 0; worker 1 has
/// a second event in window 2, so with `ff_horizon = 1` both workers
/// jump `k = 0 → 2` — an even Δk, which is exactly the parity-reuse
/// trigger for the reverted PR 9 window-index scheme.
fn jump_workload() -> WindowModelCfg {
    WindowModelCfg::shipped(vec![vec![100_000], vec![150_000, 2_100_000]], 1_000_000, 1)
}

/// A two-window stepwise workload (no fast-forward) for the parity
/// variants at the production orderings.
fn stepwise_workload() -> WindowModelCfg {
    WindowModelCfg::shipped(vec![vec![100_000], vec![150_000, 1_100_000]], 1_000_000, 0)
}

/// A single-window workload for the store-buffer (`Relaxed`) variants:
/// modeled flush nondeterminism multiplies the state space by ~160×
/// across a second round (measured under sleep sets: 20,480 schedules vs
/// 128), and the publish→fold visibility being probed is already fully
/// exercised by one round.
fn single_window_workload() -> WindowModelCfg {
    WindowModelCfg::shipped(vec![vec![100_000], vec![150_000]], 1_000_000, 0)
}

#[test]
fn shipped_window_protocol_passes_exhaustively() {
    let stats = explore(&WindowModel::new(jump_workload()), BUDGET)
        .unwrap_or_else(|cex| panic!("shipped protocol violated: {cex}"));
    // The bound is real work, not a vacuous pass: with sleep sets a
    // schedule is one representative per class of reorderings, and the
    // class count is pinned so a model or reduction change that
    // collapses (or blows up) the space shows here.
    assert_eq!(stats.schedules, 80, "state space changed: {stats:?}");
}

#[test]
fn shipped_window_protocol_passes_at_seqcst() {
    let cfg = WindowModelCfg {
        store_order: MemOrder::SeqCst,
        load_order: MemOrder::SeqCst,
        ..jump_workload()
    };
    explore(&WindowModel::new(cfg), BUDGET)
        .unwrap_or_else(|cex| panic!("SeqCst variant violated: {cex}"));
}

/// `Relaxed` publishes with a flushing rendezvous pass: the barrier's
/// acquire-release edge alone is enough to order publish before fold.
/// (The production driver still uses `Release`/`Acquire` slot accesses —
/// belt and braces — but this pins which edge is load-bearing.)
#[test]
fn relaxed_publish_with_flushing_rendezvous_is_safe() {
    let cfg = WindowModelCfg {
        store_order: MemOrder::Relaxed,
        load_order: MemOrder::Relaxed,
        ..single_window_workload()
    };
    let stats = explore(&WindowModel::new(cfg), BUDGET)
        .unwrap_or_else(|cex| panic!("relaxed+rendezvous violated: {cex}"));
    assert!(
        stats.schedules > 100,
        "store-buffer choices missing: {stats:?}"
    );
}

/// Make the barrier's `count` RMW and `gen` bump `Relaxed` and the
/// rendezvous loses its memory semantics: `Relaxed` publishes stay in
/// the writer's store buffer past the barrier, and a reader folds an
/// unwritten (or stale) slot. This is the happens-before edge named by
/// the `ABR-L007` justifications — without it, weak publishes are racy.
#[test]
fn relaxed_publish_without_rendezvous_edge_is_found_unsafe() {
    let cfg = WindowModelCfg {
        store_order: MemOrder::Relaxed,
        load_order: MemOrder::Relaxed,
        barrier_order: MemOrder::Relaxed,
        ..single_window_workload()
    };
    let cex = explore(&WindowModel::new(cfg), BUDGET)
        .expect_err("a rendezvous with no memory semantics must leak a stale slot");
    assert!(
        matches!(cex.violation, Violation::StaleSlot { .. }),
        "expected a stale-slot read, got: {cex}"
    );
}

/// Regression pin for the PR 9 race: parity keyed on the *window index*
/// deadlocked the fleet driver when fast-forward jumped an even Δk. The
/// exhaustive search must rediscover it from the protocol rules alone —
/// worker 0, one round ahead after the jump, republishes the same parity
/// slots that worker 1 is still folding.
#[test]
fn window_index_parity_bug_is_rediscovered() {
    let cfg = WindowModelCfg {
        parity: ParityRule::WindowIndex,
        ..jump_workload()
    };
    let cex = explore(&WindowModel::new(cfg), BUDGET)
        .expect_err("window-index parity must race on an even-Δk fast-forward");
    assert!(
        matches!(
            cex.violation,
            Violation::StaleSlot { .. } | Violation::FoldDivergence { .. }
        ),
        "expected the parity race, got: {cex}"
    );
}

/// The same window-index parity passes when fast-forward is disabled —
/// which is exactly why the bug survived until PR 9 wired `ff_horizon`
/// up: stepwise advance flips window parity every round.
#[test]
fn window_index_parity_is_safe_without_fast_forward() {
    let cfg = WindowModelCfg {
        parity: ParityRule::WindowIndex,
        ..stepwise_workload()
    };
    explore(&WindowModel::new(cfg), BUDGET)
        .unwrap_or_else(|cex| panic!("stepwise window-index parity violated: {cex}"));
}

/// A fast-forward that jumps one window past the earliest pending event
/// consumes that event in the wrong window — the skipped-pending
/// invariant (the production driver's `debug_assert!(m > k)` guard plus
/// the quiescence proof) must catch it.
#[test]
fn fast_forward_overshoot_is_found() {
    let cfg = WindowModelCfg {
        ff_overshoot: true,
        ..jump_workload()
    };
    let cex = explore(&WindowModel::new(cfg), BUDGET)
        .expect_err("overshooting fast-forward must skip a pending window");
    assert!(
        matches!(cex.violation, Violation::SkippedPending { .. }),
        "expected a skipped pending event, got: {cex}"
    );
}

/// Three workers over the fast-forward workload: two barrier rounds, so
/// a released waiter's next arrival races the last arriver's reset and
/// unparks (4,032 schedules under sleep sets; the exhaustive worker
/// bound is 3, with larger counts covered by the random-schedule
/// proptests below).
#[test]
fn three_worker_window_protocol_passes_exhaustively() {
    let cfg = WindowModelCfg::shipped(
        vec![vec![100_000], vec![150_000, 2_100_000], vec![200_000]],
        1_000_000,
        1,
    );
    explore(&WindowModel::new(cfg), BUDGET)
        .unwrap_or_else(|cex| panic!("three-worker protocol violated: {cex}"));
}

/// Each seeded reordering of the barrier's own operations strands a
/// worker: the exhaustive search must find the deadlock on the two-round
/// stepwise workload (a late reset needs a second round to erase an
/// arrival) — and the shipped order must not deadlock on it.
#[test]
fn reordered_barrier_operations_deadlock() {
    explore(&WindowModel::new(stepwise_workload()), BUDGET)
        .unwrap_or_else(|cex| panic!("shipped barrier violated: {cex}"));
    for bug in [
        BarrierRule::ResetAfterBump,
        BarrierRule::GenLoadAfterRmw,
        BarrierRule::UnparkBeforeBump,
    ] {
        let cfg = WindowModelCfg {
            barrier: bug,
            ..stepwise_workload()
        };
        let cex = explore(&WindowModel::new(cfg), BUDGET)
            .expect_err("a reordered barrier operation must strand a worker");
        assert_eq!(
            cex.violation,
            Violation::Deadlock,
            "{bug:?}: expected a deadlock, got: {cex}"
        );
    }
}

#[test]
fn fetch_add_claimer_partitions_exhaustively() {
    for (threads, n, chunk) in [(2, 5, 2), (3, 7, 2), (2, 4, 3), (3, 3, 1)] {
        let cfg = ClaimModelCfg {
            threads,
            n,
            chunk,
            style: ClaimStyle::FetchAdd,
        };
        let stats = explore(&ClaimModel::new(cfg), BUDGET).unwrap_or_else(|cex| {
            panic!("claimer T={threads} n={n} chunk={chunk} violated: {cex}")
        });
        assert!(stats.schedules >= 1);
    }
}

/// Split the claim RMW into a separate load and store-back and two
/// claimers read the same counter value: the search finds the double
/// claim. This is the atomicity the `Relaxed` `fetch_add` provides even
/// without ordering — RMWs on one location have a total modification
/// order — and the reason `runner.rs`'s claim counters are safe at
/// `Relaxed` (cited in `lint.toml`).
#[test]
fn load_then_store_claimer_double_claims() {
    let cfg = ClaimModelCfg {
        threads: 2,
        n: 4,
        chunk: 2,
        style: ClaimStyle::LoadThenStore,
    };
    let cex =
        explore(&ClaimModel::new(cfg), BUDGET).expect_err("a torn claim RMW must double-claim");
    assert!(
        matches!(cex.violation, Violation::DoubleClaim { .. }),
        "expected a double claim, got: {cex}"
    );
}

proptest! {
    /// Random schedules over random workloads at larger thread/window
    /// counts than the exhaustive bound covers: the shipped protocol
    /// (round parity, production orderings) never violates an invariant.
    #[test]
    fn random_schedules_pass_on_shipped_protocol(
        seed in any::<u64>(),
        worker_events in proptest::collection::vec(
            proptest::collection::vec(0u64..4_000_000, 0..5),
            1..5,
        ),
        window_ms in (0u64..2).prop_map(|i| if i == 0 { 250u64 } else { 1000 }),
        ff_horizon in 0u64..3,
    ) {
        let events: Vec<Vec<u64>> = worker_events
            .into_iter()
            .map(|mut evs| { evs.sort_unstable(); evs })
            .collect();
        let cfg = WindowModelCfg::shipped(events, window_ms * 1000, ff_horizon);
        let model = WindowModel::new(cfg);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            if let Err(cex) = run_random(&model, &mut rng, 100_000) {
                return Err(format!("shipped protocol violated: {cex}"));
            }
        }
    }

    /// Random schedules over random claimer bounds beyond the exhaustive
    /// sizes: `fetch_add` claiming always partitions `0..n`.
    #[test]
    fn random_schedules_partition_on_fetch_add_claimer(
        seed in any::<u64>(),
        threads in 1usize..6,
        n in 0usize..64,
        chunk in 1usize..9,
    ) {
        let cfg = ClaimModelCfg { threads, n, chunk, style: ClaimStyle::FetchAdd };
        let model = ClaimModel::new(cfg);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            if let Err(cex) = run_random(&model, &mut rng, 100_000) {
                return Err(format!("claimer violated: {cex}"));
            }
        }
    }
}
