//! Property-based tests for the time base, RNG and event queue.

use abr_event::queue::EventQueue;
use abr_event::rng::SplitMix64;
use abr_event::time::{div_ceil_wide, div_wide, Duration, Instant};
use proptest::prelude::*;

proptest! {
    /// Instant/Duration arithmetic round-trips: (t + d) − d == t and
    /// (t + d) − t == d for any values that don't overflow.
    #[test]
    fn instant_duration_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Instant::from_micros(t);
        let d = Duration::from_micros(d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_duration_since(t), d);
    }

    /// mul_ratio(n, d) never differs from exact rational arithmetic by more
    /// than half a microsecond (round-to-nearest).
    #[test]
    fn duration_mul_ratio_rounds_to_nearest(
        micros in 0u64..1_000_000_000_000,
        num in 1u64..1000,
        den in 1u64..1000,
    ) {
        let d = Duration::from_micros(micros);
        let got = d.mul_ratio(num, den).as_micros() as i128;
        let exact_twice = micros as i128 * num as i128 * 2; // 2·exact·den⁻¹
        // |got − exact| ≤ 1/2  ⇔  |2·got·den − 2·exact| ≤ den
        prop_assert!((got * 2 * den as i128 - exact_twice).abs() <= den as i128);
    }

    /// The wide-division helpers equal plain `u128` division. Shifting a
    /// full 128-bit draw right by 0..128 puts about half the dividends
    /// below 2^64 (the 64-bit path) and half above (the `u128` path), and
    /// divisors span 1..=u64::MAX the same way.
    #[test]
    fn wide_division_matches_u128_division(
        hi in any::<u64>(),
        lo in any::<u64>(),
        shift in 0u32..128,
        d in any::<u64>(),
        d_shift in 0u32..64,
    ) {
        let n = ((u128::from(hi) << 64) | u128::from(lo)) >> shift;
        let d = (d >> d_shift).max(1);
        prop_assert_eq!(div_wide(n, d), n / u128::from(d));
        prop_assert_eq!(div_ceil_wide(n, d), n.div_ceil(u128::from(d)));
    }

    /// Ordering of instants matches ordering of their raw microsecond
    /// values, and min/max agree with it.
    #[test]
    fn instant_ordering_total(a in any::<u64>(), b in any::<u64>()) {
        let (ia, ib) = (Instant::from_micros(a), Instant::from_micros(b));
        prop_assert_eq!(ia < ib, a < b);
        prop_assert_eq!(ia.min(ib).as_micros(), a.min(b));
        prop_assert_eq!(ia.max(ib).as_micros(), a.max(b));
    }

    /// The RNG's bounded generators stay in bounds for arbitrary ranges.
    #[test]
    fn rng_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = rng.range_u64(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&x));
            let f = rng.range_f64(lo as f64, (lo + span) as f64);
            prop_assert!(f >= lo as f64 && f < (lo + span) as f64);
        }
    }

    /// Equal seeds yield equal streams; the stream is stateless with
    /// respect to call pattern (next_u64 sequence is the only state).
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let va: Vec<u64> = (0..20).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.next_u64()).collect();
        prop_assert_eq!(va, vb);
    }

    /// Seed-splitting is order-independent: deriving the per-session
    /// streams of a session list in **any permutation** yields exactly the
    /// same stream for every session. This is the determinism contract the
    /// parallel sweep runner (abr-bench `runner`) builds on — a worker pool
    /// visits specs in a scheduling-dependent order, so per-session
    /// randomness must be a pure function of the spec's (seed, stream)
    /// identity, never of derivation order.
    #[test]
    fn seed_splitting_is_permutation_invariant(
        seed in any::<u64>(),
        // A "session list": stable stream ids, possibly with gaps.
        streams in proptest::collection::vec(any::<u64>(), 1..40),
        // An arbitrary visit order over that list.
        perm in proptest::collection::vec(any::<usize>(), 1..40),
    ) {
        // Reference derivation: spec-list order.
        let reference: Vec<Vec<u64>> = streams
            .iter()
            .map(|&s| {
                let mut rng = SplitMix64::for_stream(seed, s);
                (0..8).map(|_| rng.next_u64()).collect()
            })
            .collect();
        // Shuffled derivation order (a fake "scheduling order"), with
        // interleaved draws from other sessions' generators in between.
        let mut shuffled: Vec<Option<Vec<u64>>> = vec![None; streams.len()];
        for &p in &perm {
            let i = p % streams.len();
            let mut rng = SplitMix64::for_stream(seed, streams[i]);
            let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            shuffled[i] = Some(draws);
        }
        for (i, got) in shuffled.into_iter().enumerate() {
            if let Some(draws) = got {
                prop_assert_eq!(&draws, &reference[i], "stream {} diverged", streams[i]);
            }
        }
    }

    /// Distinct stream ids under one seed yield distinct streams (no
    /// accidental collapse of sibling sessions onto one random stream).
    #[test]
    fn seed_splitting_separates_siblings(seed in any::<u64>(), a in any::<u64>(), delta in 1u64..1_000_000) {
        let b = a.wrapping_add(delta);
        let mut ra = SplitMix64::for_stream(seed, a);
        let mut rb = SplitMix64::for_stream(seed, b);
        let va: Vec<u64> = (0..4).map(|_| ra.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| rb.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }

    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order, with FIFO order within equal timestamps.
    #[test]
    fn queue_pops_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Instant::from_micros(t), i);
        }
        let mut popped: Vec<(Instant, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time-ordered");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
        // Every payload appears exactly once.
        let mut ids: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..times.len()).collect::<Vec<_>>());
    }

    /// Differential: random interleavings of every queue operation agree
    /// with a plain reference model — a `Vec` of `(at, seq, payload, live)`
    /// indexed by seq, searched linearly for the `(at, seq)` minimum —
    /// after every single operation.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..5, 0u64..20), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(Instant, u64, usize, bool)> = Vec::new();
        let mut now = Instant::ZERO;
        // The model's earliest live entry by `(at, seq)`.
        let head = |model: &[(Instant, u64, usize, bool)]| {
            model
                .iter()
                .filter(|e| e.3)
                .min_by_key(|e| (e.0, e.1))
                .map(|e| e.1 as usize)
        };
        for (step, &(op, delta)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    let at = now + Duration::from_micros(delta);
                    q.schedule(at, step);
                    model.push((at, model.len() as u64, step, true));
                }
                2 => {
                    let expect = head(&model).map(|i| {
                        model[i].3 = false;
                        now = model[i].0;
                        (model[i].0, model[i].2)
                    });
                    prop_assert_eq!(q.pop(), expect);
                }
                3 => {
                    let limit = now + Duration::from_micros(delta);
                    let expect = head(&model).filter(|&i| model[i].0 < limit).map(|i| {
                        model[i].3 = false;
                        now = model[i].0;
                        (model[i].0, model[i].2)
                    });
                    prop_assert_eq!(q.pop_before(limit), expect);
                }
                _ => {
                    prop_assert_eq!(q.next_time(), head(&model).map(|i| model[i].0));
                }
            }
            prop_assert_eq!(q.len(), model.iter().filter(|e| e.3).count());
            prop_assert_eq!(q.now(), now);
        }
    }

    /// busy_union_in_place equals a brute-force microsecond-marking
    /// computation.
    #[test]
    fn busy_union_matches_brute_force(
        spans in proptest::collection::vec((0u64..200, 0u64..60), 0..20),
    ) {
        let mut intervals: Vec<(Instant, Instant)> = spans
            .iter()
            .map(|&(lo, len)| (Instant::from_micros(lo), Instant::from_micros(lo + len)))
            .collect();
        let mut marked = vec![false; 300];
        for &(lo, len) in &spans {
            for m in marked.iter_mut().take((lo + len) as usize).skip(lo as usize) {
                *m = true;
            }
        }
        let expect = marked.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(
            abr_event::time::busy_union_in_place(&mut intervals),
            Duration::from_micros(expect)
        );
    }
}
