//! Property-based tests on the learning primitives: invariants that must
//! hold for arbitrary parameters and input streams.

use proptest::prelude::*;
use qgov_rl::{
    sample_weighted, ActionContext, Discretizer, EpdPolicy, EwmaPredictor, ExplorationPolicy,
    Predictor, QTable, QuantileDiscretizer, RewardFn, SlackReward, UniformDiscretizer,
    UniformPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The naive two-pass reference the fused `row_best` kernel replaced:
/// an independent greedy argmax scan (strict `>`, ties to the lowest
/// index) plus an independent max fold.
fn naive_two_pass(row: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (a, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = a;
        }
    }
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (best, max)
}

/// A fresh lowest-index-tie-break scan of one row: the `(argmax, max)`
/// the row cache must hold.
fn fresh_scan(row: &[f64]) -> (usize, f64) {
    let mut best = (0, row[0]);
    for (a, &v) in row.iter().enumerate().skip(1) {
        if v > best.1 {
            best = (a, v);
        }
    }
    best
}

/// Maps a pick to a value that stresses the row cache — exact ties,
/// signed zeros, values at and near `f64::MIN`, huge magnitudes — or,
/// for larger picks, to `x` itself.
fn edge_value(pick: u8, x: f64) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => f64::MIN,
        5 => f64::MIN / 2.0,
        6 => 1e300,
        7 => 0.5,
        _ => x,
    }
}

proptest! {
    /// The cached `row_best` equals a fresh scan of every row after any
    /// sequence of checked and unchecked Bellman updates and resets,
    /// on zero, uniform (signed-zero, `f64::MIN`, ...) and
    /// optimistic-bias tables. Rewards and hyper-parameters are drawn
    /// so that writes often tie the row maximum exactly, swap `0.0`
    /// for `-0.0`, lower the argmax, or overflow rows near `f64::MIN`.
    #[test]
    fn row_cache_equals_a_fresh_scan_after_any_write_sequence(
        (kind, init_pick, init_x) in (0u8..3, 0u8..10, -10.0f64..10.0),
        (states, actions) in (1usize..5, 1usize..7),
        steps in proptest::collection::vec(
            (0u8..20, 0usize..5, 0usize..7, (0u8..12, -5.0f64..5.0), 0usize..5, (0u8..4, 0u8..3)),
            1..120),
    ) {
        let init = edge_value(init_pick, init_x);
        let mut q = match kind {
            0 => QTable::new(states, actions).unwrap(),
            1 => QTable::with_init(states, actions, init).unwrap(),
            _ => {
                let bias: Vec<f64> = (0..actions).map(|a| init + a as f64 * 0.01).collect();
                QTable::with_action_bias(states, actions, &bias).unwrap()
            }
        };
        for (op, s, a, (r_pick, r_x), ns, (alpha_pick, discount_pick)) in steps {
            let (s, a, ns) = (s % states, a % actions, ns % states);
            let reward = edge_value(r_pick, r_x);
            let alpha = [1.0, 0.5, 0.3, 0.0][usize::from(alpha_pick)];
            let discount = [0.0, 0.5, 1.0][usize::from(discount_pick)];
            match op {
                0 => q.reset(),
                1..=9 => q.update(s, a, reward, ns, alpha, discount),
                _ => {
                    let future = q.row_best(ns).1;
                    let greedy = q.update_unchecked(s, a, reward, future, alpha, discount);
                    prop_assert_eq!(greedy, fresh_scan(q.row(s)).0);
                }
            }
            for state in 0..states {
                let (action, value) = q.row_best(state);
                let (ref_action, ref_value) = fresh_scan(q.row(state));
                prop_assert_eq!(action, ref_action, "argmax of row {}", state);
                prop_assert_eq!(value.to_bits(), ref_value.to_bits(), "max of row {}", state);
            }
        }
        let policy: Vec<usize> = (0..states).map(|s| fresh_scan(q.row(s)).0).collect();
        prop_assert_eq!(q.policy(), policy);
    }

    /// The fused single-scan `row_best` kernel agrees with the naive
    /// two-pass reference on arbitrary finite rows — argmax and max
    /// bit-for-bit, ties still breaking towards the lowest action.
    #[test]
    fn row_best_matches_naive_two_pass_reference(
        row in proptest::collection::vec(-1e12f64..1e12, 1..40),
    ) {
        let mut q = QTable::new(1, row.len()).unwrap();
        for (a, &v) in row.iter().enumerate() {
            // Terminal-style write: alpha = 1, discount = 0 sets the
            // cell to exactly `v`.
            q.update(0, a, v, 0, 1.0, 0.0);
        }
        let (action, value) = q.row_best(0);
        let (ref_action, ref_value) = naive_two_pass(q.row(0));
        prop_assert_eq!(action, ref_action);
        prop_assert_eq!(value.to_bits(), ref_value.to_bits());
        prop_assert_eq!(action, q.greedy_action(0));
        prop_assert_eq!(value.to_bits(), q.max_value(0).to_bits());
    }

    /// Duplicated maxima anywhere in the row: the fused kernel must
    /// return the first (lowest-index) occurrence.
    #[test]
    fn row_best_ties_break_low_for_any_duplicate_position(
        len in 2usize..20,
        positions in proptest::collection::vec(0usize..20, 2..5),
        value in -1e6f64..1e6,
    ) {
        let mut q = QTable::with_init(1, len, value - 1.0).unwrap();
        let mut firsts: Vec<usize> = positions.iter().map(|p| p % len).collect();
        firsts.sort_unstable();
        for &p in &firsts {
            q.update(0, p, value, 0, 1.0, 0.0);
        }
        prop_assert_eq!(q.row_best(0).0, firsts[0]);
    }

    /// EWMA predictions always stay inside the convex hull of the
    /// observations (it is a convex combination).
    #[test]
    fn ewma_stays_in_observation_hull(
        gamma in 0.01f64..=1.0,
        obs in proptest::collection::vec(-1e9f64..1e9, 1..100),
    ) {
        let mut p = EwmaPredictor::new(gamma).unwrap();
        let lo = obs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = obs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &o in &obs {
            p.observe(o);
            let pred = p.predict();
            prop_assert!(pred >= lo - 1e-6 && pred <= hi + 1e-6,
                "prediction {pred} escaped hull [{lo}, {hi}]");
        }
    }

    /// EWMA error on a constant signal decays geometrically.
    #[test]
    fn ewma_error_decays_on_constant_signal(
        gamma in 0.05f64..=0.95,
        start in -1e6f64..1e6,
        target in -1e6f64..1e6,
    ) {
        let mut p = EwmaPredictor::new(gamma).unwrap();
        p.observe(start);
        let mut prev_err = (p.predict() - target).abs();
        for _ in 0..50 {
            p.observe(target);
            let err = (p.predict() - target).abs();
            prop_assert!(err <= prev_err + 1e-9, "error must not grow: {err} > {prev_err}");
            prev_err = err;
        }
    }

    /// Q-values stay bounded by reward_max / (1 - discount) for bounded
    /// rewards (contraction property of the Bellman operator).
    #[test]
    fn q_values_stay_bounded(
        alpha in 0.01f64..=1.0,
        discount in 0.0f64..=0.9,
        steps in proptest::collection::vec(
            (0usize..4, 0usize..3, -1.0f64..=1.0, 0usize..4), 1..300),
    ) {
        let mut q = QTable::new(4, 3).unwrap();
        let bound = 1.0 / (1.0 - discount) + 1e-9;
        for (s, a, r, ns) in steps {
            q.update(s, a, r, ns, alpha, discount);
            for state in 0..4 {
                for action in 0..3 {
                    let v = q.value(state, action);
                    prop_assert!(v.abs() <= bound,
                        "|Q| = {v} exceeded bound {bound}");
                }
            }
        }
    }

    /// The fast Bellman update, fed the future term from a scan of the
    /// next state's row taken before it writes, equals the checked
    /// `QTable::update` bit for bit on random tables — including
    /// self-transitions, where the updated row is the future row — and
    /// the greedy action it returns is the updated row's argmax.
    #[test]
    fn update_unchecked_with_supplied_future_matches_checked_update(
        cells in proptest::collection::vec(-50.0f64..50.0, 15),
        steps in proptest::collection::vec(
            (0usize..3, 0usize..5, -5.0f64..5.0, 0usize..3, 0.0f64..=1.0, 0.0f64..=1.0),
            1..200),
    ) {
        let mut checked = QTable::new(3, 5).unwrap();
        for (i, &v) in cells.iter().enumerate() {
            checked.update(i / 5, i % 5, v, 0, 1.0, 0.0);
        }
        let mut fast = checked.clone();
        for (s, a, r, ns, alpha, discount) in steps {
            checked.update(s, a, r, ns, alpha, discount);
            let future = fast.row_best(ns).1;
            let greedy = fast.update_unchecked(s, a, r, future, alpha, discount);
            prop_assert_eq!(greedy, fast.row_best(s).0);
            for state in 0..3 {
                for (x, y) in checked.row(state).iter().zip(fast.row(state)) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        prop_assert_eq!(checked.update_count(), fast.update_count());
    }

    /// The greedy action always attains the row maximum.
    #[test]
    fn greedy_attains_max(
        steps in proptest::collection::vec(
            (0usize..3, 0usize..4, -5.0f64..5.0, 0usize..3), 1..200),
    ) {
        let mut q = QTable::new(3, 4).unwrap();
        for (s, a, r, ns) in steps {
            q.update(s, a, r, ns, 0.5, 0.5);
        }
        for s in 0..3 {
            let g = q.greedy_action(s);
            prop_assert_eq!(q.value(s, g), q.max_value(s));
        }
    }

    /// Uniform discretiser: levels are monotone in the input and cover
    /// the full range.
    #[test]
    fn uniform_discretizer_monotone(
        min in -1e6f64..0.0,
        width in 1.0f64..1e6,
        levels in 1usize..20,
        probes in proptest::collection::vec(-2e6f64..2e6, 2..50),
    ) {
        let d = UniformDiscretizer::new(min, min + width, levels).unwrap();
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0usize;
        for (i, &v) in sorted.iter().enumerate() {
            let l = d.level_of(v);
            prop_assert!(l < levels);
            if i > 0 {
                prop_assert!(l >= prev, "levels must be monotone");
            }
            prev = l;
        }
    }

    /// Quantile discretiser levels are monotone and within range for any
    /// sample set.
    #[test]
    fn quantile_discretizer_monotone(
        samples in proptest::collection::vec(-1e6f64..1e6, 2..200),
        levels in 1usize..10,
        probes in proptest::collection::vec(-2e6f64..2e6, 2..50),
    ) {
        let d = QuantileDiscretizer::from_samples(&samples, levels).unwrap();
        prop_assert_eq!(d.levels(), levels);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0usize;
        for (i, &v) in sorted.iter().enumerate() {
            let l = d.level_of(v);
            prop_assert!(l < levels);
            if i > 0 {
                prop_assert!(l >= prev);
            }
            prev = l;
        }
    }

    /// sample_weighted never returns an index with zero weight (when a
    /// positive-weight index exists).
    #[test]
    fn zero_weight_never_sampled(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let i = sample_weighted(&weights, &mut rng);
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }

    /// Policies always return a legal action for any finite slack.
    #[test]
    fn policies_return_legal_actions(
        slack in -1e3f64..1e3,
        n in 1usize..20,
        seed in 0u64..100,
    ) {
        let q = vec![0.0; n];
        let freqs: Vec<f64> = (1..=n).map(|i| i as f64 * 0.1).collect();
        let ctx = ActionContext::new(&q, &freqs, slack);
        let mut rng = StdRng::seed_from_u64(seed);
        let epd = EpdPolicy::paper();
        let upd = UniformPolicy::new();
        for _ in 0..20 {
            prop_assert!(epd.select(&ctx, &mut rng) < n);
            prop_assert!(upd.select(&ctx, &mut rng) < n);
        }
    }

    /// The slack reward is maximised at zero slack for any valid
    /// parameterisation.
    #[test]
    fn slack_reward_peaks_at_zero(
        a in 0.1f64..100.0,
        b in 0.1f64..100.0,
        w in 0.05f64..=1.0,
        l in -1.0f64..1.0,
    ) {
        let r = SlackReward::new(a, b, w).unwrap();
        // Compare steady states (prev == current) so the delta term is zero.
        prop_assert!(r.reward(l, l) <= r.reward(0.0, 0.0) + 1e-12);
    }
}
