//! The multi-seed sweep layer's determinism guarantees, end to end,
//! checked on the per-seed `CellMetrics` a sweep produces and on the
//! `MetricSummary` bits their by-name fold yields:
//!
//! 1. a sweep aggregated serially is **bit-identical** to the same
//!    sweep on any worker count (inherited from the runner, preserved
//!    by the aggregation fold), rendered table included;
//! 2. aggregate values are **invariant to seed-list order** (summaries
//!    sort their samples before folding);
//! 3. the cells of one sweep batch are **independent across seeds** —
//!    each per-seed result equals the same seed run alone;
//! 4. a single-seed sweep degenerates to exactly the single-run
//!    experiment (the property that lets `QGOV_SEEDS` default to 1
//!    without perturbing recorded baselines).
//!
//! CI re-runs this file with `QGOV_SEEDS=3 QGOV_WORKERS=3` so a
//! non-default sweep size and worker count exercise the same
//! assertions; [`sweep_under_test`] and [`parallel_config`] honour
//! those overrides and otherwise pin n = 5 seeds and 3 workers.

use qgov::prelude::*;

/// The sweep every comparison runs: `QGOV_SEEDS` if it names one (as
/// the CI matrix does), else the 5-seed range from base 2017.
fn sweep_under_test() -> SeedSweep {
    let from_env = SeedSweep::from_env(2017);
    if from_env.n() == 1 {
        SeedSweep::base(2017, 5)
    } else {
        from_env
    }
}

/// The parallel side of every comparison: `QGOV_WORKERS` if it names a
/// worker count, else 3 workers.
fn parallel_config() -> RunnerConfig {
    let from_env = RunnerConfig::from_env();
    if from_env.is_serial() {
        RunnerConfig::with_workers(3)
    } else {
        from_env
    }
}

fn assert_summary_bits(label: &str, a: &MetricSummary, b: &MetricSummary) {
    assert_eq!(a.n, b.n, "{label}: n");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{label}: mean");
    assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "{label}: std_dev");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "{label}: min");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "{label}: max");
    assert_eq!(a.ci95.to_bits(), b.ci95.to_bits(), "{label}: ci95");
}

/// Same metric names, in the same order, with bit-identical values.
fn assert_cell_bits(label: &str, a: &CellMetrics, b: &CellMetrics) {
    let names = |c: &CellMetrics| c.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(a), names(b), "{label}: metric names");
    for ((name, x), (_, y)) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {name}");
    }
}

/// Same metric set with bit-identical summaries (looked up by name, so
/// first-appearance order may differ).
fn assert_fold_bits(label: &str, a: &[(String, MetricSummary)], b: &[(String, MetricSummary)]) {
    assert_eq!(a.len(), b.len(), "{label}: metric count");
    for (name, sa) in a {
        let (_, sb) = b
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{label}: {name} missing"));
        assert_summary_bits(&format!("{label} {name}"), sa, sb);
    }
}

/// A family swept serially and on the parallel config: per-seed cells,
/// folded summaries and the rendered table are all bit-identical.
fn assert_parallel_matches_serial(family: Family, frames: u64) {
    let sweep = sweep_under_test();
    let serial = sweep_metrics(family, &sweep, frames, None, &RunnerConfig::serial());
    let parallel = sweep_metrics(family, &sweep, frames, None, &parallel_config());
    assert_eq!(serial.len(), sweep.n(), "{family}");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_cell_bits(family.name(), s, p);
    }
    let (s, p) = (fold_by_name(&serial), fold_by_name(&parallel));
    assert_fold_bits(family.name(), &s, &p);
    assert_eq!(
        sweep_table(family, &s).render(),
        sweep_table(family, &p).render(),
        "{family}"
    );
}

#[test]
fn table1_sweep_parallel_is_bit_identical_to_serial() {
    assert_parallel_matches_serial(Family::Table1, 200);
}

#[test]
fn table2_and_table3_sweeps_parallel_match_serial() {
    assert_parallel_matches_serial(Family::Table2, 250);
    assert_parallel_matches_serial(Family::Table3, 250);
}

#[test]
fn fig3_and_ablation_sweeps_parallel_match_serial() {
    assert_parallel_matches_serial(Family::Fig3, 150);
    assert_parallel_matches_serial(Family::SharedTable, 150);
}

#[test]
fn aggregates_are_invariant_to_seed_list_order() {
    let forward = SeedSweep::new(vec![2017, 5, 77]);
    let reversed = SeedSweep::new(vec![77, 5, 2017]);
    let runner = parallel_config();

    for family in [Family::Table2, Family::Table3] {
        let a = fold_by_name(sweep_metrics(family, &forward, 200, None, &runner));
        let b = fold_by_name(sweep_metrics(family, &reversed, 200, None, &runner));
        assert_fold_bits(family.name(), &a, &b);
        // The rendered aggregate table is identical too; only the
        // per-seed cells (which document sweep order) differ.
        assert_eq!(
            sweep_table(family, &a).render(),
            sweep_table(family, &b).render()
        );
    }
}

#[test]
fn sweep_cells_are_independent_across_seeds() {
    // Every per-seed result inside one multi-seed batch must be
    // bit-identical to the same seed run on its own — no state bleed
    // between the seeds of a batch.
    let sweep = SeedSweep::new(vec![2017, 5, 77]);
    let swept = sweep_metrics(Family::Table3, &sweep, 200, None, &parallel_config());
    for (i, &seed) in sweep.seeds().iter().enumerate() {
        let alone = run_table3_with(seed, 200, &RunnerConfig::serial()).metrics();
        assert_cell_bits(&format!("seed {seed}"), &swept[i], &alone);
    }
}

#[test]
fn flattened_grid_matches_per_seed_nested_runs() {
    // The sweep expands the full seed × methodology cross product into
    // ONE job queue. Whatever the queue's width, every per-seed cell
    // must stay bit-identical to the same seed's experiment run alone
    // with its own nested (methodology-only) batch — across experiment
    // families with different grid shapes.
    let sweep = SeedSweep::new(vec![2017, 5, 77]);
    let serial = RunnerConfig::serial();
    for workers in [1usize, 2, 7] {
        let runner = RunnerConfig::with_workers(workers);

        let table1 = sweep_metrics(Family::Table1, &sweep, 150, None, &runner);
        let table2 = sweep_metrics(Family::Table2, &sweep, 150, None, &runner);
        let levels = sweep_metrics(Family::StateLevels, &sweep, 120, None, &runner);
        for (i, &seed) in sweep.seeds().iter().enumerate() {
            assert_cell_bits(
                &format!("table1 seed {seed} at {workers} workers"),
                &table1[i],
                &run_table1_with(seed, 150, &serial).metrics(),
            );
            assert_cell_bits(
                &format!("table2 seed {seed} at {workers} workers"),
                &table2[i],
                &run_table2_with(seed, 150, &serial).metrics(),
            );
            assert_cell_bits(
                &format!("levels ablation seed {seed} at {workers} workers"),
                &levels[i],
                &run_state_levels_ablation_with(seed, 120, &serial).metrics(),
            );
        }
    }
}

#[test]
fn flattened_grid_handles_duplicate_seeds() {
    // Duplicate sweep seeds share one deduplicated preparation in the
    // flattened queue; their cells must still be bit-identical to
    // independent runs (and to each other).
    let sweep = SeedSweep::new(vec![9, 9]);
    let swept = sweep_metrics(Family::Table3, &sweep, 150, None, &parallel_config());
    let alone = run_table3_with(9, 150, &RunnerConfig::serial()).metrics();
    assert_cell_bits("first 9", &swept[0], &alone);
    assert_cell_bits("second 9", &swept[1], &alone);
}

#[test]
fn single_seed_sweep_preserves_the_single_run_baseline() {
    let sweep = SeedSweep::single(2017);
    for runner in [RunnerConfig::serial(), parallel_config()] {
        let swept = sweep_metrics(Family::Table1, &sweep, 200, None, &runner);
        let single = run_table1_with(2017, 200, &runner).metrics();
        assert_eq!(swept.len(), 1);
        assert_cell_bits("n = 1", &swept[0], &single);
        let folded = fold_by_name(&swept);
        assert_eq!(folded.len(), single.len());
        for ((name, summary), (_, value)) in folded.iter().zip(&single) {
            assert_eq!(summary.n, 1, "{name}");
            assert_eq!(summary.mean.to_bits(), value.to_bits(), "{name}");
            assert_eq!(summary.std_dev, 0.0, "{name}");
            assert_eq!(summary.ci95, 0.0, "{name}");
        }
    }
}

#[test]
fn duplicate_seeds_have_zero_spread() {
    // Determinism in the seed means a duplicated seed list is a
    // constant series: the mean equals the single value and every
    // spread field collapses to exactly zero.
    let sweep = SeedSweep::new(vec![7, 7, 7]);
    let swept = sweep_metrics(Family::Table3, &sweep, 150, None, &parallel_config());
    let single = run_table3_with(7, 150, &RunnerConfig::serial()).metrics();
    let folded = fold_by_name(&swept);
    assert_eq!(folded.len(), single.len());
    for ((name, summary), (_, value)) in folded.iter().zip(&single) {
        assert_eq!(summary.n, 3, "{name}");
        assert_eq!(summary.mean.to_bits(), value.to_bits(), "{name}");
        assert_eq!(summary.std_dev, 0.0, "{name}");
        assert_eq!(summary.ci95, 0.0, "{name}");
    }
}
