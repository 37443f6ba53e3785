//! Acceptance shape of the heterogeneous big.LITTLE experiment: over a
//! multi-seed sweep, the learned per-cluster RTM with greedy task
//! migration must beat **both** static placements — lower energy than
//! big-only at a comparable-or-better miss rate, and better
//! energy-per-useful-frame than the structurally infeasible
//! LITTLE-only placement.
//!
//! This is the paper's central claim transplanted to the heterogeneous
//! chip: learning where (and how fast) to run saves energy without
//! giving up deadlines. The horizon is deliberately short so the test
//! stays in tier-1 budget; `benches/biglittle.rs` runs the full-length
//! version and EXPERIMENTS.md records its numbers.

use qgov::prelude::*;

const FRAMES: u64 = 240;

#[test]
fn learned_migration_beats_both_static_placements() {
    let sweep = SeedSweep::base(2017, 3);
    let cells = sweep_metrics(
        Family::BigLittle,
        &sweep,
        FRAMES,
        None,
        &RunnerConfig::from_env(),
    );
    assert_eq!(cells.len(), 3);
    let folded = fold_by_name(&cells);
    assert_eq!(sweep_table(Family::BigLittle, &folded).len(), 3);

    let row = |placement: &'static str| {
        let folded = &folded;
        move |metric: &str| {
            let name = format!("{metric}/{placement}");
            folded
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("missing {name}"))
        }
    };
    let big = row("big_only");
    let little = row("little_only");
    let learned = row("rtm_migrate");

    // Energy: learned migration undercuts the big-only placement on
    // every aggregate (the A7 quad absorbs work at a fraction of the
    // A15's cube-law cost).
    assert!(
        learned("energy_joules").mean < big("energy_joules").mean,
        "learned migration must save energy vs big-only: {:.2} J vs {:.2} J",
        learned("energy_joules").mean,
        big("energy_joules").mean
    );
    assert!(
        learned("normalized_energy").mean < 0.95,
        "savings should be material, got {:.3}× big-only",
        learned("normalized_energy").mean
    );

    // Deadlines: comparable or better than big-only. A generous slack
    // margin (5 pp) keeps the bound honest across seeds without making
    // the test flaky.
    assert!(
        learned("miss_rate").mean <= big("miss_rate").mean + 0.05,
        "learned miss rate {:.3} must stay comparable to big-only {:.3}",
        learned("miss_rate").mean,
        big("miss_rate").mean
    );

    // LITTLE-only is structurally infeasible for this workload (demand
    // exceeds the A7 quad's capacity), so it drowns in misses and pays
    // more per frame it actually delivers.
    assert!(
        little("miss_rate").mean > 0.5,
        "the scaled decode must overwhelm the A7 quad, miss rate {:.3}",
        little("miss_rate").mean
    );
    assert!(
        learned("energy_per_met_frame").mean < little("energy_per_met_frame").mean,
        "learned J/met-frame {:.4} must beat LITTLE-only {:.4}",
        learned("energy_per_met_frame").mean,
        little("energy_per_met_frame").mean
    );

    // Every seed individually shows the energy win, not just the mean.
    for (seed, cell) in sweep.seeds().iter().zip(&cells) {
        let energy = |placement: &str| {
            let name = format!("energy_joules/{placement}");
            cell.iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("seed {seed}: missing {name}"))
                .1
        };
        let (learned, big) = (energy("rtm_migrate"), energy("big_only"));
        assert!(
            learned < big,
            "seed {seed}: learned {learned:.2} J must undercut big-only {big:.2} J"
        );
    }
}

/// The same sweep under the standard temporal property pack: every
/// placement on every seed runs violation-free, and monitoring leaves
/// all placement metrics untouched.
#[test]
fn biglittle_sweep_runs_clean_under_the_standard_pack() {
    let pack = PackConfig::paper();
    for &seed in SeedSweep::base(2017, 3).seeds() {
        let plain = run_biglittle_with(seed, FRAMES, &RunnerConfig::serial());
        let monitored = run_biglittle_monitored_with(seed, FRAMES, &RunnerConfig::serial(), &pack);
        for (m, p) in monitored.rows.iter().zip(&plain.rows) {
            let report = m.monitor.as_ref().expect("monitored rows carry verdicts");
            assert!(
                report.is_clean(),
                "seed {seed} {}: {}",
                m.placement,
                report.summary()
            );
            let mut stripped = m.clone();
            stripped.monitor = None;
            assert_eq!(
                &stripped, p,
                "seed {seed} {}: monitoring perturbed the run",
                m.placement
            );
        }
    }
}
