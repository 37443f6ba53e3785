//! Ablation: sweep of the Q-table discretisation level count N.
//!
//! The paper fixes N = 5 "in view of a pre-characterisation of the
//! applications" (Section II-A): the Q-table size `|A|x|S|` trades
//! learning overhead against achievable energy minimisation. This
//! sweep regenerates that trade-off.
//!
//! Run with `cargo bench -p qgov-bench --bench ablation_state_levels`.
//! `QGOV_FRAMES` overrides the run length; `QGOV_WORKERS` picks the
//! runner policy (`serial`, a worker count, default one per core);
//! `QGOV_SEEDS` the seed sweep (a count or a comma-separated list;
//! default one seed, matching the recorded single-run baselines).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "ablation_state_levels";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Ablation: state discretisation levels N ==");
    println!("   H.264 football, {frames} frames, {}", sweep.describe());
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::StateLevels, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);
    println!("{}", sweep_table(Family::StateLevels, &summaries).render());
    println!("expectation: small N converges fast but controls coarsely;");
    println!("large N controls finely but explores/converges slowly — N = 5 balances.");
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
