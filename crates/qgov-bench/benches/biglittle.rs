//! **big.LITTLE placement experiment**: the scaled H.264 decode on the
//! ODROID-XU3's heterogeneous two-cluster chip under three placements —
//! everything on the A15 quad, everything on the A7 quad, and one
//! Q-agent per cluster with greedy task migration.
//!
//! Run with `cargo bench -p qgov-bench --bench biglittle`.
//! `QGOV_FRAMES` overrides the horizon (default 3000, the paper's clip
//! length); `QGOV_WORKERS` picks the runner policy; `QGOV_SEEDS` the
//! seed sweep (default one seed, matching the recorded baselines in
//! EXPERIMENTS.md).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "biglittle";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== big.LITTLE placement: static vs learned migration ==");
    println!(
        "   workload: chip-scaled H.264 football, {frames} frames at 15 fps, {}",
        sweep.describe()
    );
    println!(
        "   topology: ODROID-XU3 (A15 quad + A7 quad), runner: {}\n",
        runner.describe()
    );
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::BigLittle, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);

    println!("{}", sweep_table(Family::BigLittle, &summaries).render());
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
