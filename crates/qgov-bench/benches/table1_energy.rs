//! Regenerates **Table I** of Biswas et al., DATE 2017: comparative
//! normalised energy and performance of Linux ondemand [5], multi-core
//! DVFS control [20], the proposed RTM and the Oracle reference on the
//! H.264 football sequence (~3000 frames).
//!
//! Run with `cargo bench -p qgov-bench --bench table1_energy`.
//! `QGOV_FRAMES` overrides the run length; `QGOV_WORKERS` picks the
//! runner policy (`serial`, a worker count, default one per core);
//! `QGOV_SEEDS` the seed sweep (a count or a comma-separated list;
//! default one seed, matching the recorded single-run baselines).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "table1_energy";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Table I: comparative normalised energy and performance ==");
    println!(
        "   workload: H.264 football sequence, {frames} frames at 15 fps, {}",
        sweep.describe()
    );
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::Table1, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);
    println!("{}", sweep_table(Family::Table1, &summaries).render());
    println!("paper reference (measured on ODROID-XU3):");
    println!("  Linux Ondemand [5]            1.29  0.77");
    println!("  Multi-core DVFS control [20]  1.20  0.89");
    println!("  Proposed                      1.11  0.96");
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    // QGOV_BENCH_JSON perf trajectory: one record per campaign metric.
    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
