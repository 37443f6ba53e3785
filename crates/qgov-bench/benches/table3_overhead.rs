//! Regenerates **Table III** of Biswas et al., DATE 2017: worst-case
//! learning overhead in decision epochs — the shared Q-table of the
//! proposed RTM versus the per-core independent learners of the
//! multi-core DVFS control baseline [20], on an ffmpeg-style decode
//! with T_ref = 31 ms.
//!
//! Run with `cargo bench -p qgov-bench --bench table3_overhead`.
//! `QGOV_FRAMES` overrides the run length; `QGOV_WORKERS` picks the
//! runner policy (`serial`, a worker count, default one per core);
//! `QGOV_SEEDS` the seed sweep (a count or a comma-separated list;
//! default one seed, matching the recorded single-run baselines).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "table3_overhead";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Table III: comparative worst-case learning overhead ==");
    println!(
        "   ffmpeg-style MPEG4 decode, T_ref = 31 ms, {frames} frames, {}",
        sweep.describe()
    );
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::Table3, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);
    println!("{}", sweep_table(Family::Table3, &summaries).render());
    println!("paper reference (measured on ODROID-XU3):");
    println!("  Multi-core DVFS control [20]  205 decision epochs");
    println!("  Our approach                  105 decision epochs");
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
