//! Regenerates **Table II** of Biswas et al., DATE 2017: the number of
//! explorations needed until convergence with the paper's slack-aware
//! EPD exploration (Eq. 2) versus the uniform-probability baseline of
//! Shen et al. [21], on MPEG4 (30 fps), H.264 (15 fps) and FFT (32 fps).
//!
//! Run with `cargo bench -p qgov-bench --bench table2_explorations`.
//! `QGOV_FRAMES` overrides the run length; `QGOV_WORKERS` picks the
//! runner policy (`serial`, a worker count, default one per core);
//! `QGOV_SEEDS` the seed sweep (a count or a comma-separated list;
//! default one seed, matching the recorded single-run baselines).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "table2_explorations";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Table II: comparative number of explorations ==");
    println!("   {frames} frames per application, {}", sweep.describe());
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::Table2, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);
    println!("{}", sweep_table(Family::Table2, &summaries).render());
    println!("paper reference (measured on ODROID-XU3):");
    println!("  MPEG4 (30 fps)   144 -> 83");
    println!("  H.264 (15 fps)   149 -> 90");
    println!("  FFT (32 fps)     119 -> 74");
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
