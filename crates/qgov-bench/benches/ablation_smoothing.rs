//! Ablation: sweep of the EWMA smoothing factor γ (Eq. 1).
//!
//! The paper determines γ = 0.6 experimentally (Section III-B): small γ
//! lags genuine workload changes, large γ chases frame-to-frame noise.
//!
//! Run with `cargo bench -p qgov-bench --bench ablation_smoothing`.
//! `QGOV_FRAMES` overrides the run length; `QGOV_WORKERS` picks the
//! runner policy (`serial`, a worker count, default one per core);
//! `QGOV_SEEDS` the seed sweep (a count or a comma-separated list;
//! default one seed, matching the recorded single-run baselines).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "ablation_smoothing";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Ablation: EWMA smoothing factor gamma ==");
    println!(
        "   MPEG4 SVGA at 24 fps, {frames} frames, {}",
        sweep.describe()
    );
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::Smoothing, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);
    println!("{}", sweep_table(Family::Smoothing, &summaries).render());
    println!("expectation: misprediction is minimised near gamma = 0.6, the paper's choice.");
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
