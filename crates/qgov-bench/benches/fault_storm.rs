//! **Fault-storm experiment**: the hardened two-quad RTM versus a naive
//! per-cluster RTM and ondemand, all driven through an identical
//! deterministic fault schedule (stuck PMU, thermal spike, then a full
//! cluster drop-out at mid-run).
//!
//! Run with `cargo bench -p qgov-bench --bench fault_storm`.
//! `QGOV_FRAMES` overrides the horizon (default 400: long enough for
//! the post-drop recovery window to gate); `QGOV_SEEDS` the seed sweep;
//! `QGOV_WORKERS` the runner policy; `QGOV_FAULTS=off` swaps in the
//! empty fault plan (every coordinator must then be bit-identical to
//! its fault-free run — the contract `tests/fault_injection.rs` pins).

use qgov_bench::faultstorm::{fault_plan_from_env, fault_storm_drop_epoch, run_fault_storm_with};
use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "fault_storm";

fn main() {
    let frames = frames_from_env(400);
    let sweep = SeedSweep::from_env(11);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    let plan = fault_plan_from_env(frames);
    println!("== fault storm: hardened RTM vs naive RTM vs ondemand ==");
    println!(
        "   workload: constant 4-thread frame stream, {frames} frames, {}",
        sweep.describe()
    );
    println!(
        "   faults: {} scheduled (cluster drop at epoch {}), runner: {}\n",
        plan.len(),
        fault_storm_drop_epoch(frames),
        runner.describe()
    );
    // Per seed rather than through the campaign dispatch, which always
    // replays the standard schedule: this target honours QGOV_FAULTS.
    let (cells, secs) = timed_passes(passes, || {
        sweep
            .seeds()
            .iter()
            .map(|&seed| run_fault_storm_with(seed, frames, &plan, &runner).metrics())
            .collect::<Vec<_>>()
    });
    let summaries = fold_by_name(&cells);

    println!("{}", sweep_table(Family::FaultStorm, &summaries).render());
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
