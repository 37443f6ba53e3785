//! **Mesh weak-scaling experiment**: one chip-level RTM (per-cluster
//! Q-agents + greedy migration) across synthetic homogeneous meshes of
//! 4, 8, and 16 A15 quads, with the workload scaled to the cluster
//! count. Under ideal weak scaling the per-cluster energy stays flat
//! as the chip grows.
//!
//! Run with `cargo bench -p qgov-bench --bench mesh_scaling`.
//! `QGOV_FRAMES` overrides the horizon (default 1500); `QGOV_WORKERS`
//! picks the runner policy; `QGOV_SEEDS` the seed sweep (default one
//! seed, matching the recorded baselines in EXPERIMENTS.md).

use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "mesh_scaling";

fn main() {
    let frames = frames_from_env(1_500);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Mesh weak scaling: per-cluster RTM on 4/8/16 clusters ==");
    println!(
        "   workload: ~40% per-core utilisation scaled to the mesh, {frames} frames, {}",
        sweep.describe()
    );
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::MeshScaling, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);

    println!("{}", sweep_table(Family::MeshScaling, &summaries).render());
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
