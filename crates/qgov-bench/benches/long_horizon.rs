//! **Long-horizon streaming experiment**: the Q-learning RTM versus
//! the Linux ondemand and conservative heuristics over a horizon far
//! beyond the paper's ~3000-frame clips, streamed from CSV shards on
//! disk (`qgov_workloads::ShardedTrace`) so the trace never
//! materialises in memory. Reports convergence over time as windowed
//! miss-rate and frame-time folds.
//!
//! Run with `cargo bench -p qgov-bench --bench long_horizon`.
//! `QGOV_FRAMES` overrides the horizon (default 100 000);
//! `QGOV_WORKERS` picks the runner policy (`serial`, a worker count,
//! default one per core); `QGOV_SEEDS` the seed sweep (a count or a
//! comma-separated list; default one seed, matching the recorded
//! baselines in EXPERIMENTS.md).
//!
//! Every run carries the standard temporal property pack
//! ([`PackConfig::paper`]) as an always-on oracle: the base seed's
//! verdict table is printed alongside the metrics, and **any violated
//! property on any seed fails the target** — this is CI's monitored
//! long-horizon smoke (`QGOV_FRAMES=20000`).

use qgov_bench::experiments::run_long_horizon_monitored_with;
use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::{fold_by_name, PackConfig};

const TARGET: &str = "long_horizon";

fn main() {
    let frames = frames_from_env(100_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    let pack = PackConfig::paper();
    println!("== Long horizon: streamed traces, convergence over time ==");
    println!(
        "   workload: H.264 football model looped to {frames} frames at 15 fps, {}",
        sweep.describe()
    );
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::LongHorizon, &sweep, frames, Some(&pack), &runner)
    });
    let summaries = fold_by_name(&cells);

    // The per-window and per-property drill-down is inherently
    // per-seed: the first (base) seed's run.
    let base = sweep.seeds()[0];
    let first = run_long_horizon_monitored_with(base, frames, &runner, &pack);
    println!(
        "streamed from {} CSV shards of {} frames (≤ {} frames resident per replay)\n",
        first.shard_count, first.shard_frames, first.shard_frames
    );
    println!("{}", sweep_table(Family::LongHorizon, &summaries).render());
    println!("convergence over time (seed {base}, miss rate per window, proposed mean T/T_ref):");
    println!("{}", first.windows_table.render());

    // The always-on temporal oracle: print the verdicts for the base
    // seed, fail the target if any seed's run violated a property.
    let mut violations = 0.0;
    for (seed, cell) in sweep.seeds().iter().zip(&cells) {
        for (name, count) in cell {
            if name.starts_with("monitor_violations/") && *count > 0.0 {
                violations += count;
                eprintln!("seed {seed} {name} = {count}");
            }
        }
    }
    println!(
        "\ntemporal properties (seed {base}, thermal cap {:.0} °C, miss bound {:.0}% per {}-epoch window):",
        pack.thermal_cap_c, pack.miss_bound * 100.0, pack.miss_window
    );
    for row in &first.rows {
        if let Some(monitor) = &row.monitor {
            println!("-- {}: {}", row.method, monitor.summary());
            println!("{}", monitor.render().render());
        }
    }
    assert_eq!(
        violations, 0.0,
        "temporal property violations detected — see stderr above"
    );
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let rates: Vec<f64> = secs
        .iter()
        .map(|s| frames as f64 / s.max(f64::MIN_POSITIVE))
        .collect();
    let mut records = vec![
        wall_clock,
        BenchRecord::from_samples(TARGET, "frames_per_sec", &rates),
    ];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
