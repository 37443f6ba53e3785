//! **Fleet throughput**: N independent (platform, workload, RTM)
//! instances stepped epoch-major through the fleet engine
//! (`qgov_bench::fleet`), against a sequential control: the same
//! instances through N `run_experiment` calls under the same execution
//! policy. Both report aggregate decision-epoch throughput.
//!
//! Run with `cargo bench -p qgov-bench --bench fleet`.
//! `QGOV_FLEET` sets the instance count (default 64); `QGOV_FRAMES`
//! the per-instance horizon (default 20 000); `QGOV_WORKERS` the
//! execution policy (`serial`, a worker count, default one shard per
//! core); `QGOV_BENCH_PASSES` how many timed passes fold into the
//! recorded `mean ± σ` (default 3). Each pass times the engine, then
//! the control. Engine reports retain windowed folds only
//! (1000-frame windows), so their memory stays O(windows) at any
//! horizon.

use qgov_bench::fleet::{fleet_size_from_env, run_fleet, FleetSpec};
use qgov_bench::harness::run_experiment;
use qgov_bench::perf::{append_records, passes_from_env, BenchRecord};
use qgov_bench::runner::{frames_from_env, ExperimentBatch, RunnerConfig};
use qgov_core::{HistoryMode, RtmConfig, RtmGovernor};
use qgov_metrics::{MetricSummary, RunReport};
use qgov_sim::PlatformConfig;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{Application, SyntheticWorkload};
use std::time::Instant;

const TARGET: &str = "fleet";
const WINDOW: u64 = 1000;

fn base_config() -> RtmConfig {
    RtmConfig::paper(0)
        .with_workload_bounds(1e8, 1e9)
        .with_history(HistoryMode::Off)
}

fn app(seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "fleet",
        Cycles::from_mcycles(120),
        SimTime::from_ms(40),
        frames,
        4,
        seed,
    )
    .with_noise(0.15)
}

fn spec(seeds: &[u64], frames: u64) -> FleetSpec {
    FleetSpec::uniform(
        &base_config(),
        seeds,
        &PlatformConfig::odroid_xu3_a15(),
        frames,
        |seed| Box::new(app(seed, frames)) as Box<dyn Application + Send>,
    )
    .with_windowed_frames(WINDOW)
}

/// The control: every fleet instance as its own `run_experiment` call,
/// one batch cell each. Returns the total frames run.
fn run_sequential(seeds: &[u64], frames: u64, runner: &RunnerConfig) -> u64 {
    let mut batch = ExperimentBatch::new();
    for &seed in seeds {
        batch.push(format!("seed-{seed}"), move || {
            let mut config = base_config();
            config.seed = seed;
            let mut rtm = RtmGovernor::new(config).expect("valid RtmConfig");
            run_experiment(
                &mut rtm,
                &mut app(seed, frames),
                PlatformConfig::odroid_xu3_a15(),
                frames,
            )
            .report
            .frames()
        });
    }
    batch.run(runner).into_iter().sum()
}

fn main() {
    let instances = fleet_size_from_env(64);
    let frames = frames_from_env(20_000);
    let passes = passes_from_env(3);
    let runner = RunnerConfig::from_env();
    let seeds: Vec<u64> = (0..instances as u64).collect();
    println!("== Fleet throughput: engine vs sequential run_experiment control ==");
    println!(
        "   fleet: {instances} instances x {frames} frames \
         ({} aggregate), {WINDOW}-frame windowed retention",
        instances as u64 * frames
    );
    println!("   runner: {} | passes: {passes}\n", runner.describe());

    let mut wall_clocks = Vec::with_capacity(passes);
    let mut rates = Vec::with_capacity(passes);
    let mut control_wall_clocks = Vec::with_capacity(passes);
    let mut control_rates = Vec::with_capacity(passes);
    let mut last = None;
    for pass in 0..passes {
        let start = Instant::now();
        let outcome = run_fleet(spec(&seeds, frames), &runner);
        let elapsed = start.elapsed().as_secs_f64();
        let rate = outcome.total_frames as f64 / elapsed.max(f64::MIN_POSITIVE);

        let start = Instant::now();
        let control_frames = run_sequential(&seeds, frames, &runner);
        let control_elapsed = start.elapsed().as_secs_f64();
        let control_rate = control_frames as f64 / control_elapsed.max(f64::MIN_POSITIVE);
        assert_eq!(control_frames, outcome.total_frames, "same work both ways");

        println!(
            "pass {}/{passes}: {} frames | engine {elapsed:.3} s -> {rate:.0} frames/sec \
             | control {control_elapsed:.3} s -> {control_rate:.0} frames/sec",
            pass + 1,
            outcome.total_frames,
        );
        wall_clocks.push(elapsed);
        rates.push(rate);
        control_wall_clocks.push(control_elapsed);
        control_rates.push(control_rate);
        last = Some(outcome);
    }

    let outcome = last.expect("at least one pass");
    let miss = outcome.summarize(RunReport::miss_rate);
    let perf = outcome.summarize(RunReport::normalized_performance);
    println!(
        "\nfleet miss rate {:.4} ± {:.4} (n={}), mean T/T_ref {:.4} ± {:.4}",
        miss.mean, miss.std_dev, miss.n, perf.mean, perf.std_dev
    );

    let engine = MetricSummary::from_samples(&rates);
    let control = MetricSummary::from_samples(&control_rates);
    println!(
        "aggregate throughput: engine {:.0} ± {:.0} ({}) vs control {:.0} ± {:.0} ({}) frames/sec",
        engine.mean, engine.std_dev, engine.n, control.mean, control.std_dev, control.n
    );

    append_records(&[
        BenchRecord::from_samples(TARGET, "wall_clock_s", &wall_clocks),
        BenchRecord::from_samples(TARGET, "frames_per_sec", &rates),
        BenchRecord::from_samples(TARGET, "sequential_wall_clock_s", &control_wall_clocks),
        BenchRecord::from_samples(TARGET, "sequential_frames_per_sec", &control_rates),
        BenchRecord::from_summary(TARGET, "miss_rate", &miss),
        BenchRecord::from_summary(TARGET, "normalized_performance", &perf),
    ]);
}
