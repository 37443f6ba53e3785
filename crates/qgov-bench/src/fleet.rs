//! Fleet-scale simulation: N independent (platform, workload, RTM)
//! runs stepped epoch-major.
//!
//! The flat harness ([`crate::harness::run_experiment`]) runs *one run
//! at a time*: one governor, one platform, one application, epochs
//! inner-most. A fleet inverts that loop — *one epoch across all
//! runs* — over N ordinary [`RtmGovernor`]s, each driven one epoch at a
//! time through the flat harness's own step
//! (`crate::harness::FlatRun`). Every per-run scratch buffer is
//! reused, so the steady-state epoch performs **zero heap allocations**
//! (`tests/alloc_steady_state.rs` pins this with a counting
//! allocator).
//!
//! **Bit-identity.** Instances never interact, and each one runs the
//! very code a sequential [`run_experiment`](crate::harness::run_experiment)
//! call runs. Interleaving therefore preserves every instance's results
//! bit-for-bit — pinned by `tests/fleet_determinism.rs` — and makes the
//! results invariant under instance order, sharding, and
//! `QGOV_WORKERS`. Instances may differ in anything: seed, workload,
//! state count, OPP table, sensor model.
//!
//! For multi-million-frame horizons, build the spec with
//! [`FleetSpec::with_windowed_frames`] so each report streams its
//! per-frame signals into O(windows) [`qgov_metrics::WindowedStats`]
//! folds instead of retaining one `FrameStat` per frame.

use crate::harness::FlatRun;
use crate::runner::{ExperimentBatch, RunnerConfig, RunnerMode};
use qgov_core::{RtmConfig, RtmGovernor};
use qgov_metrics::{MetricSummary, RunReport};
use qgov_sim::{FaultPlan, Platform, PlatformConfig};
use qgov_workloads::Application;

/// One fleet member: its RTM configuration (seed included), its
/// workload, and the platform it runs on.
pub struct FleetInstance {
    /// RTM configuration for this instance's governor.
    pub config: RtmConfig,
    /// The instance's application (owned — the engine drives and
    /// resets it exactly as the flat harness would).
    pub app: Box<dyn Application + Send>,
    /// Platform to build for this instance.
    pub platform: PlatformConfig,
}

/// A fleet run's specification: the instances, the frame horizon, and
/// the report retention mode.
pub struct FleetSpec {
    instances: Vec<FleetInstance>,
    frames: u64,
    window_len: Option<u64>,
}

impl FleetSpec {
    /// An empty spec with a `frames` horizon (per instance, capped at
    /// each application's own length).
    #[must_use]
    pub fn new(frames: u64) -> Self {
        FleetSpec {
            instances: Vec::new(),
            frames,
            window_len: None,
        }
    }

    /// Appends one instance.
    pub fn push(
        &mut self,
        config: RtmConfig,
        app: Box<dyn Application + Send>,
        platform: PlatformConfig,
    ) {
        self.instances.push(FleetInstance {
            config,
            app,
            platform,
        });
    }

    /// Switches every instance's report to windowed retention
    /// ([`RunReport::with_windowed_frames`]): per-frame signals stream
    /// into `window_len`-frame [`qgov_metrics::WindowedStats`] folds,
    /// keeping long horizons O(windows) instead of O(frames).
    #[must_use]
    pub fn with_windowed_frames(mut self, window_len: u64) -> Self {
        self.window_len = Some(window_len);
        self
    }

    /// A uniform fleet: one instance per seed, each with `base`
    /// re-seeded, a fresh application from `app`, and the same
    /// platform — the fleet face of a seed sweep.
    #[must_use]
    pub fn uniform(
        base: &RtmConfig,
        seeds: &[u64],
        platform: &PlatformConfig,
        frames: u64,
        mut app: impl FnMut(u64) -> Box<dyn Application + Send>,
    ) -> Self {
        let mut spec = FleetSpec::new(frames);
        for &seed in seeds {
            let mut config = base.clone();
            config.seed = seed;
            spec.push(config, app(seed), platform.clone());
        }
        spec
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when no instances were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

/// Everything a finished fleet run yields: one report and final
/// platform per instance (in instance order), plus the aggregate frame
/// count the throughput benchmarks divide by wall-clock.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-instance run reports, in instance order.
    pub reports: Vec<RunReport>,
    /// Per-instance final platforms, in instance order.
    pub platforms: Vec<Platform>,
    /// Total decision epochs executed across all instances.
    pub total_frames: u64,
}

impl FleetOutcome {
    /// Folds one per-instance metric across the fleet into a
    /// `mean ± σ (n)` aggregate — e.g.
    /// `outcome.summarize(|r| r.miss_rate())`.
    #[must_use]
    pub fn summarize(&self, metric: impl Fn(&RunReport) -> f64) -> MetricSummary {
        let samples: Vec<f64> = self.reports.iter().map(metric).collect();
        MetricSummary::from_samples(&samples)
    }
}

/// The fleet engine: N ordinary runs stepped epoch-major
/// ([`FleetEngine::step_epoch`]) until every instance finishes, then
/// [`FleetEngine::finish`] closes the reports.
///
/// [`run_fleet`] wraps the whole lifecycle; the engine is public so
/// benches and the allocation test can drive the steady-state loop
/// directly.
pub struct FleetEngine {
    governors: Vec<RtmGovernor>,
    apps: Vec<Box<dyn Application + Send>>,
    runs: Vec<FlatRun>,
    epoch: u64,
    max_total: u64,
}

impl FleetEngine {
    /// Builds the engine: per instance, one [`RtmGovernor`] and the flat
    /// harness's setup (platform, application reset + debug probe,
    /// first decision, report).
    ///
    /// # Panics
    ///
    /// Panics if the spec is empty, or an RTM or platform configuration
    /// is invalid.
    #[must_use]
    pub fn new(spec: FleetSpec) -> Self {
        assert!(!spec.is_empty(), "a fleet needs at least one instance");
        let n = spec.instances.len();
        let mut governors = Vec::with_capacity(n);
        let mut apps = Vec::with_capacity(n);
        let mut runs = Vec::with_capacity(n);
        for instance in spec.instances {
            let FleetInstance {
                config,
                mut app,
                platform,
            } = instance;
            let mut governor = RtmGovernor::new(config).expect("valid RtmConfig");
            runs.push(FlatRun::new(
                &mut governor,
                app.as_mut(),
                platform,
                spec.frames,
                &FaultPlan::none(),
                0,
                spec.window_len,
            ));
            governors.push(governor);
            apps.push(app);
        }
        let max_total = runs.iter().map(FlatRun::total).max().unwrap_or(0);
        FleetEngine {
            governors,
            apps,
            runs,
            epoch: 0,
            max_total,
        }
    }

    /// Number of instances.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.runs.len()
    }

    /// Epochs stepped so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total decision epochs the full run will execute (sum of
    /// per-instance horizons).
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.runs.iter().map(FlatRun::total).sum()
    }

    /// Advances every still-running instance by one decision epoch,
    /// allocation-free in the steady state. Returns `true` while at
    /// least one instance has epochs left.
    pub fn step_epoch(&mut self) -> bool {
        if self.epoch >= self.max_total {
            return false;
        }
        for ((run, governor), app) in self
            .runs
            .iter_mut()
            .zip(&mut self.governors)
            .zip(&mut self.apps)
        {
            run.step(governor, app.as_mut(), None);
        }
        self.epoch += 1;
        self.epoch < self.max_total
    }

    /// Closes every report (run totals, debug state-bleed guard) and
    /// returns the outcome.
    #[must_use]
    pub fn finish(self) -> FleetOutcome {
        let total_frames = self.total_frames();
        let mut reports = Vec::with_capacity(self.runs.len());
        let mut platforms = Vec::with_capacity(self.runs.len());
        for (run, mut app) in self.runs.into_iter().zip(self.apps) {
            let outcome = run.finish(app.as_mut());
            reports.push(outcome.report);
            platforms.push(outcome.platform);
        }
        FleetOutcome {
            reports,
            platforms,
            total_frames,
        }
    }
}

/// Runs a whole fleet to completion under the given execution policy.
///
/// Serial: one engine steps every instance. Parallel: the
/// instances are split into contiguous shards, one engine per shard,
/// executed through [`ExperimentBatch`]'s scoped-thread queue; results
/// are re-concatenated in instance order. Because instances never
/// interact, **the worker count and sharding never change any
/// instance's results** — `tests/fleet_determinism.rs` pins this.
///
/// # Panics
///
/// Panics on an empty spec (via [`FleetEngine::new`]).
#[must_use]
pub fn run_fleet(spec: FleetSpec, runner: &RunnerConfig) -> FleetOutcome {
    let shards = shard_count(runner, spec.len());
    if shards <= 1 {
        let mut engine = FleetEngine::new(spec);
        while engine.step_epoch() {}
        return engine.finish();
    }

    let FleetSpec {
        mut instances,
        frames,
        window_len,
    } = spec;
    let per_shard = instances.len().div_ceil(shards);
    let mut batch = ExperimentBatch::new();
    let mut shard_index = 0usize;
    while !instances.is_empty() {
        let rest = instances.split_off(per_shard.min(instances.len()));
        let chunk = std::mem::replace(&mut instances, rest);
        batch.push(format!("fleet-shard-{shard_index}"), move || {
            let mut engine = FleetEngine::new(FleetSpec {
                instances: chunk,
                frames,
                window_len,
            });
            while engine.step_epoch() {}
            engine.finish()
        });
        shard_index += 1;
    }

    let mut reports = Vec::new();
    let mut platforms = Vec::new();
    let mut total_frames = 0;
    for outcome in batch.run(runner) {
        reports.extend(outcome.reports);
        platforms.extend(outcome.platforms);
        total_frames += outcome.total_frames;
    }
    FleetOutcome {
        reports,
        platforms,
        total_frames,
    }
}

/// How many engine shards a fleet of `instances` runs as under
/// `runner`: 1 when serial, otherwise the worker count capped at the
/// instance count.
fn shard_count(runner: &RunnerConfig, instances: usize) -> usize {
    let workers = match runner.mode() {
        RunnerMode::Serial => 1,
        RunnerMode::Parallel { workers } => workers.map_or_else(
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            std::num::NonZeroUsize::get,
        ),
    };
    workers.max(1).min(instances.max(1))
}

/// Reads the fleet size from the `QGOV_FLEET` environment variable: a
/// positive integer selects that many instances; anything else
/// (including unset) selects `default`, with a warning for
/// unparseable values.
#[must_use]
pub fn fleet_size_from_env(default: usize) -> usize {
    match std::env::var("QGOV_FLEET") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!(
                    "warning: unrecognised QGOV_FLEET value {value:?}; \
                     using default fleet size {default}"
                );
                default
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_experiment;
    use qgov_sim::SensorConfig;
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn quiet_config() -> PlatformConfig {
        PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        }
    }

    fn noisy_app(frames: u64, seed: u64) -> SyntheticWorkload {
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

    fn rtm_config(seed: u64) -> RtmConfig {
        RtmConfig::paper(seed).with_workload_bounds(1e8, 1e9)
    }

    #[test]
    fn fleet_is_bit_identical_to_sequential_flat_runs() {
        let frames = 220;
        let seeds = [7u64, 7, 31];

        let spec = FleetSpec::uniform(&rtm_config(0), &seeds, &quiet_config(), frames, |s| {
            Box::new(noisy_app(frames, s))
        });
        let fleet = run_fleet(spec, &RunnerConfig::serial());

        for (i, &seed) in seeds.iter().enumerate() {
            let mut rtm = RtmGovernor::new(rtm_config(seed)).unwrap();
            let flat = run_experiment(
                &mut rtm,
                &mut noisy_app(frames, seed),
                quiet_config(),
                frames,
            );
            assert_eq!(fleet.reports[i], flat.report, "instance {i} diverged");
            assert_eq!(
                fleet.platforms[i].total_energy().as_joules().to_bits(),
                flat.platform.total_energy().as_joules().to_bits(),
                "instance {i} platform energy diverged"
            );
        }
        // The duplicate-seed instances are identical to each other too.
        assert_eq!(fleet.reports[0], fleet.reports[1]);
        assert_eq!(fleet.total_frames, frames * seeds.len() as u64);
    }

    #[test]
    fn ragged_horizons_finish_independently() {
        let mut spec = FleetSpec::new(1_000);
        spec.push(rtm_config(1), Box::new(noisy_app(50, 1)), quiet_config());
        spec.push(rtm_config(2), Box::new(noisy_app(120, 2)), quiet_config());
        let outcome = run_fleet(spec, &RunnerConfig::serial());
        assert_eq!(outcome.reports[0].frames(), 50);
        assert_eq!(outcome.reports[1].frames(), 120);
        assert_eq!(outcome.total_frames, 170);
    }

    #[test]
    fn windowed_retention_streams_instead_of_retaining() {
        let frames = 90;
        let spec = FleetSpec::uniform(&rtm_config(0), &[5], &quiet_config(), frames, |s| {
            Box::new(noisy_app(frames, s))
        })
        .with_windowed_frames(30);
        let outcome = run_fleet(spec, &RunnerConfig::serial());
        let report = &outcome.reports[0];
        assert!(report.frame_stats().is_empty());
        let folds = report.frame_windows().expect("windowed retention");
        assert_eq!(folds.ratio().completed().len(), 3);

        // Whole-run scalars equal the flat (full-retention) run's.
        let mut rtm = RtmGovernor::new(rtm_config(5)).unwrap();
        let flat = run_experiment(&mut rtm, &mut noisy_app(frames, 5), quiet_config(), frames);
        assert_eq!(
            report.normalized_performance().to_bits(),
            flat.report.normalized_performance().to_bits()
        );
        assert_eq!(
            report.total_energy().as_joules().to_bits(),
            flat.report.total_energy().as_joules().to_bits()
        );
        assert_eq!(
            report.mean_opp().to_bits(),
            flat.report.mean_opp().to_bits()
        );
    }

    #[test]
    fn sharded_parallel_run_matches_serial() {
        let frames = 120;
        let seeds = [3u64, 5, 9, 11, 13];
        let build = || {
            FleetSpec::uniform(&rtm_config(0), &seeds, &quiet_config(), frames, |s| {
                Box::new(noisy_app(frames, s))
            })
        };
        let serial = run_fleet(build(), &RunnerConfig::serial());
        let sharded = run_fleet(build(), &RunnerConfig::with_workers(3));
        assert_eq!(serial.reports, sharded.reports);
        assert_eq!(serial.total_frames, sharded.total_frames);
    }

    #[test]
    fn summarize_folds_across_instances() {
        let frames = 80;
        let spec = FleetSpec::uniform(&rtm_config(0), &[1, 2, 3], &quiet_config(), frames, |s| {
            Box::new(noisy_app(frames, s))
        });
        let outcome = run_fleet(spec, &RunnerConfig::serial());
        let perf = outcome.summarize(RunReport::normalized_performance);
        assert_eq!(perf.n, 3);
        assert!(perf.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_fleet_panics() {
        let _ = FleetEngine::new(FleetSpec::new(10));
    }

    #[test]
    fn mixed_shapes_each_match_their_own_flat_run() {
        let frames = 150;
        let mut wider = rtm_config(2);
        wider.workload_levels += 1;
        let little = PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_little()
        };
        let members = [
            (rtm_config(1), quiet_config()),
            (wider, quiet_config()),
            (rtm_config(3), little),
        ];
        let mut spec = FleetSpec::new(frames);
        for (i, (config, platform)) in members.iter().enumerate() {
            spec.push(
                config.clone(),
                Box::new(noisy_app(frames, i as u64)),
                platform.clone(),
            );
        }
        let fleet = run_fleet(spec, &RunnerConfig::serial());

        for (i, (config, platform)) in members.into_iter().enumerate() {
            let mut rtm = RtmGovernor::new(config).unwrap();
            let flat = run_experiment(&mut rtm, &mut noisy_app(frames, i as u64), platform, frames);
            assert_eq!(fleet.reports[i], flat.report, "instance {i} diverged");
            assert_eq!(
                fleet.platforms[i].total_energy().as_joules().to_bits(),
                flat.platform.total_energy().as_joules().to_bits(),
                "instance {i} platform energy diverged"
            );
        }
        // The three members really differ in shape.
        assert_ne!(
            fleet.platforms[0].opp_table().len(),
            fleet.platforms[2].opp_table().len()
        );
    }
}
