//! The experiment loop: governor × application × platform → report.
//!
//! [`run_experiment`] is the single-cell kernel every batched sweep in
//! [`crate::runner`] bottoms out in: one governor driving one
//! application on one freshly built platform. It takes `&mut` to both
//! the governor and the application, and [`precharacterize`] likewise
//! **mutates the application in place** (recording resets it and
//! drains its frame iterator). A batch cell must therefore own a fresh
//! application instance — in practice a [`WorkloadTrace`] clone —
//! rather than share one across cells; debug builds assert that the
//! application rewinds deterministically on `reset()`, which is the
//! property that makes per-cell clones equivalent to reruns.
//!
//! ```
//! use qgov_bench::harness::run_experiment;
//! use qgov_governors::PerformanceGovernor;
//! use qgov_sim::PlatformConfig;
//! use qgov_units::{Cycles, SimTime};
//! use qgov_workloads::SyntheticWorkload;
//!
//! let mut gov = PerformanceGovernor::new();
//! let mut app = SyntheticWorkload::constant(
//!     "demo", Cycles::from_mcycles(40), SimTime::from_ms(40), 30, 4, 0,
//! );
//! let outcome = run_experiment(&mut gov, &mut app, PlatformConfig::odroid_xu3_a15(), 30);
//! assert_eq!(outcome.report.frames(), 30);
//! assert_eq!(outcome.report.deadline_misses(), 0);
//! ```

use qgov_governors::{EpochObservation, Governor, GovernorContext, VfDecision};
use qgov_metrics::{MonitorSample, PropertySet, RunReport};
use qgov_sim::{
    Actuation, FaultInjector, FaultPlan, FrameResult, Platform, PlatformConfig, SimError, VfDomain,
    WorkSlice,
};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{Application, FrameDemand, WorkloadTrace};

/// Everything a finished run yields: the metrics report plus the
/// platform in its final state (for inspecting transitions, PMUs,
/// temperatures).
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Accumulated per-run metrics.
    pub report: RunReport,
    /// The platform after the run.
    pub platform: Platform,
}

/// Applies a governor decision to the platform, resolving per-core
/// requests to the cluster maximum on shared-rail hardware (the same
/// arbitration `cpufreq` applies within a frequency policy).
pub(crate) fn apply_decision(
    platform: &mut Platform,
    decision: &VfDecision,
) -> Result<(), SimError> {
    match (platform.vf().domain(), decision) {
        (_, VfDecision::NoChange) => Ok(()),
        (_, VfDecision::Cluster(i)) => platform.try_set_cluster_opp(*i),
        (VfDomain::PerCore, VfDecision::PerCore(per)) => {
            for (core, &opp) in per.iter().enumerate() {
                platform.try_set_core_opp(core, opp)?;
            }
            Ok(())
        }
        (VfDomain::PerCluster, VfDecision::PerCore(_)) => {
            let resolved = decision.resolve_cluster(platform.current_opp());
            platform.try_set_cluster_opp(resolved)
        }
    }
}

/// Maps a frame's per-thread demands onto per-core work slices (thread
/// `i` runs on core `i`; surplus threads fold onto the last core, idle
/// cores receive nothing). In-place form: `work` must already be sized
/// to the core count; its previous contents are overwritten — this is
/// the scratch buffer the frame loop reuses every epoch.
pub(crate) fn to_work_slices_into(demand: &FrameDemand, work: &mut [WorkSlice]) {
    work.fill(WorkSlice::IDLE);
    let cores = work.len();
    for (i, t) in demand.threads.iter().enumerate() {
        let core = i.min(cores - 1);
        work[core] = WorkSlice::new(
            work[core].cpu_cycles + t.cpu_cycles,
            work[core].mem_time + t.mem_time,
        );
    }
}

/// Allocating convenience wrapper over [`to_work_slices_into`].
#[cfg(test)]
fn to_work_slices(demand: &FrameDemand, cores: usize) -> Vec<WorkSlice> {
    let mut work = vec![WorkSlice::IDLE; cores];
    to_work_slices_into(demand, &mut work);
    work
}

/// Runs `governor` against `app` for `frames` epochs (capped at the
/// application's own length if shorter than requested) on a platform
/// built from `platform_config`.
///
/// The loop per decision epoch:
/// 1. fetch the frame's work demand and execute it to the barrier;
/// 2. record metrics;
/// 3. let the governor observe the completed frame and decide the next
///    operating point;
/// 4. charge the governor's processing overhead and the V-F transition
///    latency to the next frame (the paper's `T_OVH`).
///
/// The application is mutated in place (reset, then driven to the
/// frame cap), so a batched sweep must hand every cell its own
/// instance — see the module docs and [`crate::runner`].
///
/// # Panics
///
/// Panics if the platform configuration is invalid or a decision is out
/// of range — both indicate programming errors in the experiment setup.
/// Debug builds additionally panic if the application does not rewind
/// deterministically on `reset()` (the symptom of a cell sharing — or
/// having inherited dirty state from — another cell's application).
pub fn run_experiment(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        &FaultPlan::none(),
        0,
        None,
    )
}

/// [`run_experiment`] with a streaming temporal-property monitor riding
/// along: after every epoch's decision the loop fills one
/// [`MonitorSample`] in place (frame timing, OPP, temperature, energy,
/// plus the governor's ε/convergence state via
/// [`Governor::exploration_epsilon`] /
/// [`Governor::has_converged`]) and feeds it to `monitors`.
///
/// Monitoring never perturbs the run — the returned report equals the
/// unmonitored run's bit-for-bit except for the attached
/// [`monitor_report`](RunReport::monitor_report) — and adds no heap
/// allocations to the steady-state epoch (`tests/alloc_steady_state.rs`
/// pins this). The caller keeps `monitors` for further inspection; the
/// verdicts at end of run are also folded into the report.
pub fn run_experiment_monitored(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    monitors: &mut PropertySet<MonitorSample>,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        &FaultPlan::none(),
        0,
        Some(monitors),
    )
}

/// Rewrites a governor decision through the injector's actuation fault
/// for this epoch — the seam where a faulty voltage regulator sits
/// between the RTM's request and the hardware:
///
/// * `Honest` — the request goes through unchanged. If a latched-fault
///   window just closed with a request still buffered, that delayed
///   request lands now *unless* the governor issued a newer one this
///   epoch (the newer request supersedes the stale buffer).
/// * `Ignored` — the request is dropped; the platform keeps its OPP.
/// * `Clamped(max)` — a real request is resolved to a cluster index and
///   capped at `max`; `NoChange` stays `NoChange` (nothing to clamp).
/// * `Latched` — a real request is buffered and the *previous* buffered
///   request (if any) is applied instead: every request lands one epoch
///   late for the duration of the fault window.
///
/// With an [empty plan](FaultPlan::is_empty) the actuation is always
/// `Honest` with no buffered request, so the decision passes through
/// untouched — the bit-identity contract of the faulted harnesses.
pub(crate) fn faulted_decision(
    injector: &mut FaultInjector,
    epoch: u64,
    cluster: usize,
    current_opp: usize,
    decision: VfDecision,
) -> VfDecision {
    match injector.actuation(epoch, cluster) {
        Actuation::Honest => {
            if let Some(delayed) = injector.take_latched(cluster) {
                if matches!(decision, VfDecision::NoChange) {
                    return VfDecision::Cluster(delayed);
                }
            }
            decision
        }
        Actuation::Ignored => VfDecision::NoChange,
        Actuation::Clamped(max_opp) => match decision {
            VfDecision::NoChange => VfDecision::NoChange,
            other => VfDecision::Cluster(other.resolve_cluster(current_opp).min(max_opp)),
        },
        Actuation::Latched => match decision {
            VfDecision::NoChange => injector
                .take_latched(cluster)
                .map_or(VfDecision::NoChange, VfDecision::Cluster),
            other => {
                let requested = other.resolve_cluster(current_opp);
                injector
                    .exchange_latched(cluster, requested)
                    .map_or(VfDecision::NoChange, VfDecision::Cluster)
            }
        },
    }
}

/// [`run_experiment`] under a deterministic fault schedule: the
/// injector perturbs what the governor *senses*, rewrites what it
/// *actuates*, and redistributes the work of dropped cores — while the
/// report and any monitors keep observing ground truth.
///
/// Per epoch the loop:
/// 1. builds the frame's work slices, then moves any dead core's work
///    onto the survivors ([`FaultInjector::redistribute_dead`] — the
///    scheduler sees the drop-out, so its cycles land elsewhere);
/// 2. executes the frame and records **truth** in the report;
/// 3. copies the frame result and perturbs the copy
///    ([`FaultInjector::perturb_sensing`]) — the governor decides on
///    the faulted view;
/// 4. rewrites the decision through the actuation fault
///    (`faulted_decision`) before applying it.
///
/// Timing channels (`frame_time`, `wall_time`, slack) are never
/// faulted: the frame barrier is scheduler-observable, not a sensor.
/// Only the sensed copy's power / temperature / PMU channels can lie.
///
/// With an empty `plan` every injector step is a no-op and the run is
/// bit-identical to [`run_experiment`] (`tests/fault_injection.rs` pins
/// this property across governor families).
///
/// # Panics
///
/// Panics as [`run_experiment`] does, and if `plan` names a cluster
/// other than 0 or a core outside the platform (flat harness = one
/// cluster).
pub fn run_experiment_faulted(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    plan: &FaultPlan,
    fault_seed: u64,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        plan,
        fault_seed,
        None,
    )
}

/// [`run_experiment_faulted`] with a streaming temporal-property
/// monitor riding along. The monitors observe **ground truth** — the
/// unperturbed frame results — so a thermal-cap property checks the
/// real die temperature even while the governor is fed a stuck sensor.
pub fn run_experiment_faulted_monitored(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    plan: &FaultPlan,
    fault_seed: u64,
    monitors: &mut PropertySet<MonitorSample>,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        plan,
        fault_seed,
        Some(monitors),
    )
}

/// Every flat entry point: setup, `while step`, finish — plus the
/// monitor verdicts folded into the report when monitors rode along.
fn run_flat(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    plan: &FaultPlan,
    fault_seed: u64,
    mut monitors: Option<&mut PropertySet<MonitorSample>>,
) -> ExperimentOutcome {
    let mut run = FlatRun::new(
        governor,
        app,
        platform_config,
        frames,
        plan,
        fault_seed,
        None,
    );
    while run.step(governor, app, monitors.as_deref_mut()) {}
    let mut outcome = run.finish(app);
    if let Some(monitors) = monitors {
        outcome.report.set_monitor_report(monitors.report());
    }
    outcome
}

/// One flat run in progress — the single simulate → sense → decide →
/// learn body behind every `run_experiment*` entry point and
/// [`crate::fleet::FleetEngine`]: [`FlatRun::new`] sets the run up,
/// each [`FlatRun::step`] executes one decision epoch, and
/// [`FlatRun::finish`] closes the report. The governor and application
/// stay with the caller and are lent to every call, so a fleet can hold
/// N runs and step them epoch-major.
///
/// Per epoch the step:
/// 1. builds the frame's work slices; under a non-empty fault plan it
///    then moves any dead core's work onto the survivors
///    ([`FaultInjector::redistribute_dead`] — the scheduler sees the
///    drop-out, so its cycles land elsewhere);
/// 2. executes the frame and records **truth** in the report;
/// 3. lets the governor observe the frame and decide the next operating
///    point. Under an empty plan it reads the true frame result; under
///    a non-empty one it reads a copy perturbed by
///    [`FaultInjector::perturb_sensing`];
/// 4. feeds any monitors the true frame, sampled after the decision so
///    ε/convergence reflect this epoch's selection;
/// 5. rewrites the decision through the actuation fault
///    (`faulted_decision`, non-empty plan only), applies it, and
///    charges the governor's processing overhead and the V-F
///    transition latency to the next frame (the paper's `T_OVH`).
///
/// The steady state is allocation-free: one demand slot, one work-slice
/// buffer and two frame-result slots are reused across every epoch
/// (`next_frame_into` / `run_frame_into` refill them in place), and the
/// report pre-reserves its frame stats at setup.
/// `tests/alloc_steady_state.rs` pins this with a counting global
/// allocator.
pub(crate) struct FlatRun {
    platform: Platform,
    period: SimTime,
    injector: FaultInjector,
    report: RunReport,
    epoch: u64,
    /// The frame horizon (`frames.min(app.frames())`).
    total: u64,
    pristine_first: Option<FrameDemand>,
    demand: FrameDemand,
    work: Vec<WorkSlice>,
    frame: FrameResult,
    /// The governor's faulted view of `frame` (non-empty plans only).
    sensed: FrameResult,
}

impl FlatRun {
    /// Builds the platform and injector, resets `app` (plus the debug
    /// reset probe), applies the governor's first decision, and opens a
    /// report — windowed when `window_len` is set
    /// ([`RunReport::with_windowed_frames`]).
    ///
    /// # Panics
    ///
    /// Panics if the platform configuration is invalid, `plan` names a
    /// cluster other than 0 or a core outside the platform, or the first
    /// decision is out of range.
    pub(crate) fn new(
        governor: &mut dyn Governor,
        app: &mut dyn Application,
        platform_config: PlatformConfig,
        frames: u64,
        plan: &FaultPlan,
        fault_seed: u64,
        window_len: Option<u64>,
    ) -> Self {
        let mut platform = Platform::new(platform_config).expect("valid platform config");
        let period = app.period();
        let cores = platform.cores();
        let ctx = GovernorContext::new(platform.opp_table().clone(), cores, period);
        let injector = FaultInjector::single(plan, fault_seed, cores);

        app.reset();
        let pristine_first = debug_probe_reset_determinism(app);
        let first = governor.init(&ctx);
        apply_decision(&mut platform, &first).expect("initial decision in range");

        let total = frames.min(app.frames());
        let mut report = RunReport::new(governor.name(), app.name(), period);
        if let Some(w) = window_len {
            report = report.with_windowed_frames(w);
        }
        report.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));

        FlatRun {
            platform,
            period,
            injector,
            report,
            epoch: 0,
            total,
            pristine_first,
            demand: FrameDemand::default(),
            work: vec![WorkSlice::IDLE; cores],
            frame: FrameResult::empty(),
            sensed: FrameResult::empty(),
        }
    }

    /// The run's frame horizon.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Executes one decision epoch (see the type docs). Returns `false`,
    /// doing nothing, once the horizon is reached.
    ///
    /// # Panics
    ///
    /// Panics if a decision is out of range.
    pub(crate) fn step(
        &mut self,
        governor: &mut dyn Governor,
        app: &mut dyn Application,
        monitors: Option<&mut PropertySet<MonitorSample>>,
    ) -> bool {
        if self.epoch >= self.total {
            return false;
        }
        let epoch = self.epoch;
        let faulted = !self.injector.is_empty();
        if faulted {
            self.injector.begin_epoch(epoch);
        }
        app.next_frame_into(&mut self.demand);
        to_work_slices_into(&self.demand, &mut self.work);
        // Work whose every candidate core is dead never executes: such
        // a frame is incomplete, i.e. a missed deadline, however fast
        // the surviving (idle) cores cross the barrier.
        let lost = if faulted {
            self.injector.redistribute_dead(0, &mut self.work)
        } else {
            Cycles::ZERO
        };
        self.platform
            .run_frame_into(&self.work, self.period, &mut self.frame)
            .expect("work vector sized to cores");
        let frame = &self.frame;
        let met = frame.met_deadline() && lost.is_zero();
        self.report.record_frame(
            frame.frame_time,
            frame.wall_time,
            frame.energy,
            frame.cluster_opp,
            met,
        );
        let seen = if faulted {
            self.sensed.copy_from(frame);
            self.injector.perturb_sensing(epoch, 0, &mut self.sensed);
            &self.sensed
        } else {
            frame
        };
        let mut decision = governor.decide(&EpochObservation { frame: seen, epoch });
        if let Some(monitors) = monitors {
            // Truth, not the sensed copy: properties such as the
            // thermal cap must hold on the die, not on a lying sensor.
            monitors.observe(&MonitorSample {
                epoch,
                frame_time_ratio: frame.frame_time.ratio(self.period),
                met_deadline: met,
                opp: frame.cluster_opp,
                temperature_c: frame.temperature.as_celsius(),
                energy_j: frame.energy.as_joules(),
                epsilon: governor.exploration_epsilon().unwrap_or(f64::NAN),
                converged: governor.has_converged().unwrap_or(false),
            });
        }
        if faulted {
            let current = self.platform.current_opp();
            decision = faulted_decision(&mut self.injector, epoch, 0, current, decision);
        }
        apply_decision(&mut self.platform, &decision).expect("decision in range");
        self.platform.add_overhead(governor.processing_overhead());
        self.epoch += 1;
        true
    }

    /// Closes the report with the platform's run totals, runs the debug
    /// state-bleed guard on `app`, and returns the outcome.
    pub(crate) fn finish(mut self, app: &mut dyn Application) -> ExperimentOutcome {
        self.report.set_run_totals(
            self.platform.total_energy(),
            self.platform.vf().transitions(),
            self.platform.vf().total_latency(),
            self.platform.peak_temperature(),
        );
        debug_assert_no_run_state_bleed(app, self.pristine_first.as_ref(), self.total);
        ExperimentOutcome {
            report: self.report,
            platform: self.platform,
        }
    }
}

/// Debug-build guard for the serial/parallel seam: every batch cell
/// must own a fresh application (or trace clone), and that only
/// substitutes for a rerun when `reset()` rewinds to the identical
/// frame sequence. Probes the first frame twice across a reset,
/// leaves the application reset, and returns the probed frame (debug
/// builds only) so [`debug_assert_no_run_state_bleed`] can re-check it
/// after the run.
pub(crate) fn debug_probe_reset_determinism(app: &mut dyn Application) -> Option<FrameDemand> {
    if cfg!(debug_assertions) && app.frames() > 0 {
        let first = app.next_frame();
        app.reset();
        let again = app.next_frame();
        app.reset();
        assert_eq!(
            first,
            again,
            "{}: Application::reset() must rewind deterministically; \
             hand each batch cell a fresh app/trace instance instead of \
             sharing one (see qgov_bench::runner)",
            app.name()
        );
        Some(first)
    } else {
        None
    }
}

/// Debug-build guard for the cross-seed seam of a multi-seed batch:
/// after a full run, `reset()` must still rewind to the *pristine*
/// frame sequence probed before the run. An application that passes
/// the entry probe but fails here carries state its runs mutate and
/// its `reset()` does not clear — exactly the mechanism by which one
/// seed's cell would bleed into a later cell handed the same instance
/// (a sweep aggregating such an app would depend on cell scheduling).
/// Leaves the application where the release path leaves it: advanced
/// by `total` frames.
pub(crate) fn debug_assert_no_run_state_bleed(
    app: &mut dyn Application,
    pristine_first: Option<&FrameDemand>,
    total: u64,
) {
    // `pristine_first` is `Some` only in debug builds (see
    // `debug_probe_reset_determinism`).
    if let Some(pristine) = pristine_first {
        app.reset();
        let after_run = app.next_frame();
        assert_eq!(
            pristine,
            &after_run,
            "{}: a full run perturbed the reset() frame sequence — the \
             application carries cross-run state, which would bleed \
             between the seeds of one batch; give each cell a fresh \
             instance whose runs leave reset() pristine (see \
             qgov_bench::sweep)",
            app.name()
        );
        // Restore the release-path cursor position.
        app.reset();
        for _ in 0..total {
            let _ = app.next_frame();
        }
    }
}

/// Records `app` into a trace and returns `(trace, (min, max))` total
/// cycles per frame — the offline pre-characterisation every learning
/// governor and the Oracle receive (Section II-A's "design space
/// exploration").
///
/// Recording **mutates `app` in place**: it is reset, fully drained and
/// reset again. Call this once per experiment and give every batch
/// cell its own clone of the returned trace — never the live `app` —
/// so parallel cells cannot observe each other's cursor state. Debug
/// builds assert the application rewinds deterministically on
/// `reset()`, the property that makes trace clones equivalent to
/// reruns.
#[must_use]
pub fn precharacterize(app: &mut dyn Application) -> (WorkloadTrace, (f64, f64)) {
    let _ = debug_probe_reset_determinism(app);
    let trace = WorkloadTrace::record(app);
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    for i in 0..trace.len() {
        let c = trace.total_cycles(i).count() as f64;
        min = min.min(c);
        max = max.max(c);
    }
    if min >= max {
        // Degenerate constant workload: widen artificially.
        min *= 0.9;
        max *= 1.1 + 1e-9;
    }
    (trace, (min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_governors::{OndemandGovernor, PerformanceGovernor, PowersaveGovernor};
    use qgov_sim::SensorConfig;
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn quiet_config() -> PlatformConfig {
        PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        }
    }

    fn medium_app(frames: u64) -> SyntheticWorkload {
        // 25 Mc/core in 40 ms: needs >= ~640 MHz.
        SyntheticWorkload::constant(
            "medium",
            Cycles::from_mcycles(100),
            SimTime::from_ms(40),
            frames,
            4,
            3,
        )
    }

    #[test]
    fn performance_governor_always_meets_feasible_deadlines() {
        let mut gov = PerformanceGovernor::new();
        let outcome = run_experiment(&mut gov, &mut medium_app(50), quiet_config(), 50);
        assert_eq!(outcome.report.deadline_misses(), 0);
        assert_eq!(outcome.report.frames(), 50);
        assert!(outcome.report.normalized_performance() < 0.5);
    }

    #[test]
    fn powersave_misses_what_performance_meets() {
        let mut gov = PowersaveGovernor::new();
        let outcome = run_experiment(&mut gov, &mut medium_app(50), quiet_config(), 50);
        assert!(
            outcome.report.miss_rate() > 0.9,
            "200 MHz cannot hold 640 MHz of work"
        );
        assert!(outcome.report.normalized_performance() > 1.0);
    }

    #[test]
    fn powersave_uses_less_energy_than_performance() {
        let run = |gov: &mut dyn Governor| {
            run_experiment(gov, &mut medium_app(50), quiet_config(), 50)
                .report
                .total_energy()
        };
        let hi = run(&mut PerformanceGovernor::new());
        let lo = run(&mut PowersaveGovernor::new());
        assert!(lo < hi);
    }

    #[test]
    fn frame_cap_respects_app_length() {
        let mut gov = PerformanceGovernor::new();
        let outcome = run_experiment(&mut gov, &mut medium_app(10), quiet_config(), 1_000);
        assert_eq!(outcome.report.frames(), 10);
    }

    #[test]
    fn ondemand_tracks_load_between_extremes() {
        let mut gov = OndemandGovernor::linux_default();
        let outcome = run_experiment(&mut gov, &mut medium_app(200), quiet_config(), 200);
        let mean_opp = outcome.report.mean_opp();
        assert!(
            mean_opp > 1.0,
            "ondemand should leave the bottom ({mean_opp:.1})"
        );
        // Proportional scaling on a 60 %-utilisation workload must not
        // pin the top.
        assert!(
            mean_opp < 18.0,
            "ondemand should not pin the top ({mean_opp:.1})"
        );
    }

    #[test]
    fn surplus_threads_fold_onto_last_core() {
        let demand =
            qgov_workloads::FrameDemand::split_evenly(Cycles::from_mcycles(60), 6, SimTime::ZERO);
        let work = to_work_slices(&demand, 4);
        assert_eq!(work.len(), 4);
        let total: u64 = work.iter().map(|w| w.cpu_cycles.count()).sum();
        assert_eq!(total, 60_000_000, "no cycles lost in folding");
        assert!(work[3].cpu_cycles > work[0].cpu_cycles);
    }

    #[test]
    fn precharacterize_reports_bounds() {
        let mut app = medium_app(30);
        let (trace, (min, max)) = precharacterize(&mut app);
        assert_eq!(trace.len(), 30);
        assert!(min < max);
        assert!(min > 0.0);
        // Constant workload: bounds are the widened +-10 %.
        assert!((max / min - 1.1 / 0.9).abs() < 0.03);
    }

    /// An application whose `reset()` does not rewind — the failure
    /// mode of sharing one live app across batch cells.
    #[cfg(debug_assertions)]
    struct NonRewindingApp {
        counter: u64,
    }

    #[cfg(debug_assertions)]
    impl qgov_workloads::Application for NonRewindingApp {
        fn name(&self) -> &str {
            "non-rewinding"
        }
        fn period(&self) -> SimTime {
            SimTime::from_ms(40)
        }
        fn frames(&self) -> u64 {
            5
        }
        fn next_frame(&mut self) -> qgov_workloads::FrameDemand {
            self.counter += 1;
            qgov_workloads::FrameDemand::split_evenly(
                Cycles::from_mcycles(self.counter),
                2,
                SimTime::ZERO,
            )
        }
        fn reset(&mut self) {
            // Deliberately keeps its cursor: replaying diverges.
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rewind deterministically")]
    fn non_rewinding_app_is_caught_in_debug_builds() {
        let mut gov = PerformanceGovernor::new();
        let mut app = NonRewindingApp { counter: 0 };
        let _ = run_experiment(&mut gov, &mut app, quiet_config(), 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rewind deterministically")]
    fn precharacterize_catches_non_rewinding_app() {
        let mut app = NonRewindingApp { counter: 0 };
        let _ = precharacterize(&mut app);
    }

    /// An application that *passes* the entry probe (reset rewinds the
    /// cursor) but whose runs mutate state reset does not clear: the
    /// last frame of every full run bumps `drift`, shifting all
    /// subsequent frame demands. This is the cross-seed bleed shape —
    /// one seed's completed cell changing what a later cell replaying
    /// the same instance observes.
    #[cfg(debug_assertions)]
    struct DriftingApp {
        cursor: u64,
        drift: u64,
    }

    #[cfg(debug_assertions)]
    impl qgov_workloads::Application for DriftingApp {
        fn name(&self) -> &str {
            "drifting"
        }
        fn period(&self) -> SimTime {
            SimTime::from_ms(40)
        }
        fn frames(&self) -> u64 {
            5
        }
        fn next_frame(&mut self) -> qgov_workloads::FrameDemand {
            let demand = qgov_workloads::FrameDemand::split_evenly(
                Cycles::from_mcycles(10 + self.drift * 100 + self.cursor),
                2,
                SimTime::ZERO,
            );
            self.cursor += 1;
            if self.cursor == self.frames() {
                self.drift += 1; // survives reset(): cross-run state
            }
            demand
        }
        fn reset(&mut self) {
            self.cursor = 0;
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "bleed")]
    fn cross_run_state_bleed_is_caught_in_debug_builds() {
        let mut gov = PerformanceGovernor::new();
        let mut app = DriftingApp {
            cursor: 0,
            drift: 0,
        };
        let _ = run_experiment(&mut gov, &mut app, quiet_config(), 5);
    }

    #[test]
    fn post_run_guard_leaves_the_cursor_where_release_does() {
        // A second run_experiment on the same (well-behaved) app must
        // see the identical sequence: the debug-only post-run probe
        // re-advances the cursor so debug and release paths leave the
        // same state behind.
        let mut app = medium_app(20);
        let run = |app: &mut SyntheticWorkload| {
            let mut gov = PerformanceGovernor::new();
            run_experiment(&mut gov, app, quiet_config(), 20)
                .report
                .total_energy()
                .as_joules()
                .to_bits()
        };
        assert_eq!(run(&mut app), run(&mut app));
    }

    #[test]
    fn identical_runs_are_identical() {
        let run = || {
            let mut gov = OndemandGovernor::linux_default();
            let outcome = run_experiment(&mut gov, &mut medium_app(80), quiet_config(), 80);
            outcome.report.total_energy().as_joules().to_bits()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_fault_free() {
        let plain = {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment(&mut gov, &mut medium_app(80), quiet_config(), 80)
        };
        let faulted = {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment_faulted(
                &mut gov,
                &mut medium_app(80),
                quiet_config(),
                80,
                &FaultPlan::none(),
                0xFA17,
            )
        };
        assert_eq!(
            plain.report.total_energy().as_joules().to_bits(),
            faulted.report.total_energy().as_joules().to_bits()
        );
        assert_eq!(plain.report.mean_opp(), faulted.report.mean_opp());
        assert_eq!(
            plain.platform.vf().transitions(),
            faulted.platform.vf().transitions()
        );
    }

    #[test]
    fn ignored_actuation_pins_the_governor_out_of_the_loop() {
        use qgov_sim::{Fault, FaultKind};
        let plan = FaultPlan::none().with(Fault::permanent(FaultKind::ActuationIgnored, 0, 0));
        let mut gov = OndemandGovernor::linux_default();
        let outcome = run_experiment_faulted(
            &mut gov,
            &mut medium_app(100),
            quiet_config(),
            100,
            &plan,
            1,
        );
        // Only the (pre-fault) init decision can ever land: the
        // platform's OPP is frozen for the whole run.
        assert!(
            outcome.platform.vf().transitions() <= 1,
            "ignored actuation must freeze the OPP ({} transitions)",
            outcome.platform.vf().transitions()
        );
    }

    #[test]
    fn latched_actuation_delays_requests_one_epoch() {
        use qgov_sim::{Fault, FaultKind};
        let plan = FaultPlan::none().with(Fault::window(FaultKind::ActuationLatched, 0, 0, 10));
        let mut inj = FaultInjector::single(&plan, 1, 4);
        inj.begin_epoch(0);
        // The first request is buffered; nothing lands yet.
        assert_eq!(
            faulted_decision(&mut inj, 0, 0, 5, VfDecision::Cluster(7)),
            VfDecision::NoChange
        );
        // The next request swaps with the buffer: epoch 0's lands now.
        assert_eq!(
            faulted_decision(&mut inj, 1, 0, 5, VfDecision::Cluster(9)),
            VfDecision::Cluster(7)
        );
        // After the window a silent epoch flushes the leftover buffer…
        assert_eq!(
            faulted_decision(&mut inj, 10, 0, 5, VfDecision::NoChange),
            VfDecision::Cluster(9)
        );
        // …and then service is honest again.
        assert_eq!(
            faulted_decision(&mut inj, 11, 0, 5, VfDecision::NoChange),
            VfDecision::NoChange
        );
    }
}
