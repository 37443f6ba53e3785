//! The many-core experiment loop: chip-level coordinator ×
//! application × topology → per-cluster reports.
//!
//! [`run_manycore_experiment`] is the multi-cluster sibling of
//! [`crate::harness::run_experiment`]: one [`ManyCoreGovernor`] drives
//! one [`Application`] on a freshly built [`ManyCorePlatform`]. Each
//! epoch the frame's demand is split across clusters by the
//! coordinator's work-share vector
//! ([`split_demand_into`]), every
//! cluster runs its slice to the chip-wide frame barrier, and the
//! coordinator observes all per-cluster
//! [`FrameResult`](qgov_sim::FrameResult)s at once — the
//! seam where per-cluster Q-agents learn frequencies and the migration
//! policy rebalances placement.
//!
//! # Bit-identity bridge
//!
//! On a 1-cluster [`Topology`] with the whole share on that cluster,
//! the split is thread-preserving and the cluster steps through the
//! *unchanged* single-cluster [`Platform`](qgov_sim::Platform) kernel,
//! so this loop reproduces [`run_experiment`](crate::run_experiment)
//! frame-for-frame, bit-for-bit (`tests/harness_golden.rs` pins it).
//!
//! ```
//! use qgov_bench::manycore::run_manycore_experiment;
//! use qgov_governors::PerClusterGovernors;
//! use qgov_sim::{PlatformConfig, Topology};
//! use qgov_units::{Cycles, SimTime};
//! use qgov_workloads::SyntheticWorkload;
//!
//! let topology = Topology::homogeneous_mesh(2, PlatformConfig::odroid_xu3_a15());
//! let mut gov = PerClusterGovernors::performance(2);
//! let mut app = SyntheticWorkload::constant(
//!     "demo", Cycles::from_mcycles(80), SimTime::from_ms(40), 30, 8, 0,
//! );
//! let outcome = run_manycore_experiment(&mut gov, &mut app, topology, 30, &[0.5, 0.5]);
//! assert_eq!(outcome.report.frames(), 30);
//! assert_eq!(outcome.cluster_reports.len(), 2);
//! assert_eq!(outcome.report.deadline_misses(), 0);
//! ```

use crate::harness::{
    apply_decision, debug_assert_no_run_state_bleed, debug_probe_reset_determinism,
    faulted_decision, to_work_slices_into,
};
use qgov_governors::{GovernorContext, ManyCoreGovernor, ManyCoreObservation, VfDecision};
use qgov_metrics::{MonitorSample, PropertySet, RunReport};
use qgov_sim::{
    FaultInjector, FaultPlan, ManyCoreFrameResult, ManyCorePlatform, Topology, WorkSlice,
};
use qgov_units::{Cycles, Energy, SimTime};
use qgov_workloads::{split_demand_into, Application, FrameDemand};

/// Everything a finished many-core run yields: the chip-level report,
/// one report per cluster, the platform in its final state, and the
/// final work-share vector.
#[derive(Debug)]
pub struct ManyCoreOutcome {
    /// Chip-level metrics: per-frame values are the barrier aggregates
    /// (slowest cluster's frame time, summed energy); the recorded OPP
    /// index is cluster 0's (a multi-cluster chip has no single OPP).
    pub report: RunReport,
    /// Per-cluster metrics, indexed like the topology. Frame times and
    /// deadlines are each cluster's own; run totals (energy,
    /// transitions, peak temperature) are per-cluster too.
    pub cluster_reports: Vec<RunReport>,
    /// The platform after the run.
    pub platform: ManyCorePlatform,
    /// The work-share vector after the last epoch (what migration
    /// converged to).
    pub shares: Vec<f64>,
}

/// Runs `coordinator` against `app` for `frames` epochs (capped at the
/// application's own length) on a chip built from `topology`, starting
/// from the `initial_shares` placement.
///
/// The loop per decision epoch:
/// 1. split the frame's demand across clusters by the current share
///    vector and execute every slice to the chip-wide barrier;
/// 2. record chip-level and per-cluster metrics;
/// 3. let the coordinator observe all per-cluster frame results,
///    decide each cluster's next operating point, and rebalance the
///    share vector (task migration);
/// 4. charge each cluster its own processing overhead and V-F
///    transition latency.
///
/// Steady state is allocation-free: the demand slots, work-slice
/// buffers, frame result, decision vector and share vector are all
/// reused across epochs (`tests/alloc_steady_state_manycore.rs` pins
/// this loop's clean path under [`ManyCoreRtm`](qgov_core::ManyCoreRtm)
/// on a 4-cluster mesh).
///
/// # Panics
///
/// Panics if the topology is invalid, `initial_shares` is not one
/// share per cluster, or a decision is out of range — programming
/// errors in the experiment setup. Debug builds additionally panic if
/// the application does not rewind deterministically on `reset()`.
pub fn run_manycore_experiment(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
) -> ManyCoreOutcome {
    run_manycore(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        &FaultPlan::none(),
        0,
        None,
    )
}

/// [`run_manycore_experiment`] with a streaming temporal-property
/// monitor riding along on the *chip-level* epoch stream: after every
/// coordinator decision the loop fills one [`MonitorSample`] from the
/// barrier aggregates (slowest cluster's frame time, summed energy,
/// chip-wide peak temperature, cluster 0's OPP) plus the coordinator's
/// ε/convergence state, and feeds it to `monitors`.
///
/// Monitoring never perturbs the run — the chip report equals the
/// unmonitored run's except for the attached
/// [`monitor_report`](RunReport::monitor_report) — and adds no heap
/// allocations to the steady-state epoch.
pub fn run_manycore_experiment_monitored(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    monitors: &mut PropertySet<MonitorSample>,
) -> ManyCoreOutcome {
    run_manycore(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        &FaultPlan::none(),
        0,
        Some(monitors),
    )
}

/// [`run_manycore_experiment`] under a deterministic fault schedule —
/// the chip-level sibling of
/// [`run_experiment_faulted`](crate::harness::run_experiment_faulted).
///
/// Per epoch, for every cluster, the loop:
/// 1. moves any dead core's work slice onto that cluster's survivors
///    ([`FaultInjector::redistribute_dead`]); a fully dead cluster's
///    slices all go idle — its assigned share simply does not execute
///    until the coordinator drains it away;
/// 2. executes the chip frame and records **truth** in the chip and
///    per-cluster reports;
/// 3. hands the coordinator a *sensed copy* of the per-cluster frame
///    results, perturbed by [`FaultInjector::perturb_sensing`];
/// 4. rewrites each cluster's decision through its actuation fault
///    before applying it.
///
/// The first epoch on which a cluster's cores are all dead
/// ([`FaultInjector::cluster_dead`]) is reported once to the
/// coordinator via [`ManyCoreGovernor::notify_cluster_dead`] — the
/// hardened RTM freezes that agent and drains its share; a naive
/// coordinator ignores the call and keeps feeding the corpse.
///
/// With an empty `plan` every injector step is a no-op and the run is
/// bit-identical to [`run_manycore_experiment`]
/// (`tests/fault_injection.rs` pins this).
///
/// # Panics
///
/// Panics as [`run_manycore_experiment`] does, and if `plan` names a
/// cluster or core outside the topology.
pub fn run_manycore_experiment_faulted(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    plan: &FaultPlan,
    fault_seed: u64,
) -> ManyCoreOutcome {
    run_manycore(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        plan,
        fault_seed,
        None,
    )
}

/// [`run_manycore_experiment_faulted`] with a streaming
/// temporal-property monitor riding along on the chip-level epoch
/// stream. The monitors observe **ground truth**, never the sensed
/// copy — a thermal-cap property checks the real die even while the
/// coordinator is fed a stuck sensor.
#[allow(clippy::too_many_arguments)]
pub fn run_manycore_experiment_faulted_monitored(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    plan: &FaultPlan,
    fault_seed: u64,
    monitors: &mut PropertySet<MonitorSample>,
) -> ManyCoreOutcome {
    run_manycore(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        plan,
        fault_seed,
        Some(monitors),
    )
}

/// The one many-core epoch loop behind every `run_manycore_experiment*`
/// entry point (see [`run_manycore_experiment_faulted`] for the
/// per-epoch steps). Under an empty `plan` the fault steps are skipped
/// outright: the coordinator reads the true frame results and its
/// decisions apply unchanged. Monitor verdicts are folded into the chip
/// report when monitors rode along.
#[allow(clippy::too_many_arguments)]
fn run_manycore(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    plan: &FaultPlan,
    fault_seed: u64,
    mut monitors: Option<&mut PropertySet<MonitorSample>>,
) -> ManyCoreOutcome {
    let mut chip = ManyCorePlatform::new(topology).expect("valid topology");
    let n = chip.cluster_count();
    assert_eq!(initial_shares.len(), n, "one initial share per cluster");
    let period = app.period();

    let cores: Vec<usize> = (0..n).map(|c| chip.cores(c)).collect();
    let ctxs: Vec<GovernorContext> = (0..n)
        .map(|c| GovernorContext::new(chip.opp_table(c).clone(), cores[c], period))
        .collect();
    let mut injector = FaultInjector::new(plan, fault_seed, &cores);
    let faulted = !injector.is_empty();
    let mut notified = vec![false; n];

    app.reset();
    let pristine_first = debug_probe_reset_determinism(app);
    let mut decisions: Vec<VfDecision> = Vec::with_capacity(n);
    coordinator.init(&ctxs, &mut decisions);
    assert_eq!(decisions.len(), n, "one initial decision per cluster");
    for (c, decision) in decisions.iter().enumerate() {
        apply_decision(chip.cluster_mut(c), decision).expect("initial decision in range");
    }

    let total = frames.min(app.frames());
    let mut report = RunReport::new(coordinator.name(), app.name(), period);
    report.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));
    let mut cluster_reports: Vec<RunReport> = (0..n)
        .map(|c| {
            let mut r = RunReport::new(coordinator.name(), chip.cluster_name(c), period);
            r.reserve_frames(usize::try_from(total).unwrap_or(usize::MAX));
            r
        })
        .collect();

    let mut shares = initial_shares.to_vec();
    let mut demand = FrameDemand::default();
    let mut cluster_demands = vec![FrameDemand::default(); n];
    let mut work: Vec<Vec<WorkSlice>> = cores.iter().map(|&k| vec![WorkSlice::IDLE; k]).collect();
    let mut frame = ManyCoreFrameResult::empty();
    let mut sensed = ManyCoreFrameResult::empty();
    // Cycles dropped per cluster this epoch; stays zero under an empty
    // plan.
    let mut lost = vec![Cycles::ZERO; n];

    for epoch in 0..total {
        if faulted {
            injector.begin_epoch(epoch);
            for (c, seen) in notified.iter_mut().enumerate() {
                if !*seen && injector.cluster_dead(c) {
                    *seen = true;
                    coordinator.notify_cluster_dead(c);
                }
            }
        }
        app.next_frame_into(&mut demand);
        split_demand_into(&demand, &shares, &cores, &mut cluster_demands);
        for (c, (slices, slice_demand)) in work.iter_mut().zip(&cluster_demands).enumerate() {
            to_work_slices_into(slice_demand, slices);
            if faulted {
                // Work routed to a fully dead cluster never executes:
                // that frame is incomplete, i.e. a missed deadline,
                // however fast the (idle) dead cluster crosses the
                // barrier. Only the coordinator can stop the bleeding,
                // by draining the dead cluster's share.
                lost[c] = injector.redistribute_dead(c, slices);
            }
        }
        chip.run_frame_into(&work, period, &mut frame)
            .expect("work buffers sized to the topology");
        debug_assert_chip_accounting(&frame);
        let work_lost = lost.iter().any(|l| !l.is_zero());
        let chip_met = frame.met_deadline() && !work_lost;
        let misses_before = report.deadline_misses();
        report.record_frame(
            frame.frame_time,
            frame.wall_time,
            frame.energy,
            frame.clusters[0].cluster_opp,
            chip_met,
        );
        debug_assert!(
            !work_lost || report.deadline_misses() == misses_before + 1,
            "epoch {epoch}: a frame with lost work must be recorded as missed"
        );
        for (c, cluster_report) in cluster_reports.iter_mut().enumerate() {
            let f = &frame.clusters[c];
            cluster_report.record_frame(
                f.frame_time,
                f.wall_time,
                f.energy,
                f.cluster_opp,
                f.met_deadline() && lost[c].is_zero(),
            );
        }
        let seen = if faulted {
            sensed.copy_from(&frame);
            for (c, cluster_frame) in sensed.clusters.iter_mut().enumerate() {
                injector.perturb_sensing(epoch, c, cluster_frame);
            }
            &sensed
        } else {
            &frame
        };
        coordinator.decide_into(
            &ManyCoreObservation {
                frames: &seen.clusters,
                epoch,
            },
            &mut decisions,
            &mut shares,
        );
        assert_eq!(decisions.len(), n, "one decision per cluster");
        if let Some(monitors) = monitors.as_deref_mut() {
            // Truth, not the sensed copy: the thermal cap must hold on
            // the die even while a sensor lies to the coordinator.
            // Sampled after decide_into() so ε/convergence reflect this
            // epoch's selections.
            let peak = frame
                .clusters
                .iter()
                .map(|f| f.temperature)
                .fold(frame.clusters[0].temperature, qgov_units::Temp::max);
            monitors.observe(&MonitorSample {
                epoch,
                frame_time_ratio: frame.frame_time.ratio(period),
                met_deadline: chip_met,
                opp: frame.clusters[0].cluster_opp,
                temperature_c: peak.as_celsius(),
                energy_j: frame.energy.as_joules(),
                epsilon: coordinator.exploration_epsilon().unwrap_or(f64::NAN),
                converged: coordinator.has_converged().unwrap_or(false),
            });
        }
        for (c, decision) in decisions.iter_mut().enumerate() {
            if faulted {
                let requested = std::mem::replace(decision, VfDecision::NoChange);
                *decision =
                    faulted_decision(&mut injector, epoch, c, chip.current_opp(c), requested);
            }
            apply_decision(chip.cluster_mut(c), decision).expect("decision in range");
            chip.add_overhead(c, coordinator.processing_overhead(c));
        }
    }

    report.set_run_totals(
        chip.total_energy(),
        chip.total_transitions(),
        chip.total_transition_latency(),
        chip.peak_temperature(),
    );
    for (c, cluster_report) in cluster_reports.iter_mut().enumerate() {
        let cluster = chip.cluster(c);
        cluster_report.set_run_totals(
            cluster.total_energy(),
            cluster.vf().transitions(),
            cluster.vf().total_latency(),
            cluster.peak_temperature(),
        );
    }
    if let Some(monitors) = monitors {
        report.set_monitor_report(monitors.report());
    }
    debug_assert_no_run_state_bleed(app, pristine_first.as_ref(), total);
    ManyCoreOutcome {
        report,
        cluster_reports,
        platform: chip,
        shares,
    }
}

/// Debug-build checks of the chip frame's accounting against its own
/// clusters: chip energy is the sum of the cluster energies, bit for
/// bit, folded in cluster order; the chip frame time is the slowest
/// cluster's.
fn debug_assert_chip_accounting(frame: &ManyCoreFrameResult) {
    if cfg!(debug_assertions) {
        let mut energy = Energy::ZERO;
        let mut slowest = SimTime::ZERO;
        for f in &frame.clusters {
            energy += f.energy;
            slowest = slowest.max(f.frame_time);
        }
        assert_eq!(
            frame.energy.as_joules().to_bits(),
            energy.as_joules().to_bits(),
            "chip energy must equal the in-order sum of its clusters' energies"
        );
        assert_eq!(
            frame.frame_time, slowest,
            "chip frame time must equal the slowest cluster's"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_experiment;
    use qgov_core::ManyCoreRtm;
    use qgov_governors::{OndemandGovernor, PerClusterGovernors};
    use qgov_sim::{PlatformConfig, SensorConfig};
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn quiet_config() -> PlatformConfig {
        PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        }
    }

    fn medium_app(frames: u64, threads: usize) -> SyntheticWorkload {
        SyntheticWorkload::constant(
            "medium",
            Cycles::from_mcycles(100),
            SimTime::from_ms(40),
            frames,
            threads,
            3,
        )
    }

    #[test]
    fn single_cluster_run_is_bit_identical_to_the_flat_harness() {
        let mut flat_gov = OndemandGovernor::linux_default();
        let flat = run_experiment(&mut flat_gov, &mut medium_app(60, 4), quiet_config(), 60);

        let mut chip_gov = PerClusterGovernors::new(
            "ondemand",
            vec![Box::new(OndemandGovernor::linux_default())],
        );
        let chip = run_manycore_experiment(
            &mut chip_gov,
            &mut medium_app(60, 4),
            Topology::single(quiet_config()),
            60,
            &[1.0],
        );

        assert_eq!(flat.report, chip.report);
        assert_eq!(
            flat.report.total_energy().as_joules().to_bits(),
            chip.cluster_reports[0].total_energy().as_joules().to_bits()
        );
        assert_eq!(chip.shares, vec![1.0]);
    }

    #[test]
    fn two_cluster_split_meets_what_one_cluster_can_also_meet() {
        let topology = Topology::homogeneous_mesh(2, quiet_config());
        let mut gov = PerClusterGovernors::performance(2);
        let outcome =
            run_manycore_experiment(&mut gov, &mut medium_app(40, 8), topology, 40, &[0.5, 0.5]);
        assert_eq!(outcome.report.deadline_misses(), 0);
        assert_eq!(outcome.cluster_reports.len(), 2);
        // Both clusters carried work and report energy.
        for r in &outcome.cluster_reports {
            assert!(r.total_energy().as_joules() > 0.0);
        }
        // Chip energy is the sum of the cluster energies.
        let sum: f64 = outcome
            .cluster_reports
            .iter()
            .map(|r| r.total_energy().as_joules())
            .sum();
        assert!((outcome.report.total_energy().as_joules() - sum).abs() < 1e-9);
    }

    #[test]
    fn learned_coordinator_runs_and_may_migrate() {
        let topology = Topology::odroid_xu3_biglittle();
        let mut rtm = ManyCoreRtm::paper(42, 2, (1e7, 5e8)).unwrap();
        let outcome =
            run_manycore_experiment(&mut rtm, &mut medium_app(80, 8), topology, 80, &[0.6, 0.4]);
        assert_eq!(outcome.report.frames(), 80);
        let share_sum: f64 = outcome.shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{:?}", outcome.shares);
        assert!(outcome.shares.iter().all(|s| *s >= 0.0));
    }
}
